"""Structural claims about the package, checked on the syntax tree of each module.

Only ``records`` touches files: no other module imports ``json`` or ``csv``
or calls ``open``.  The only ``expm`` in the package is the call inside
``dynamics.make_propagator``, and ``experiment`` propagates only through
``dynamics``' entries.  ``records`` owns every record rule: no other
module reads a ``.meta`` attribute or names ``GRID_ATOL``, ``GRID_RTOL``
or ``MAX_GRID_STEPS``.  ``cli`` writes no file format of its own: it
calls neither ``write_csv`` nor ``write_json``.  Every import is of the
standard library or ``numpy``, and ``import poptomo`` loads no SciPy
module.  Every explicit
``raise`` raises a ``PoptomoError`` subclass, so the CLI maps it to an
exit code, except for two named exceptions.  Every name that the benchmark's tracer wraps is bound in
the module it looks in.  The public surface is the listed ``PUBLIC``,
so adding or removing a name is an explicit edit here.
"""

import ast
import builtins
import importlib.util
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parents[1]
PUBLIC = (
    "ConvergencePoint", "DegenerateParams", "DensityMatrix", "DimensionMismatch", "EmptyWindow",
    "EvolutionModel", "ExperimentConfig", "FactorizationFailure", "GammaSweepResult",
    "GenericHamiltonian", "GridMismatch", "HamiltonianSpec", "InvalidState", "Ladder5",
    "MeasurementRecord", "NoConvergence", "NonFiniteObjective", "NonHermitianInput",
    "NumericalDrift", "NumericalError", "OptResult", "ParseError", "PoptomoError",
    "PopulationPredictor", "PreparationSchedule", "PulseSegment", "ReconstructionResult",
    "SchemaError", "SimplexConfig", "SubplexConfig", "ValidationError", "build_hamiltonian",
    "convergence_study", "evolve", "infer_grid_step", "load_record", "make_propagator",
    "multi_start", "nelder_mead", "params_to_rho", "pi_half_duration", "prepare_pulse_state",
    "reconstruct", "rho_to_params", "run_preparation", "save_record", "shot_noise_floor",
    "subplex", "sweep_gamma", "synthesize_record", "truncate_record", "uhlmann_fidelity",
    "unvectorize", "vectorize", "weighted_error",
)
SRC = ROOT / "src" / "poptomo"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _called_name(node):
    """``f`` for a call ``f(...)`` or ``x.f(...)``; None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _walk(node, owner, visit):
    """visit(node, owner) for every node; owner is module[.class][.function] around it."""
    for child in ast.iter_child_nodes(node):
        visit(child, owner)
        _walk(child, f"{owner}.{child.name}" if isinstance(child, FUNCTIONS) else owner, visit)


def test_file_io_and_expm_stay_in_their_modules():
    file_io, expm_calls = set(), []

    def visit(node, owner):
        module = owner.split(".")[0]
        if isinstance(node, ast.Import):
            imported = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported = {node.module}
        else:
            imported = set()
        if imported & {"json", "csv"} or _called_name(node) == "open":
            file_io.add(module)
        if _called_name(node) == "expm":
            expm_calls.append(owner)
        # an alias would hide a call from the name check above
        if isinstance(node, ast.alias) and node.name == "expm":
            assert node.asname is None, f"{module} imports expm as {node.asname}"

    for path in sorted(SRC.glob("*.py")):
        _walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, visit)
    assert file_io == {"records"}
    assert expm_calls == ["dynamics.make_propagator"]


def test_record_rules_stay_in_records():
    # a record's sidecar and its grid tolerances are read and written in one place
    grid_names = {"GRID_ATOL", "GRID_RTOL", "MAX_GRID_STEPS"}
    found = []

    def visit(node, owner):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in grid_names or (isinstance(node, ast.Attribute) and name == "meta"):
            found.append((owner, name))

    for path in sorted(SRC.glob("*.py")):
        if path.stem != "records":
            _walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, visit)
    assert found == []


def test_experiment_leaves_propagation_to_dynamics():
    # drift synthesis hands each time column to dynamics.drive_populations,
    # which picks the exponential; experiment builds none of its own
    calls = []

    def visit(node, owner):
        if _called_name(node) in {"make_propagator", "eigh", "expm"}:
            calls.append((owner, _called_name(node)))

    _walk(ast.parse((SRC / "experiment.py").read_text(encoding="utf-8")), "experiment", visit)
    assert calls == []


def test_cli_writes_no_format_of_its_own():
    # every file the CLI writes goes through the saver of the module that
    # owns its format (records or experiment)
    calls = []

    def visit(node, owner):
        if _called_name(node) in {"write_csv", "write_json"}:
            calls.append((owner, _called_name(node)))

    _walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")), "cli", visit)
    assert calls == []


def test_imports_are_the_standard_library_and_numpy():
    # Each import costs start-up time and resident memory, which the
    # benchmark reads as setup_s and peak_rss_mb.  Importing scipy.optimize
    # after poptomo raises the peak resident set from 57.3 to 76.7 MB
    # (+20 MB) and takes 0.11-0.30 s across runs (one BLAS thread): more
    # than a whole reconstruction.  scipy.linalg alone made up most of
    # poptomo's own import; optimize.bfgs and dynamics.expm need only numpy.
    foreign = []

    def visit(node, owner):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            return
        for m in modules:
            if m.split(".")[0] not in sys.stdlib_module_names and m != "numpy":
                foreign.append((owner, m))

    for path in sorted(SRC.glob("*.py")):
        _walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, visit)
    assert foreign == []


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has SciPy loaded for the oracles
    code = "import sys, poptomo; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_every_raise_is_a_poptomo_error():
    # optimize catches its own _BudgetExhausted, and build_hamiltonian's
    # TypeError is a programming error: a spec that no loader builds
    from poptomo.errors import PoptomoError

    allowed = {
        ("optimize._Evaluator.__call__", "_BudgetExhausted"),
        ("dynamics.build_hamiltonian", "TypeError"),
    }
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"poptomo.{path.stem}")

        def visit(node, owner):
            if not isinstance(node, ast.Raise) or node.exc is None:
                return
            name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            head, *attrs = name.split(".")
            raised = getattr(module, head, getattr(builtins, head, None))
            for attr in attrs:
                raised = getattr(raised, attr, None)
            if not (isinstance(raised, type) and issubclass(raised, PoptomoError)):
                foreign.append((owner, name))

        _walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, visit)
    assert sorted(foreign) == sorted(allowed)


def test_tracer_wraps_and_restores_every_binding():
    # perfbench/tracing.py replaces names in the modules that call them; a
    # binding that moves or goes breaks the benchmark, which is not in testpaths
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from poptomo import cli, experiment, optimize, records, tomography

    mods = SimpleNamespace(
        cli=cli, experiment=experiment, optimize=optimize, records=records, tomography=tomography
    )
    before = {name: dict(vars(module)) for name, module in vars(mods).items()}
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
        assert tomography.rho_matrix_from_values is not before["tomography"]["rho_matrix_from_values"]
    finally:
        tracer.uninstall()
    for name, module in vars(mods).items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert [attr for attr, value in before[name].items() if after[attr] is not value] == []


def test_public_surface_is_the_listed_one():
    import poptomo

    assert len(set(poptomo.__all__)) == len(poptomo.__all__)
    assert tuple(sorted(poptomo.__all__)) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(poptomo, name)] == []
