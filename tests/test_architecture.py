"""Structural claims about the package, checked on the syntax tree of each module.

Only ``records`` touches files: no other module imports ``json`` or ``csv``
or calls ``open``.  The only ``expm`` in the package is the call inside
``dynamics.make_propagator``.  No module imports ``scipy.optimize``.  Every
name that the benchmark's tracer wraps is bound in the module it looks in.
"""

import ast
import importlib.util
import pathlib
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parents[1]
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


def test_no_module_imports_scipy_optimize():
    # Importing scipy.optimize after poptomo raises the peak resident set
    # from 57.3 to 76.7 MB (+20 MB) and takes 0.11-0.30 s across runs (one
    # BLAS thread): more than a whole reconstruction.  optimize.bfgs needs
    # only numpy.
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            return
        if any(m == "scipy.optimize" or m.startswith("scipy.optimize.") for m in modules):
            found.append(owner)

    for path in sorted(SRC.glob("*.py")):
        _walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, visit)
    assert found == []


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
