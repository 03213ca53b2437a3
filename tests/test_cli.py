import json

import numpy as np
import pytest

import poptomo as pt
from poptomo.cli import main


@pytest.fixture
def workspace(tmp_path):
    config = {
        "hamiltonian": {"type": "ladder5", "rabi_hz": 60e3, "delta1": 3e3, "delta2": 11e3},
        "gamma_hz": 375.0,
        "sample_interval_s": 1.16e-6,
        "n_samples": 16,
        "repeats": 5,
        "atoms_per_shot": 80000,
        "rng_seed": 7,
    }
    model = {
        "hamiltonian": {"type": "ladder5", "rabi_hz": 60e3, "delta1": 3e3, "delta2": 11e3},
        "gamma_hz": 375.0,
    }
    schedule = {
        "initial_state": "mF=+2",
        "segments": [
            {"duration_s": 1.0 / (4.0 * 60e3), "rabi_hz": 60e3, "delta1": 0.0, "delta2": 0.0}
        ],
    }
    paths = {
        "config": tmp_path / "config.json",
        "model": tmp_path / "model.json",
        "schedule": tmp_path / "prep.json",
        "record": tmp_path / "rec.csv",
        "result": tmp_path / "result.json",
    }
    paths["config"].write_text(json.dumps(config))
    paths["model"].write_text(json.dumps(model))
    paths["schedule"].write_text(json.dumps(schedule))
    return paths


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_simulate_reconstruct_fidelity_pipeline(workspace, tmp_path):
    state_out = tmp_path / "true_state.json"
    code = run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        "--save-state", state_out,
    )
    assert code == 0
    assert workspace["record"].exists()
    assert (tmp_path / "rec.meta.json").exists()
    assert state_out.exists()

    code = run_cli(
        "reconstruct",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--reference", workspace["schedule"],
        "--out", workspace["result"],
        "--restarts", "2",
        "--max-evals", "8000",
    )
    assert code == 0
    result = json.loads(workspace["result"].read_text())
    assert result["fidelity"] > 0.95
    assert result["epsilon"] < 0.05
    assert result["optimizer"]["evals"] > 0
    assert len(result["rho0"]["real"]) == 5

    # result files contribute their reconstructed state
    code = run_cli("fidelity", "--a", workspace["result"], "--b", state_out)
    assert code == 0


def test_fidelity_of_state_files(workspace, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rho = pt.DensityMatrix.basis_state(5, 0)
    from poptomo.experiment import save_state

    save_state(rho, a)
    save_state(pt.DensityMatrix.maximally_mixed(5), b)
    code = run_cli("fidelity", "--a", a, "--b", b)
    assert code == 0
    # schedule file also accepted
    code = run_cli("fidelity", "--a", a, "--b", workspace["schedule"])
    assert code == 0


def test_simulate_deterministic_bytes(workspace, tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        assert run_cli(
            "simulate",
            "--config", workspace["config"],
            "--state", workspace["schedule"],
            "--out", out,
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "r1.meta.json").read_bytes() == (tmp_path / "r2.meta.json").read_bytes()


def test_converge_writes_csv(workspace, tmp_path):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        "--noiseless",
    ) == 0
    out = tmp_path / "fig3.csv"
    code = run_cli(
        "converge",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--reference", workspace["schedule"],
        "--windows", "5.8e-6:17.4e-6:3",
        "--out", out,
        "--restarts", "1",
        "--max-evals", "4000",
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "window_s,epsilon,one_minus_fidelity"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[2]) < 0.02


def test_converge_without_reference_leaves_third_cell_empty(workspace, tmp_path):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        "--noiseless",
    ) == 0
    out = tmp_path / "conv.csv"
    code = run_cli(
        "converge",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--windows", "5.8e-6:11.6e-6:2",
        "--out", out,
        "--restarts", "1",
        "--max-evals", "500",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "window_s,epsilon,one_minus_fidelity"
    assert len(lines) == 3
    assert all(line.count(",") == 2 and line.endswith(",") for line in lines[1:])


def test_sweep_gamma_outputs(workspace, tmp_path):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        "--noiseless",
    ) == 0
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep-gamma",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--windows", "17.4e-6:17.4e-6:1",
        "--gammas", "175:575:3",
        "--out", out,
        "--restarts", "1",
        "--max-evals", "4000",
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "window_s,gamma_hz,epsilon"
    assert len(lines) == 4
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[1] for row in rows] == [175.0, 375.0, 575.0]
    sidecar = json.loads((tmp_path / "sweep.meta.json").read_text())
    assert sidecar["gamma_opt_hz"] == [375.0]


def test_sweep_gamma_failed_window_writes_null(workspace, tmp_path, monkeypatch, capsys):
    import poptomo.tomography as tomography

    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        "--noiseless",
    ) == 0

    def failing_reconstruct(*args, **kwargs):
        raise pt.NoConvergence("no cell converges")

    monkeypatch.setattr(tomography, "reconstruct", failing_reconstruct)
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep-gamma",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--windows", "17.4e-6:17.4e-6:1",
        "--gammas", "175:575:3",
        "--out", out,
    )
    assert code == 0
    assert all(line.endswith(",inf") for line in out.read_text().strip().splitlines()[1:])
    sidecar = json.loads((tmp_path / "sweep.meta.json").read_text())
    assert sidecar["gamma_opt_hz"] == [None]
    assert capsys.readouterr().out == "gamma_opt per window: 17.4us->none\n"


def test_sweep_gamma_dimension_mismatch_exits_2(workspace, tmp_path, capsys):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    three_level = {"hamiltonian": {"type": "generic", "real": np.diag([0.0, 1.0, 2.0]).tolist()}}
    workspace["model"].write_text(json.dumps(three_level))
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep-gamma",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--windows", "10e-6:17.4e-6:2",
        "--gammas", "0:750:2",
        "--out", out,
    )
    assert code == 2
    assert "record dim 5 != model dim 3" in capsys.readouterr().err
    assert not out.exists()


def test_delta_units_flag_is_gone(workspace):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "simulate",
            "--config", workspace["config"],
            "--state", workspace["schedule"],
            "--out", workspace["record"],
            "--delta-units", "angular",
        )
    assert exc.value.code == 2
    assert not workspace["record"].exists()


def test_rad_s_keys_give_the_model_hz_keys_give(workspace, tmp_path):
    from poptomo.experiment import load_model

    model = json.loads(workspace["model"].read_text())
    model["hamiltonian"] = {
        "type": "ladder5", "rabi_hz": 60e3, "delta1_rad_s": 2 * np.pi * 3e3, "delta2_rad_s": 2 * np.pi * 11e3,
    }
    (tmp_path / "angular.json").write_text(json.dumps(model))
    assert load_model(tmp_path / "angular.json") == load_model(workspace["model"])


@pytest.mark.parametrize("which", ["config", "model", "schedule"])
def test_a_delta_units_field_exits_2_and_is_named(workspace, tmp_path, capsys, which):
    # a file written for the removed delta_units field is never read at 2*pi
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    obj = json.loads(workspace[which].read_text())
    workspace[which].write_text(json.dumps({**obj, "delta_units": "angular"}))
    out = tmp_path / "out"
    simulate = ["simulate", "--config", workspace["config"], "--state", workspace["schedule"]]
    reconstruct = ["reconstruct", "--record", workspace["record"], "--model", workspace["model"]]
    assert run_cli(*(reconstruct if which == "model" else simulate), "--out", out) == 2
    assert f"{which}.delta_units: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_validation_failure_exits_2(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "time_s,p_1,p_2,sigma_1,sigma_2\n"
        "0.0,0.5,0.5,0.01,0.01\n"
        "0.0,0.5,0.5,0.01,0.01\n"
    )
    code = run_cli(
        "reconstruct",
        "--record", bad,
        "--model", workspace["model"],
        "--out", tmp_path / "r.json",
    )
    assert code == 2


def test_numerical_failure_exits_3(workspace, tmp_path):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    code = run_cli(
        "reconstruct",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--out", tmp_path / "r.json",
        "--restarts", "1",
        "--max-evals", "2000",
        "--epsilon-ceiling", "1e-12",
    )
    assert code == 3


@pytest.mark.parametrize(
    "where, field, unitary_drift",
    [
        pytest.param("hamiltonian", "rabi_hz", False, id="hamiltonian-rabi_hz"),
        pytest.param(None, "detuning_noise_hz", False, id="None-detuning_noise_hz"),
        pytest.param("hamiltonian", "rabi_hz", True, id="gamma0-drift-hamiltonian-rabi_hz"),
        pytest.param(None, "detuning_noise_hz", True, id="gamma0-drift-None-detuning_noise_hz"),
    ],
)
def test_overflowing_drive_exits_3(workspace, capsys, where, field, unitary_drift):
    # finite inputs whose step exp(L*dt) overflows to NaN, or, for a drift
    # record at gamma = 0, whose eigenbasis phase is far beyond float accuracy
    config = json.loads(workspace["config"].read_text())
    if unitary_drift:
        config.update(gamma_hz=0.0, detuning_noise_hz=10e3)
    (config[where] if where else config)[field] = 1e100
    workspace["config"].write_text(json.dumps(config))
    code = run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    )
    assert code == 3
    assert "dt = " in capsys.readouterr().err
    assert not workspace["record"].exists()


def test_bad_range_syntax_exits_2(workspace, tmp_path):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    code = run_cli(
        "sweep-gamma",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--windows", "10e-6;100e-6;10",
        "--gammas", "0:750:16",
        "--out", tmp_path / "s.csv",
    )
    assert code == 2


def _with_atoms(value):
    """Sidecar corruption: meta.config.atoms_per_shot set to value."""
    def corrupt(s):
        return {**s, "meta": {**s["meta"], "config": {**s["meta"]["config"], "atoms_per_shot": value}}}
    return corrupt


MALFORMED_INPUTS = {
    "model_gamma_list": ("model", lambda m: {**m, "gamma_hz": [1]}),
    "model_gamma_nan": ("model", lambda m: {**m, "gamma_hz": float("nan")}),
    "model_rabi_inf": (
        "model", lambda m: {**m, "hamiltonian": {**m["hamiltonian"], "rabi_hz": float("inf")}}
    ),
    "model_not_an_object": ("model", lambda m: [m]),
    "sidecar_dim_mismatch": ("sidecar", lambda s: {**s, "dim": 3}),
    "sidecar_meta_string": ("sidecar", lambda s: {**s, "meta": "abc"}),
    "sidecar_repeats_fractional": ("sidecar", lambda s: {**s, "repeats": 2.9}),
    "sidecar_config_string": ("sidecar", lambda s: {**s, "meta": {**s["meta"], "config": "abc"}}),
    "sidecar_atoms_string": ("sidecar", _with_atoms("abc")),
    "sidecar_atoms_bool": ("sidecar", _with_atoms(True)),
    "sidecar_atoms_fractional": ("sidecar", _with_atoms(2.5)),
    "sidecar_atoms_zero": ("sidecar", _with_atoms(0)),
    "sidecar_n_samples_mismatch": (
        "sidecar",
        lambda s: {**s, "meta": {**s["meta"], "config": {**s["meta"]["config"], "n_samples": 40}}},
    ),
    "sidecar_sample_interval_edited": (
        "sidecar",
        lambda s: {**s, "meta": {**s["meta"], "config": {**s["meta"]["config"], "sample_interval_s": 9e-6}}},
    ),
    "sidecar_unknown_key": ("sidecar", lambda s: {**s, "dims": 5}),
    "model_misspelled_keys": (
        "model",
        lambda m: {"hamiltonian": {"type": "ladder5", "rabi_hz": 6e4, "detla1": 3e3}, "gama_hz": 375.0},
    ),
    "model_gamma_numeric_string": ("model", lambda m: {**m, "gamma_hz": "375"}),
    "model_generic_bool_entries": (
        "model", lambda m: {**m, "hamiltonian": {"type": "generic", "real": [[False] * 5] * 5}}
    ),
    "model_generic_delta_units_int": (
        "model",
        lambda m: {**m, "hamiltonian": {"type": "generic", "real": [[0.0] * 5] * 5}, "delta_units": 7},
    ),
    "model_not_json": ("model", '{"gamma_hz": '),
    "model_hamiltonian_number": ("model", lambda m: {**m, "hamiltonian": 5}),
    "model_unknown_type": ("model", lambda m: {**m, "hamiltonian": {"type": "ladder7"}}),
    "model_generic_no_real": ("model", lambda m: {**m, "hamiltonian": {"type": "generic"}}),
    "model_generic_imag_shape": (
        "model",
        lambda m: {
            **m, "hamiltonian": {"type": "generic", "real": [[0.0] * 5] * 5, "imag": [[0.0] * 4] * 4}
        },
    ),
    "record_empty": ("record", ""),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(workspace, tmp_path, case):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    # a corruption is a function of the parsed file, or the file's new text
    which, corrupt = MALFORMED_INPUTS[case]
    path = {"model": workspace["model"], "record": workspace["record"]}.get(
        which, tmp_path / "rec.meta.json"
    )
    text = corrupt if isinstance(corrupt, str) else json.dumps(corrupt(json.loads(path.read_text())))
    path.write_text(text)
    code = run_cli(
        "reconstruct",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--out", tmp_path / "r.json",
        "--restarts", "1",
        "--max-evals", "200",
    )
    assert code == 2


@pytest.mark.parametrize("warnings", ["x", 3])
def test_sidecar_warnings_not_a_list_exits_2(workspace, tmp_path, warnings):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    # a zero sigma makes the loader append a floor warning
    header, first, *rest = workspace["record"].read_text().splitlines()
    first = first.rsplit(",", 1)[0] + ",0.0"
    workspace["record"].write_text("\n".join([header, first, *rest]) + "\n")
    side = tmp_path / "rec.meta.json"
    sidecar = json.loads(side.read_text())
    side.write_text(json.dumps({**sidecar, "meta": {**sidecar["meta"], "warnings": warnings}}))
    code = run_cli(
        "reconstruct",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--out", tmp_path / "r.json",
        "--restarts", "1",
        "--max-evals", "200",
    )
    assert code == 2


@pytest.mark.parametrize(
    "which, field, value",
    [
        ("schedule", "segments", 5),
        ("schedule", "segments", [5]),
        ("schedule", "initial_state", None),
        ("config", "noiseless", "false"),
        ("config", "noiseless", "no"),
        ("schedule", "initial_state", True),
        ("schedule", "initial_state", {"real": [[True] + [False] * 4] + [[False] * 5] * 4}),
        ("config", "hamiltonian", {"type": "generic", "real": [["0"] * 5] * 5}),
        ("schedule", "initial_state", {"dim": 3, "real": [[1.0] + [0.0] * 4] + [[0.0] * 5] * 4}),
    ],
)
def test_mistyped_simulate_input_exits_2(workspace, capsys, which, field, value):
    obj = json.loads(workspace[which].read_text())
    workspace[which].write_text(json.dumps({**obj, field: value}))
    code = run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    )
    assert code == 2
    assert field in capsys.readouterr().err
    assert not workspace["record"].exists()


@pytest.mark.parametrize("where", ["config", "simulate", "reconstruct"])
def test_negative_seed_exits_2(workspace, tmp_path, capsys, where):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    simulate = ["simulate", "--config", workspace["config"], "--state", workspace["schedule"],
                "--out", tmp_path / "again.csv"]
    if where == "config":
        config = json.loads(workspace["config"].read_text())
        workspace["config"].write_text(json.dumps({**config, "rng_seed": -1}))
        argv = simulate
    elif where == "simulate":
        argv = [*simulate, "--seed", "-1"]
    else:
        argv = ["reconstruct", "--record", workspace["record"], "--model", workspace["model"],
                "--out", tmp_path / "r.json", "--restarts", "1", "--seed", "-1"]
    assert run_cli(*argv) == 2
    assert "rng_seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, options, named",
    [
        ("sweep-gamma", ["--windows", "5e-6:17.4e-6:2", "--gammas", "0:inf:3"], "0:inf:3"),
        ("sweep-gamma", ["--windows", "5e-6:17.4e-6:2", "--gammas", "nan:750:3"], "nan:750:3"),
        ("sweep-gamma", ["--windows", "5e-6:inf:2", "--gammas", "0:750:3"], "5e-6:inf:2"),
        ("converge", ["--windows", "5.8e-6:nan:3"], "5.8e-6:nan:3"),
        ("reconstruct", ["--epsilon-ceiling", "nan"], "epsilon_ceiling"),
    ],
)
def test_non_finite_cli_number_exits_2(workspace, tmp_path, capsys, command, options, named):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    code = run_cli(
        command,
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--out", tmp_path / "out",
        "--restarts", "1",
        "--max-evals", "200",
        *options,
    )
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("n_samples", 16.7), ("repeats", True)])
def test_non_integral_config_count_exits_2(workspace, field, value):
    config = json.loads(workspace["config"].read_text())
    workspace["config"].write_text(json.dumps({**config, field: value}))
    code = run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    )
    assert code == 2
    assert not workspace["record"].exists()


def test_non_finite_state_exits_2(tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"real": [[float("nan"), 0.0], [0.0, 1.0]]}))
    assert run_cli("fidelity", "--a", bad, "--b", bad) == 2


def test_reconstruct_gamma_flag_sets_the_rate(workspace, tmp_path):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        "--noiseless",
    ) == 0
    code = run_cli(
        "reconstruct",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--gamma", "250",
        "--out", workspace["result"],
        "--max-evals", "500",
    )
    assert code == 0
    assert json.loads(workspace["result"].read_text())["gamma_used_hz"] == 250.0


def test_converge_defaults_to_every_record_time_after_the_first(workspace, tmp_path):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        "--noiseless",
    ) == 0
    out = tmp_path / "conv.csv"
    code = run_cli(
        "converge",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--out", out,
        "--max-evals", "200",
    )
    assert code == 0
    record = pt.load_record(workspace["record"])
    windows = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert windows == record.times[1:].tolist()


def test_reconstruct_reads_the_reference_before_it_solves(workspace, tmp_path, capsys):
    # a ceiling of 0 fails every solve (exit 3), so exit 2 shows that the
    # malformed reference stopped the command before the solve
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    bad = tmp_path / "bad_reference.json"
    bad.write_text(json.dumps({"initial_state": "mF=+9"}))
    code = run_cli(
        "reconstruct",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--reference", bad,
        "--epsilon-ceiling", "0",
        "--max-evals", "500",
        "--out", workspace["result"],
    )
    assert code == 2
    assert "initial_state" in capsys.readouterr().err
    assert not workspace["result"].exists()


def test_unparsable_range_number_exits_2(workspace, tmp_path, capsys):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    code = run_cli(
        "converge",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--windows", "1e-6:abc:3",
        "--out", tmp_path / "conv.csv",
    )
    assert code == 2
    assert "bad range" in capsys.readouterr().err
    assert not (tmp_path / "conv.csv").exists()


@pytest.mark.parametrize(
    "field, value, flags",
    [
        ("rng_seed", "abc", ["--seed", "3"]),
        ("noiseless", "yes", ["--noiseless"]),
    ],
)
def test_flag_does_not_hide_a_bad_config_field(workspace, capsys, field, value, flags):
    # a flag overrides a field only after the file's own value is checked
    config = json.loads(workspace["config"].read_text())
    workspace["config"].write_text(json.dumps({**config, field: value}))
    code = run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
        *flags,
    )
    assert code == 2
    assert field in capsys.readouterr().err
    assert not workspace["record"].exists()


VALID_CSV = b"time_s,p_1,sigma_1\n0.0,1.0,0.01\n1e-06,1.0,0.01\n"
UNREADABLE_INPUTS = {
    "record_missing": ("record", None),
    "record_directory": ("record", "directory"),
    "record_not_utf8": ("record", b"time_s,p_1,sigma_1\n0.0,\xff1.0,0.01\n"),
    "sidecar_not_utf8": ("sidecar", b'{"dim": 1\xff}'),
    "state_missing": ("state", None),
    "state_directory": ("state", "directory"),
    "state_not_utf8": ("state", b'{"real": [[1.0]]\xff}'),
    "state_nested_deep": ("state", b"[" * 200_000 + b"]" * 200_000),
    "state_integer_too_long": ("state", b'{"real": [[' + b"1" * 5000 + b"]]}"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_exits_2_naming_the_file(workspace, tmp_path, capsys, case):
    which, content = UNREADABLE_INPUTS[case]
    path = tmp_path / ("input.json" if which == "state" else "input.csv")
    bad = tmp_path / "input.meta.json" if which == "sidecar" else path
    if which == "sidecar":
        path.write_bytes(VALID_CSV)
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    if which == "state":
        argv = ["fidelity", "--a", path, "--b", path]
    else:
        argv = ["reconstruct", "--record", path, "--model", workspace["model"],
                "--out", tmp_path / "r.json", "--max-evals", "200"]
    assert run_cli(*argv) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("field", ["n_samples", "repeats", "atoms_per_shot"])
def test_count_beyond_int64_exits_2(workspace, capsys, field):
    config = json.loads(workspace["config"].read_text())
    workspace["config"].write_text(json.dumps({**config, field: 2**70}))
    code = run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    )
    assert code == 2
    assert field in capsys.readouterr().err
    assert not workspace["record"].exists()
