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
    from poptomo.serialize import save_state

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


def test_delta_units_flag_changes_model(workspace):
    from poptomo.serialize import load_model

    ordinary = load_model(workspace["model"], "ordinary")
    angular = load_model(workspace["model"], "angular")
    assert ordinary.hamiltonian.delta1 == pytest.approx(2 * np.pi * 3e3)
    assert angular.hamiltonian.delta1 == pytest.approx(3e3)
    assert ordinary.hamiltonian.rabi_omega == angular.hamiltonian.rabi_omega


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


MALFORMED_INPUTS = {
    "model_gamma_list": ("model", lambda m: {**m, "gamma_hz": [1]}),
    "model_gamma_nan": ("model", lambda m: {**m, "gamma_hz": float("nan")}),
    "model_rabi_inf": (
        "model", lambda m: {**m, "hamiltonian": {**m["hamiltonian"], "rabi_hz": float("inf")}}
    ),
    "model_not_an_object": ("model", lambda m: [m]),
    "sidecar_meta_string": ("sidecar", lambda s: {**s, "meta": "abc"}),
    "sidecar_repeats_fractional": ("sidecar", lambda s: {**s, "repeats": 2.9}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(workspace, tmp_path, case):
    assert run_cli(
        "simulate",
        "--config", workspace["config"],
        "--state", workspace["schedule"],
        "--out", workspace["record"],
    ) == 0
    which, corrupt = MALFORMED_INPUTS[case]
    path = workspace["model"] if which == "model" else tmp_path / "rec.meta.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    code = run_cli(
        "reconstruct",
        "--record", workspace["record"],
        "--model", workspace["model"],
        "--out", tmp_path / "r.json",
        "--restarts", "1",
        "--max-evals", "200",
    )
    assert code == 2


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
