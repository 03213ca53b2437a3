import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poptomo as pt
import oracles
from poptomo.experiment import (
    config_to_dict,
    load_experiment_config,
    load_model,
    load_state_or_schedule,
    save_reconstruction,
    save_state,
)
from poptomo.records import matrix_to_parts, write_json

TWO_PI = 2.0 * np.pi


class TestSynthesizeRecord:
    def test_noiseless_means_are_exact(self, ladder_model):
        rng = np.random.default_rng(0)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        cfg = pt.ExperimentConfig(
            hamiltonian=ladder_model.hamiltonian,
            gamma=ladder_model.gamma,
            noiseless=True,
        )
        record = pt.synthesize_record(rho, cfg)
        predictor = pt.PopulationPredictor(ladder_model, record.times)
        np.testing.assert_array_equal(
            record.means, predictor.populations(pt.vectorize(rho.matrix))
        )
        assert np.all(record.sigmas == pt.shot_noise_floor(5, 80_000))

    def test_stationary_basis_state_with_drive_off(self):
        cfg = pt.ExperimentConfig(hamiltonian=pt.Ladder5(0.0, 0.0, 0.0), rng_seed=1)
        record = pt.synthesize_record(pt.DensityMatrix.basis_state(5, 0), cfg)
        expected = np.zeros((5, 16))
        expected[0] = 1.0
        np.testing.assert_array_equal(record.means, expected)
        assert np.all(record.sigmas == pt.shot_noise_floor(5, 80_000))

    def test_column_sums_and_sigma_scale(self, ladder):
        cfg = pt.ExperimentConfig(hamiltonian=ladder, gamma=0.0, rng_seed=2)
        record = pt.synthesize_record(pt.DensityMatrix.basis_state(5, 0), cfg)
        sums = record.means.sum(axis=0)
        assert np.all((sums > 0.98) & (sums < 1.02))
        # where populations are far from 0/1 the sample std should sit
        # within a factor 2 of the binomial prediction on most cells
        p = record.means
        binomial = np.sqrt(p * (1.0 - p) / cfg.atoms_per_shot)
        mask = (p > 0.1) & (p < 0.9)
        ratio = record.sigmas[mask] / binomial[mask]
        assert np.median(ratio) < 2.0
        assert np.median(ratio) > 0.5

    def test_deterministic_under_seed(self, ladder):
        rng = np.random.default_rng(3)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        cfg = pt.ExperimentConfig(hamiltonian=ladder, gamma=120.0, rng_seed=42)
        a = pt.synthesize_record(rho, cfg)
        b = pt.synthesize_record(rho, cfg)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.sigmas, b.sigmas)

    def test_emitted_record_reloads_cleanly(self, tmp_path, ladder):
        rng = np.random.default_rng(4)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        cfg = pt.ExperimentConfig(hamiltonian=ladder, gamma=50.0, rng_seed=5)
        record = pt.synthesize_record(rho, cfg)
        path = tmp_path / "rec.csv"
        pt.save_record(record, path)
        back = pt.load_record(path)
        np.testing.assert_array_equal(back.means, record.means)
        assert back.meta["config"]["gamma_hz"] == 50.0
        assert "true_state" in back.meta

    def test_detuning_noise_requires_ladder(self):
        h = pt.GenericHamiltonian(np.zeros((3, 3), dtype=complex))
        cfg = pt.ExperimentConfig(
            hamiltonian=h, detuning_noise=TWO_PI * 500.0, rng_seed=6
        )
        with pytest.raises(pt.ValidationError):
            pt.synthesize_record(pt.DensityMatrix.maximally_mixed(3), cfg)

    def test_detuning_noise_spreads_sigmas(self, ladder, pi_half_state):
        quiet = pt.ExperimentConfig(hamiltonian=ladder, rng_seed=7, n_samples=40)
        noisy = pt.ExperimentConfig(
            hamiltonian=ladder,
            rng_seed=7,
            n_samples=40,
            detuning_noise=TWO_PI * 10e3,
        )
        rec_q = pt.synthesize_record(pi_half_state, quiet)
        rec_n = pt.synthesize_record(pi_half_state, noisy)
        assert rec_n.sigmas[:, 10:].mean() > 2.0 * rec_q.sigmas[:, 10:].mean()

    def test_config_validation(self, ladder):
        with pytest.raises(pt.ValidationError):
            pt.ExperimentConfig(hamiltonian=ladder, n_samples=1)
        with pytest.raises(pt.ValidationError):
            pt.ExperimentConfig(hamiltonian=ladder, sample_interval=0.0)
        with pytest.raises(pt.ValidationError):
            pt.ExperimentConfig(hamiltonian=ladder, repeats=0)
        with pytest.raises(pt.ValidationError, match="rng_seed"):
            pt.ExperimentConfig(hamiltonian=ladder, rng_seed=-1)
        with pytest.raises(pt.ValidationError, match="atoms_per_shot"):
            pt.ExperimentConfig(hamiltonian=ladder, atoms_per_shot=0)
        with pytest.raises(pt.ValidationError, match="detuning_noise"):
            pt.ExperimentConfig(hamiltonian=ladder, detuning_noise=-1.0)
        with pytest.raises(pt.InvalidState, match="dim"):
            pt.synthesize_record(pt.DensityMatrix.maximally_mixed(3), pt.ExperimentConfig(ladder))

    @pytest.mark.parametrize("field", ["n_samples", "repeats", "atoms_per_shot"])
    def test_counts_beyond_int64_rejected(self, ladder, field):
        # numpy's sampler and array sizes stop at the int64 maximum
        for value in (2**63, 2**70):
            with pytest.raises(pt.ValidationError, match=field):
                pt.ExperimentConfig(hamiltonian=ladder, **{field: value})

    @pytest.mark.parametrize(
        "counts", [{"n_samples": 2**60}, {"n_samples": 2**61}, {"repeats": 2**61}]
    )
    def test_shots_beyond_the_largest_array_rejected(self, ladder, counts):
        # n_samples * repeats * dim float64 values must fit one numpy array
        with pytest.raises(pt.ValidationError, match="shots exceed"):
            pt.ExperimentConfig(hamiltonian=ladder, **counts)

    def test_largest_addressable_shot_count_accepted(self, ladder):
        largest = np.iinfo(np.intp).max // (8 * 5)
        pt.ExperimentConfig(hamiltonian=ladder, n_samples=largest, repeats=1)
        pt.ExperimentConfig(hamiltonian=ladder, n_samples=2, repeats=largest // 2)
        pt.ExperimentConfig(hamiltonian=ladder, atoms_per_shot=2**63 - 1)
        with pytest.raises(pt.ValidationError, match="shots exceed"):
            pt.ExperimentConfig(hamiltonian=ladder, n_samples=largest + 1, repeats=1)

    def test_largest_atom_count_synthesizes(self, ladder, pi_half_state):
        cfg = pt.ExperimentConfig(hamiltonian=ladder, n_samples=2, repeats=2, atoms_per_shot=2**63 - 1)
        record = pt.synthesize_record(pi_half_state, cfg)
        assert np.all(np.isfinite(record.means))


NON_FINITE_FIELDS = [
    (kind, field, value)
    for kind, fields in (
        ("config", ("gamma", "sample_interval", "detuning_noise")),
        ("segment", ("duration", "omega", "delta1", "delta2", "gamma")),
    )
    for field in fields
    for value in (math.inf, math.nan)
]


@pytest.mark.parametrize("kind, field, value", NON_FINITE_FIELDS)
def test_non_finite_field_rejected(ladder, kind, field, value):
    with pytest.raises(pt.ValidationError, match=field):
        if kind == "config":
            pt.ExperimentConfig(hamiltonian=ladder, **{field: value})
        else:
            pt.PulseSegment(**{"duration": 1e-6, "omega": 1.0, field: value})


SAMPLER_CASES = {
    "plain": (5, {}),
    "noiseless": (5, {"noiseless": True}),
    "one_repeat": (5, {"repeats": 1}),
    "drift": (5, {"detuning_noise": TWO_PI * 10e3, "n_samples": 20, "repeats": 4}),
    "drift_noiseless": (
        5,
        {"detuning_noise": TWO_PI * 10e3, "n_samples": 20, "repeats": 4, "noiseless": True},
    ),
    "generic_dim3": (3, {"n_samples": 24, "sample_interval": 0.73e-6}),
    "drift_gamma0": (
        5,
        {"detuning_noise": TWO_PI * 10e3, "n_samples": 20, "repeats": 4, "gamma": 0.0},
    ),
    "drift_one_repeat": (5, {"detuning_noise": TWO_PI * 10e3, "n_samples": 20, "repeats": 1}),
    "drift_gamma0_benchmark_shape": (
        5,
        {"detuning_noise": TWO_PI * 10e3, "n_samples": 87, "repeats": 25, "gamma": 0.0},
    ),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_matches_reference_loops(case, ladder):
    """One vectorised draw reproduces the per-column and per-shot loops bit for bit.

    Every record array is F-ordered, whichever path drew it.
    """
    dim, kwargs = SAMPLER_CASES[case]
    rng = np.random.default_rng(11)
    if dim == 5:
        hamiltonian = ladder
    else:
        hamiltonian = pt.GenericHamiltonian(oracles.random_hermitian(rng, dim, TWO_PI * 40e3))
    rho = pt.DensityMatrix(oracles.random_density(rng, dim))
    cfg = pt.ExperimentConfig(hamiltonian=hamiltonian, **{"gamma": 375.0, "rng_seed": 12, **kwargs})
    record = pt.synthesize_record(rho, cfg)
    means, sigmas = oracles.reference_record(rho, cfg)
    for got, want in ((record.means, means), (record.sigmas, sigmas)):
        np.testing.assert_array_equal(got, want)
        assert got.flags.f_contiguous


def test_noiseless_unitary_drift_record_within_rounding(ladder):
    """At gamma = 0 the drift populations come from eigh, not expm.

    The noiseless record then differs from the per-shot expm loop by
    rounding alone, and its t = 0 column not at all.
    """
    rng = np.random.default_rng(11)
    rho = pt.DensityMatrix(oracles.random_density(rng, 5))
    cfg = pt.ExperimentConfig(
        hamiltonian=ladder,
        gamma=0.0,
        detuning_noise=TWO_PI * 10e3,
        n_samples=87,
        repeats=25,
        noiseless=True,
        rng_seed=12,
    )
    record = pt.synthesize_record(rho, cfg)
    means, sigmas = oracles.reference_record(rho, cfg)
    np.testing.assert_allclose(record.means, means, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(record.sigmas, sigmas, rtol=0.0, atol=1e-13)
    np.testing.assert_array_equal(record.means[:, 0], means[:, 0])


def test_non_finite_shifted_detuning_rejected(ladder):
    # offsets of order 1e308 overflow delta1 + xi or delta2 + 2 xi for some shot
    cfg = pt.ExperimentConfig(hamiltonian=ladder, detuning_noise=1e308, rng_seed=3)
    with pytest.raises(pt.ValidationError, match="non-finite"):
        pt.synthesize_record(pt.DensityMatrix.basis_state(5, 0), cfg)


@pytest.mark.parametrize("gamma", [0.0, 375.0])
def test_drift_synthesis_peak_memory(ladder, pi_half_state, gamma):
    """Drift synthesis at the benchmark's shape (87 points x 25 repeats) allocates under 2 MB.

    Both paths work one time column at a time: the stacked step (gamma > 0)
    peaks near 1 MB, the eigenbasis (gamma = 0) near 0.4 MB.  A stack per
    repeat (87 slices) measured 5.95 MB, and one stack over the whole
    record raised the benchmark's peak RSS from 64 to 125 MB.
    """
    cfg = pt.ExperimentConfig(
        hamiltonian=ladder,
        gamma=gamma,
        n_samples=87,
        repeats=25,
        detuning_noise=TWO_PI * 10e3,
        rng_seed=9,
    )
    pt.synthesize_record(pi_half_state, cfg)  # lazy imports and caches allocate once
    tracemalloc.start()
    try:
        pt.synthesize_record(pi_half_state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# four detuned pulses from mF=+2: (duration s, delta1 Hz, delta2 Hz) at the reference Rabi frequency
SCHEDULE = ((1.7e-6, 4e3, -9e3), (2.9e-6, -12e3, 6e3), (1.2e-6, 14e3, 2e3), (3.6e-6, -7e3, -13e3))
RECORD_SHAPES = {
    "plain": dict(gamma=375.0, rng_seed=5),
    "drift-unitary": dict(gamma=0.0, repeats=25, detuning_noise=TWO_PI * 10e3, rng_seed=6),
    "drift-damped": dict(gamma=375.0, repeats=25, detuning_noise=TWO_PI * 10e3, rng_seed=7),
}
RECORD_DIGESTS = {
    ("pi-half", "plain"):
        "aa6f7d62530885c379e435432b148ca4642e1777163b4aa3c3839f178306a28c",
    ("pi-half", "drift-unitary"):
        "63d084c48757506004b3be7ce4223ced426e2158dc5b07d260e74d53f6d3aaac",
    ("pi-half", "drift-damped"):
        "09e960a5e9db3263e1ca8f368df5e7ac01caa6c8d5f34184508964c45a4ca578",
    ("schedule", "plain"):
        "5566b4769ee5db776482c9383295712ca32a52f71148a0b02b3a9f77f010dc05",
    ("schedule", "drift-unitary"):
        "022c504cbf7d7859f78710f67cd56d2cee209ddaaed9b05bf8e2942c4056b162",
    ("schedule", "drift-damped"):
        "184b2bea9a1e61548e56f61c135a1558aa1f923356faf4d29210f29140c66889",
}


@pytest.mark.parametrize("state, shape", sorted(RECORD_DIGESTS))
def test_noisy_record_bytes_are_pinned(ladder, pi_half_state, state, shape):
    """sha256 of a noisy record's times, means and sigmas, in that order.

    A noisy record is multinomial counts, so a change to the propagation
    that moves populations by rounding keeps its bytes unless a count sits
    on a sampler threshold.  Noiseless records are left out: their means
    are the populations themselves and move with any rounding change.
    """
    if state == "pi-half":
        rho = pi_half_state
    else:
        segments = [pt.PulseSegment(duration, ladder.rabi_omega, TWO_PI * d1, TWO_PI * d2)
                    for duration, d1, d2 in SCHEDULE]
        initial = pt.DensityMatrix.basis_state(5, 0)
        rho = pt.run_preparation(pt.PreparationSchedule(initial, segments))
    cfg = pt.ExperimentConfig(hamiltonian=ladder, n_samples=87, **RECORD_SHAPES[shape])
    record = pt.synthesize_record(rho, cfg)
    digest = hashlib.sha256()
    for part in (record.times, record.means, record.sigmas):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == RECORD_DIGESTS[state, shape]


@pytest.mark.parametrize("omega", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_pi_half_duration_needs_a_finite_nonzero_rabi_frequency(omega):
    with pytest.raises(pt.ValidationError, match="Rabi frequency"):
        pt.pi_half_duration(omega)


class TestPreparation:
    def test_empty_schedule_returns_initial(self):
        rho = pt.DensityMatrix.basis_state(5, 0)
        schedule = pt.PreparationSchedule(initial_state=rho)
        assert pt.run_preparation(schedule) is rho

    def test_half_pulse_segment_matches_binomial(self, ladder):
        # resonant pi/2 rotation of a spin-2 stretched state: populations
        # are binomial(4, k) / 16
        omega = ladder.rabi_omega
        schedule = pt.PreparationSchedule(
            initial_state=pt.DensityMatrix.basis_state(5, 0),
            segments=[
                pt.PulseSegment(duration=pt.pi_half_duration(omega), omega=omega)
            ],
        )
        out = pt.run_preparation(schedule)
        np.testing.assert_allclose(
            oracles.populations(out), np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-10
        )

    def test_two_segments_compose(self, ladder):
        seg1 = pt.PulseSegment(duration=2e-6, omega=ladder.rabi_omega, delta1=ladder.delta1)
        seg2 = pt.PulseSegment(duration=3e-6, omega=0.5 * ladder.rabi_omega, gamma=200.0)
        rho0 = pt.DensityMatrix.basis_state(5, 0)
        schedule = pt.PreparationSchedule(initial_state=rho0, segments=[seg1, seg2])
        via_schedule = pt.run_preparation(schedule)
        step1 = pt.prepare_pulse_state(
            rho0,
            pt.EvolutionModel(hamiltonian=pt.Ladder5(seg1.omega, seg1.delta1, 0.0)),
            seg1.duration,
        )
        step2 = pt.prepare_pulse_state(
            step1,
            pt.EvolutionModel(
                hamiltonian=pt.Ladder5(seg2.omega, 0.0, 0.0), gamma=seg2.gamma
            ),
            seg2.duration,
        )
        np.testing.assert_array_equal(via_schedule.matrix, step2.matrix)

    def test_negative_duration_rejected(self):
        with pytest.raises(pt.ValidationError):
            pt.PulseSegment(duration=-1e-6, omega=1.0)

    def test_basis_names(self):
        from poptomo.experiment import basis_state_index

        assert basis_state_index("mF=+2") == 0
        assert basis_state_index("mF=-2") == 4
        assert basis_state_index(3) == 3
        with pytest.raises(pt.ValidationError):
            basis_state_index("mF=+3")
        with pytest.raises(pt.ValidationError):
            basis_state_index(7)
        with pytest.raises(pt.ValidationError):
            basis_state_index(True)


@pytest.mark.parametrize(
    "fields",
    [
        {"delta1": 3e3, "delta2": 11e3},
        {"delta1_rad_s": 2e4, "delta2_rad_s": 7e4},
        {"delta1_rad_s": 2e4},
    ],
)
def test_segment_reads_the_drive_a_model_reads(tmp_path, fields):
    drive = {"rabi_hz": 60e3, **fields}
    write_json(tmp_path / "model.json", {"hamiltonian": {"type": "ladder5", **drive}})
    segment = {"duration_s": 2e-6, **drive}
    write_json(tmp_path / "prep.json", {"initial_state": "mF=+2", "segments": [segment]})
    h = load_model(tmp_path / "model.json").hamiltonian
    assert h.delta1 != 0.0
    want = pt.run_preparation(
        pt.PreparationSchedule(
            initial_state=pt.DensityMatrix.basis_state(5, 0),
            segments=[pt.PulseSegment(2e-6, h.rabi_omega, h.delta1, h.delta2)],
        )
    )
    got = load_state_or_schedule(tmp_path / "prep.json")
    assert got.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize(
    "fields",
    [
        {"delta1": 3e3, "delta2_rad_s": 5.0},
        {"delta1_rad_s": 2e4, "delta2": 11e3},
        {"delta1": 3e3, "delta2": 11e3, "delta1_rad_s": 2e4, "delta2_rad_s": 7e4},
    ],
)
def test_mixed_detuning_spellings_rejected(tmp_path, fields):
    # the ordinary pair must not be dropped in silence, in a model or a segment
    drive = {"rabi_hz": 60e3, **fields}
    write_json(tmp_path / "model.json", {"hamiltonian": {"type": "ladder5", **drive}})
    write_json(tmp_path / "prep.json", {"initial_state": "mF=+2", "segments": [{"duration_s": 2e-6, **drive}]})
    with pytest.raises(pt.SchemaError, match="^delta1_rad_s: give delta1/delta2 or"):
        load_model(tmp_path / "model.json")
    with pytest.raises(pt.SchemaError, match="^delta1_rad_s: give delta1/delta2 or"):
        load_state_or_schedule(tmp_path / "prep.json")


@pytest.mark.parametrize(
    "fields, want",
    [
        ({"delta1": 3e3, "delta2": 11e3}, (3e3 * (2.0 * math.pi), 11e3 * (2.0 * math.pi))),
        ({"delta2": 11e3}, (0.0, 11e3 * (2.0 * math.pi))),
        ({"delta1_rad_s": 2e4, "delta2_rad_s": 7e4}, (2e4, 7e4)),
        ({"delta2_rad_s": 7e4}, (0.0, 7e4)),
    ],
)
def test_single_detuning_spelling_values(tmp_path, fields, want):
    write_json(tmp_path / "model.json", {"hamiltonian": {"type": "ladder5", "rabi_hz": 60e3, **fields}})
    h = load_model(tmp_path / "model.json").hamiltonian
    assert (repr(h.delta1), repr(h.delta2)) == tuple(map(repr, want))


LADDER = {"type": "ladder5", "rabi_hz": 60e3, "delta1": 3e3, "delta2": 11e3}
STATE = {"dim": 5, **matrix_to_parts(np.eye(5) / 5)}
UNKNOWN_KEYS = [
    # (loader, file, the field its error names)
    (load_model, {"hamiltonian": {**LADDER, "detla1": 3e3}, "gama_hz": 375.0}, "model.gama_hz"),
    (load_model, {"hamiltonian": {**LADDER, "detla1": 3e3}}, "hamiltonian.detla1"),
    (load_model, {"hamiltonian": LADDER, "delta_units": "angular"}, "model.delta_units"),
    (load_model, {"hamiltonian": {"type": "generic", "real": [[0.0]], "rabi_hz": 1.0}}, "hamiltonian.rabi_hz"),
    (load_experiment_config, {"hamiltonian": LADDER, "delta_units": "angular"}, "config.delta_units"),
    (load_experiment_config, {"hamiltonian": LADDER, "sample_interval": 1e-6}, "config.sample_interval"),
    (load_state_or_schedule, {"initial_state": "mF=+2", "delta_units": "angular"}, "schedule.delta_units"),
    (
        load_state_or_schedule,
        {"initial_state": "mF=+2", "segments": [{"duration_s": 1e-6, "rabi_hz": 60e3, "gamma": 1.0}]},
        "segments[0].gamma",
    ),
    (load_state_or_schedule, {"initial_state": {**STATE, "trace": 1.0}}, "initial_state.trace"),
    (load_state_or_schedule, {**STATE, "note": "x"}, "state.note"),
    (load_state_or_schedule, {"rho0": {**STATE, "epsilon": 0.0}}, "rho0.epsilon"),
]


@pytest.mark.parametrize("load, obj, field", UNKNOWN_KEYS, ids=[case[2] for case in UNKNOWN_KEYS])
def test_unknown_key_rejected(tmp_path, load, obj, field):
    write_json(tmp_path / "f.json", obj)
    with pytest.raises(pt.SchemaError, match=f"^{re.escape(field)}: unknown key$"):
        load(tmp_path / "f.json")


def test_plain_input_files_load_unchanged(tmp_path, ladder, ladder_model):
    # the config, model and schedule the benchmark's synthesize_io workload writes
    write_json(tmp_path / "config.json", {
        "hamiltonian": LADDER, "gamma_hz": 375.0, "sample_interval_s": 1.16e-6,
        "n_samples": 16, "repeats": 5, "atoms_per_shot": 80000, "rng_seed": 0,
    })
    write_json(tmp_path / "model.json", {"hamiltonian": LADDER, "gamma_hz": 375.0})
    segment = {"duration_s": 0.25 / 60e3, "rabi_hz": 60e3, "delta1": 0, "delta2": 0}
    write_json(tmp_path / "prep.json", {"initial_state": "mF=+2", "segments": [segment]})
    cfg = load_experiment_config(tmp_path / "config.json")
    assert cfg == pt.ExperimentConfig(hamiltonian=ladder, gamma=375.0, n_samples=16, repeats=5)
    assert load_model(tmp_path / "model.json") == ladder_model
    rho = load_state_or_schedule(tmp_path / "prep.json")
    want = pt.run_preparation(pt.PreparationSchedule(
        pt.DensityMatrix.basis_state(5, 0), [pt.PulseSegment(0.25 / 60e3, TWO_PI * 60e3)]
    ))
    assert rho.matrix.tobytes() == want.matrix.tobytes()
    # and a saved result gives back its state
    record = pt.synthesize_record(rho, dataclasses.replace(cfg, noiseless=True))
    result = pt.reconstruct(record, ladder_model, pt.SubplexConfig(pt.SimplexConfig(max_evals=300)))
    save_reconstruction(result, tmp_path / "result.json")
    assert load_state_or_schedule(tmp_path / "result.json").matrix.tobytes() == result.rho0.matrix.tobytes()


@pytest.mark.parametrize("dim", [3, 6, 5.5, "five", True])
@pytest.mark.parametrize("where", ["state", "rho0"])
def test_state_file_dim_must_match_the_matrix(tmp_path, where, dim):
    def state_file(parts):
        write_json(tmp_path / "s.json", parts if where == "state" else {"rho0": parts})
        return tmp_path / "s.json"

    parts = matrix_to_parts(np.eye(5) / 5)
    assert load_state_or_schedule(state_file({"dim": 5, **parts})).dim == 5
    with pytest.raises(pt.SchemaError, match=rf"{where}\.dim"):
        load_state_or_schedule(state_file({"dim": dim, **parts}))
    # a part that is not a matrix is still the state's own error
    with pytest.raises(pt.DimensionMismatch):
        load_state_or_schedule(state_file({"dim": 1, "real": 1.0}))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# 2*pi-scaled fields are drawn in Hz, as a file gives them: (x / 2pi) * 2pi is
# not always x, but it was for every x = 2pi * hz of 1e8 random mantissas
HZ = st.floats(-1e300, 1e300, allow_subnormal=False)


@st.composite
def experiment_configs(draw):
    if draw(st.booleans()):
        hamiltonian = pt.Ladder5(TWO_PI * draw(HZ), draw(FINITE), draw(FINITE))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        entries = oracles.random_hermitian(rng, draw(st.integers(1, 9)), draw(st.floats(0.0, 1e12)))
        hamiltonian = pt.GenericHamiltonian(entries)
    n_samples = draw(st.integers(2, 2**53))
    # every shot of the record must fit one float64 array
    max_shots = np.iinfo(np.intp).max // (8 * hamiltonian.dim)
    return pt.ExperimentConfig(
        hamiltonian=hamiltonian,
        gamma=draw(FINITE),
        sample_interval=draw(st.floats(5e-324, 1e300)),
        n_samples=n_samples,
        repeats=draw(st.integers(1, min(2**53, max_shots // n_samples))),
        atoms_per_shot=draw(st.integers(1, 2**53)),
        rng_seed=draw(st.integers(0, 2**64 - 1)),
        noiseless=draw(st.booleans()),
        detuning_noise=TWO_PI * draw(st.floats(0.0, 1e300, allow_subnormal=False)),
    )


class TestFileRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(cfg=experiment_configs())
    def test_config_reads_back_equal(self, tmp_path_factory, cfg):
        path = tmp_path_factory.getbasetemp() / "config.json"
        write_json(path, config_to_dict(cfg))
        back = load_experiment_config(path)
        if isinstance(cfg.hamiltonian, pt.GenericHamiltonian):
            assert back.hamiltonian.entries.tobytes() == cfg.hamiltonian.entries.tobytes()
            back = dataclasses.replace(back, hamiltonian=cfg.hamiltonian)
        assert back == cfg

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 9),
        kind=st.sampled_from(["mixed", "pure", "basis"]),
    )
    def test_state_reads_back_bit_identical(self, tmp_path_factory, seed, dim, kind):
        rng = np.random.default_rng(seed)
        if kind == "basis":
            rho = pt.DensityMatrix.basis_state(dim, seed % dim)
        else:
            make = oracles.random_density if kind == "mixed" else oracles.random_pure_density
            rho = pt.DensityMatrix(make(rng, dim))
        path = tmp_path_factory.getbasetemp() / "state.json"
        save_state(rho, path)
        back = load_state_or_schedule(path)
        assert back.matrix.dtype == rho.matrix.dtype
        assert back.matrix.tobytes() == rho.matrix.tobytes()
