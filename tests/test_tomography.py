import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import poptomo as pt
import poptomo.records as records
import poptomo.tomography as tomography
import oracles
from conftest import quick_subplex

TWO_PI = 2.0 * np.pi


def make_record(model, rho_true, n_samples=16, seed=0, noiseless=True, **kwargs):
    cfg = pt.ExperimentConfig(
        hamiltonian=model.hamiltonian,
        gamma=model.gamma,
        n_samples=n_samples,
        rng_seed=seed,
        noiseless=noiseless,
        **kwargs,
    )
    return pt.synthesize_record(rho_true, cfg)


class TestWeightedError:
    def test_true_state_on_noiseless_record(self, ladder_model):
        rng = np.random.default_rng(0)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho)
        assert pt.weighted_error(rho, record, ladder_model) <= 1e-10

    def test_closed_form_two_sided_deviation(self):
        # Static populations (H=0), uniform sigma=1, two sublevels off by
        # +/- 0.1 at every time: each contributes 0.1, so eps = 0.2 / 5.
        model = pt.EvolutionModel(
            hamiltonian=pt.GenericHamiltonian(np.zeros((5, 5), dtype=complex)),
            gamma=0.0,
        )
        rho = pt.DensityMatrix.maximally_mixed(5)
        times = np.arange(4) * 1e-6
        means = np.tile(np.array([0.3, 0.1, 0.2, 0.2, 0.2])[:, None], (1, 4))
        record = pt.MeasurementRecord(
            times=times, means=means, sigmas=np.ones((5, 4)), repeats=1
        )
        eps = pt.weighted_error(rho, record, model)
        assert eps == pytest.approx(0.2 / 5.0, abs=1e-12)

    def test_matches_reference_formula(self, ladder_model):
        rng = np.random.default_rng(1)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho, noiseless=False, seed=3)
        predictor = pt.PopulationPredictor(ladder_model, record.times)
        predicted = predictor.populations(pt.vectorize(rho.matrix))
        expected = oracles.weighted_error_reference(
            predicted, record.means, record.sigmas
        )
        assert pt.weighted_error(rho, record, ladder_model) == pytest.approx(
            expected, abs=1e-14
        )

    def test_bit_equal_across_record_layouts(self, ladder_model):
        # drift synthesis, truncation and a C-ordered copy must not change
        # how the weight sums along time round
        rng = np.random.default_rng(0)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(
            ladder_model, rho, n_samples=87, noiseless=False, repeats=25,
            detuning_noise=TWO_PI * 1e3,
        )
        c_ordered = pt.MeasurementRecord(
            times=record.times,
            means=np.ascontiguousarray(record.means),
            sigmas=np.ascontiguousarray(record.sigmas),
            repeats=record.repeats,
        )
        errors = [
            pt.weighted_error(rho, r, ladder_model)
            for r in (record, pt.truncate_record(record, record.span), c_ordered)
        ]
        assert errors[0] == errors[1] == errors[2]

    def test_grid_mismatch(self, ladder_model):
        # pi * 1e-6 shares no grid step with the other times
        times = np.array([0.0, 1.0e-6, 2.0e-6, np.pi * 1e-6])
        means = np.tile(np.full((5, 1), 0.2), (1, 4))
        record = pt.MeasurementRecord(
            times=times, means=means, sigmas=np.full((5, 4), 0.01)
        )
        rho = pt.DensityMatrix.maximally_mixed(5)
        with pytest.raises(pt.GridMismatch):
            pt.weighted_error(rho, record, ladder_model)
        with pytest.raises(pt.GridMismatch, match="sorted"):
            pt.PopulationPredictor(ladder_model, times[::-1])

    def test_dimension_mismatch(self, ladder_model):
        rho3 = pt.DensityMatrix.maximally_mixed(3)
        record = make_record(ladder_model, pt.DensityMatrix.maximally_mixed(5))
        with pytest.raises(pt.DimensionMismatch):
            pt.weighted_error(rho3, record, ladder_model)


class TestStateMap:
    def test_identity_factor_gives_maximally_mixed(self):
        rho = pt.params_to_rho(np.array([1.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-15)

    def test_single_entry_factor_gives_pure_state(self):
        rho = pt.params_to_rho(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            rho.matrix, pt.DensityMatrix.basis_state(2, 0).matrix, atol=1e-15
        )

    def test_random_params_give_valid_spectra(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rho = pt.params_to_rho(rng.standard_normal(25))
            eigs = np.linalg.eigvalsh(rho.matrix)
            assert eigs[0] >= -1e-12
            assert eigs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_totality_over_wild_scales(self):
        rng = np.random.default_rng(1)
        scales = np.array([1e-8, 1e-3, 1.0, 1e4, 1e8])
        for i in range(2000):
            values = rng.standard_normal(25) * scales[i % scales.size]
            rho = pt.params_to_rho(values)
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    def test_gauge_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            values = rng.standard_normal(25)
            base = pt.params_to_rho(values)
            for c in (-3.0, 0.1, 7.0):
                scaled = pt.params_to_rho(c * values)
                assert np.abs(scaled.matrix - base.matrix).max() < 1e-12

    def test_round_trip_maximally_mixed(self):
        rho = pt.DensityMatrix.maximally_mixed(5)
        back = pt.params_to_rho(pt.rho_to_params(rho))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-12

    def test_round_trip_random_full_rank(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = pt.DensityMatrix(oracles.random_density(rng, 5))
            back = pt.params_to_rho(pt.rho_to_params(rho))
            assert np.abs(back.matrix - rho.matrix).max() < 1e-9

    def test_round_trip_pure_state_uses_jitter(self):
        rho = pt.DensityMatrix.basis_state(5, 0)
        back = pt.params_to_rho(pt.rho_to_params(rho))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-9

    @pytest.mark.parametrize("lowest", [-5e-11, -1e-9])
    def test_slightly_indefinite_state_factors(self, lowest):
        # DensityMatrix accepts eigenvalues down to -1e-10, evolve's states down to -1e-8
        rng = np.random.default_rng(5)
        u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        m = (u * [lowest, 0.1, 0.2, 0.3, 0.4 - lowest]) @ u.conj().T
        rho = pt.DensityMatrix(0.5 * (m + m.conj().T), psd_atol=1e-8)
        assert np.linalg.eigvalsh(rho.matrix)[0] < 0.0
        back = pt.params_to_rho(pt.rho_to_params(rho))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-8

    def test_factor_has_positive_diagonal(self):
        rng = np.random.default_rng(4)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        values = pt.rho_to_params(rho)
        assert np.all(values[:5] > 0.0)

    def test_all_zero_params_rejected(self):
        with pytest.raises(pt.DegenerateParams):
            pt.params_to_rho(np.zeros(9))

    def test_non_finite_params_rejected(self):
        values = np.ones(9)
        values[4] = np.nan
        with pytest.raises(pt.DegenerateParams):
            pt.params_to_rho(values)

    def test_wrong_length_rejected(self):
        with pytest.raises(pt.DimensionMismatch):
            pt.params_to_rho(np.ones(8))


def random_kernel_case(seed, dim, n_times=9):
    """Cost kernel on a random model and a noisy record of an unrelated state."""
    rng = np.random.default_rng(seed)
    model = pt.EvolutionModel(
        hamiltonian=pt.GenericHamiltonian(oracles.random_hermitian(rng, dim, TWO_PI * 40e3)),
        gamma=rng.uniform(0.0, 600.0),
    )
    times = np.arange(n_times) * 1.16e-6
    predictor = pt.PopulationPredictor(model, times)
    truth = pt.vectorize(oracles.random_density(rng, dim))
    means = predictor.populations(truth) + rng.normal(0.0, 0.003, (dim, n_times))
    means /= means.sum(axis=0)
    record = pt.MeasurementRecord(
        times=times, means=means, sigmas=rng.uniform(1e-3, 2e-2, (dim, n_times))
    )
    return predictor, record, tomography._WeightedCost(predictor, record)


class TestCostKernel:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
    def test_matches_reference_path(self, seed, dim):
        predictor, record, cost = random_kernel_case(seed, dim)
        values = np.random.default_rng(seed).standard_normal(dim * dim)
        rho = pt.params_to_rho(values)
        predicted = predictor.populations(pt.vectorize(rho.matrix))
        expected = oracles.weighted_error_reference(predicted, record.means, record.sigmas)
        assert cost(values) == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert cost.certificate(rho.matrix)[0] == pytest.approx(expected, rel=1e-13, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
    def test_gauge_scaling_is_exact(self, seed, dim):
        _, _, cost = random_kernel_case(seed, dim)
        values = np.random.default_rng(seed).standard_normal(dim * dim)
        f = cost(values)
        assert cost(2.0 * values) == f
        assert cost(0.5 * values) == f

    def test_zero_vector_rejected(self):
        _, _, cost = random_kernel_case(0, 3)
        with pytest.raises(pt.DegenerateParams):
            cost(np.zeros(9))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
    def test_gradient_matches_central_differences(self, seed, dim):
        _, _, cost = random_kernel_case(seed, dim)
        values = np.random.default_rng(seed).standard_normal(dim * dim)
        f, grad = cost.value_and_grad(values)
        # the value is the same computation as __call__, so the same bits
        assert repr(f) == repr(cost(values))
        step = 1e-6 * np.linalg.norm(values)
        central = np.array([
            (cost(values + step * e) - cost(values - step * e)) / (2.0 * step)
            for e in np.eye(dim * dim)
        ])
        assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(grad)
        # eps is constant along the scale gauge, so the gradient is orthogonal to it
        assert abs(values @ grad) <= 1e-12 * np.linalg.norm(values) * np.linalg.norm(grad)


@pytest.mark.parametrize("seed, dim", [(0, 2), (1, 3), (2, 5), (3, 5)])
def test_kink_level_contributes_nothing_to_the_gradient(seed, dim):
    """A level whose residual is exactly 0 takes the masked branch of the gradient."""
    _, _, cost = random_kernel_case(seed, dim)
    _, _, dropped = random_kernel_case(seed, dim)
    values = np.random.default_rng(seed).standard_normal(dim * dim)
    level = seed % dim
    gram_floats, norm = cost.factor.gram(values)
    # make the level's targets exactly its predictions at ``values``
    predicted = (cost.rows @ gram_floats) / norm
    cost.targets[level::dim] = predicted[level::dim]
    # the same cost without the level at all: its rows and targets are zero
    dropped.rows[level::dim] = 0.0
    dropped.targets[level::dim] = 0.0
    level_norms = cost._residual(*cost.factor.gram(values))[1]
    assert level_norms[level] == 0.0 and np.count_nonzero(level_norms) == dim - 1
    f, grad = cost.value_and_grad(values)
    assert repr(f) == repr(cost(values))
    f_dropped, grad_dropped = dropped.value_and_grad(values)
    assert repr(f) == repr(f_dropped)
    np.testing.assert_array_equal(grad, grad_dropped)
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)


def degenerate_record(high_means, low_means, high_sigmas, low_sigmas):
    """A record whose weighted inversion has no positive eigenvalue.

    In time column j level j % 5 reads ``high_means[j]`` with sigma
    ``high_sigmas[j]`` and the other four levels read ``low_means[:, j]``
    with sigmas ``low_sigmas[:, j]``, over 1.16 us steps.
    """
    n_times = len(high_means)
    means = np.empty((5, n_times))
    sigmas = np.empty((5, n_times))
    for j in range(n_times):
        low = [i for i in range(5) if i != j % 5]
        means[low, j], sigmas[low, j] = low_means[:, j], low_sigmas[:, j]
        means[j % 5, j], sigmas[j % 5, j] = high_means[j], high_sigmas[j]
    return pt.MeasurementRecord(times=np.arange(n_times) * 1.16e-6, means=means, sigmas=sigmas)


def fixture_degenerate_record():
    """16 columns: the rotating level reads 21 at sigma 1e3, the others -5 at 1e-4."""
    return degenerate_record(
        np.full(16, 21.0), np.full((4, 16), -5.0), np.full(16, 1e3), np.full((4, 16), 1e-4)
    )


def inversion_eigenvalues(cost):
    """Eigenvalues of the Hermitian part of the unconstrained weighted inversion."""
    n = cost.dim
    estimate = np.linalg.lstsq(cost.rows, cost.targets, rcond=None)[0].view(complex).reshape(n, n)
    return np.linalg.eigvalsh(0.5 * (estimate + estimate.conj().T))


INVERSION_CASES = [("ladder", 5, kind) for kind in ("plain", "noiseless", "drift", "degenerate")] + [
    ("generic", dim, kind) for dim in range(1, 7) for kind in ("plain", "noiseless")
]


@pytest.mark.parametrize("drive, dim, kind", INVERSION_CASES)
def test_inversion_start_matches_explicit_basis(ladder, drive, dim, kind):
    """The inversion over the cost's rows is the explicit float design's, bit for bit."""
    rng = np.random.default_rng(dim)
    if drive == "ladder":
        hamiltonian = ladder
    else:
        hamiltonian = pt.GenericHamiltonian(oracles.random_hermitian(rng, dim, TWO_PI * 40e3))
    if kind == "degenerate":
        record = fixture_degenerate_record()
    else:
        cfg = pt.ExperimentConfig(
            hamiltonian=hamiltonian,
            gamma=375.0,
            n_samples=23,
            repeats=3,
            rng_seed=dim,
            noiseless=kind == "noiseless",
            detuning_noise=TWO_PI * 5e3 if kind == "drift" else 0.0,
        )
        record = pt.synthesize_record(pt.DensityMatrix(oracles.random_density(rng, dim)), cfg)
    model = pt.EvolutionModel(hamiltonian=hamiltonian, gamma=375.0)
    predictor = pt.PopulationPredictor(model, record.times)
    cost = tomography._WeightedCost(predictor, record)
    assert (inversion_eigenvalues(cost)[-1] <= 0.0) == (kind == "degenerate")
    got = tomography._linear_inversion_start(cost)
    want = oracles.linear_inversion_reference(predictor, record)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    low=st.floats(-10.0, -0.5),
    seed=st.integers(0, 2**32 - 1),
    n_times=st.integers(8, 30),
)
def test_degenerate_inversion_start_is_the_nearest_state(ladder_model, low, seed, n_times):
    """Four levels near a negative value with tight sigmas and one loose level at
    one minus their sum: the start is finite, valid and the oracle's."""
    rng = np.random.default_rng(seed)
    low_means = low * (1.0 + rng.uniform(-0.05, 0.05, size=(4, n_times)))
    record = degenerate_record(
        1.0 - low_means.sum(axis=0),
        low_means,
        10.0 ** rng.uniform(2.0, 4.0, size=n_times),
        10.0 ** rng.uniform(-5.0, -3.0, size=(4, n_times)),
    )
    predictor = pt.PopulationPredictor(ladder_model, record.times)
    cost = tomography._WeightedCost(predictor, record)
    assume(inversion_eigenvalues(cost)[-1] <= 0.0)
    start = tomography._linear_inversion_start(cost)
    assert np.all(np.isfinite(start))
    rho = pt.params_to_rho(start)
    assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0
    assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
    assert start.tobytes() == oracles.linear_inversion_reference(predictor, record).tobytes()


class TestInferGridStep:
    def test_uniform_grid(self):
        times = np.arange(16) * 1.16e-6
        assert pt.infer_grid_step(times) == pytest.approx(1.16e-6, rel=1e-12)

    def test_gapped_grid(self):
        times = np.array([0.0, 2e-6, 6e-6, 14e-6])
        assert pt.infer_grid_step(times) == pytest.approx(2e-6, rel=1e-9)

    def test_incommensurate_times_rejected(self):
        with pytest.raises(pt.GridMismatch):
            pt.infer_grid_step(np.array([1.0e-6, np.pi * 1e-6]))
        # close enough to 2 for the fraction, too far for the grid tolerance
        with pytest.raises(pt.GridMismatch, match="not a multiple of the grid step"):
            pt.infer_grid_step([1.0, 2.0000003])
        with pytest.raises(pt.GridMismatch, match=r"time 2\.0000003 .* step 1\.0$"):
            pt.infer_grid_step(np.array([1.0, 2.0000003]))

    @pytest.mark.parametrize(
        "times", [[math.inf], [0.0, math.nan], [-1e-6, 0.0, 1e-6], [0.0, 1e-6, math.inf]]
    )
    def test_negative_or_non_finite_time_rejected(self, times, ladder_model):
        with pytest.raises(pt.GridMismatch, match="negative or not finite"):
            pt.infer_grid_step(times)
        # a negative time would otherwise index a backward (inverse) step
        with pytest.raises(pt.GridMismatch, match="negative or not finite"):
            pt.PopulationPredictor(ladder_model, times)

    @settings(max_examples=200, deadline=None)
    @given(
        step=st.floats(1e-8, 1e-4),
        indices=st.sets(st.integers(0, 300), min_size=2).filter(lambda ks: max(ks) > 0),
    )
    # a float Euclid with a fixed 1e-13 stopping tolerance rejected this grid
    @example(step=3.826200643130101e-05, indices={68, 78, 143, 156})
    def test_gapped_subsets_of_a_uniform_grid(self, step, indices):
        ks = sorted(indices)
        times = np.array(ks) * step
        dt = pt.infer_grid_step(times)
        assert dt == pytest.approx(math.gcd(*ks) * step, rel=1e-9)
        assert np.all(np.abs(times - np.round(times / dt) * dt) <= records.GRID_ATOL)

    @staticmethod
    def assert_grid_contract(times):
        """GridMismatch, or a step that puts every time on the grid."""
        try:
            dt = pt.infer_grid_step(times)
        except pt.GridMismatch:
            return
        k = np.round(times / dt)
        tolerance = np.maximum(records.GRID_ATOL, records.GRID_RTOL * times)
        assert np.all(np.abs(times - k * dt) <= tolerance)
        assert k.max() <= records.MAX_GRID_STEPS

    @settings(max_examples=300, deadline=None)
    @given(
        step=st.floats(1e-9, 1e-3),
        n=st.integers(2, 300),
        scale=st.floats(0.0, 1e-9),
        seed=st.integers(0, 2**32 - 1),
    )
    # a subnormal first time: t / first overflowed
    @example(step=0.0009777668154532602, n=2, scale=5e-324, seed=214)
    def test_jittered_grid(self, step, n, scale, seed):
        rng = np.random.default_rng(seed)
        times = np.abs(np.arange(n) * step + rng.uniform(-scale, scale, n))
        self.assert_grid_contract(np.sort(times))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e308), min_size=1, max_size=20))
    # t / first overflowed to inf inside Fraction (OverflowError)
    @example([2.247116418577895e307, 0.125])
    def test_incommensurate_times(self, times):
        self.assert_grid_contract(np.sort(np.array(times)))

    @settings(max_examples=200, deadline=None)
    @given(
        step=st.floats(1e-9, 1.0),
        n=st.integers(2, 1000),
        kind=st.sampled_from(["cumsum", "linspace"]),
        from_zero=st.booleans(),
    )
    def test_generated_grid_returns_its_step(self, step, n, kind, from_zero):
        if kind == "cumsum":
            times = np.cumsum(np.full(n, step))
            if from_zero:
                times = np.concatenate([[0.0], times[:-1]])
        elif from_zero:
            times = np.linspace(0.0, (n - 1) * step, n)
        else:
            times = np.linspace(step, n * step, n)
        assert pt.infer_grid_step(times) == pytest.approx(step, rel=1e-12)


class TestPropagationRoutes:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 5),
        gamma=st.floats(0.0, 750.0),
        k=st.integers(0, 12),
    )
    def test_evolve_matches_predictor(self, seed, dim, gamma, k):
        """Stepping a state k times agrees with the predictor's k-th row block."""
        rng = np.random.default_rng(seed)
        model = pt.EvolutionModel(
            hamiltonian=pt.GenericHamiltonian(oracles.random_hermitian(rng, dim, TWO_PI * 40e3)),
            gamma=gamma,
        )
        rho = pt.DensityMatrix(oracles.random_density(rng, dim))
        dt = 1.16e-6
        stepped = oracles.populations(pt.evolve(rho, pt.make_propagator(model, dt), k))
        predicted = pt.PopulationPredictor(model, np.arange(13) * dt).populations(
            pt.vectorize(rho.matrix)
        )
        np.testing.assert_allclose(stepped, predicted[:, k], rtol=0.0, atol=1e-10)


class TestReconstruct:
    def test_noiseless_pure_state_round_trip(self, drive_only_model):
        rng = np.random.default_rng(5)
        rho_true = pt.DensityMatrix(oracles.random_pure_density(rng, 5))
        record = make_record(drive_only_model, rho_true)
        result = pt.reconstruct(record, drive_only_model, quick_subplex())
        assert pt.uhlmann_fidelity(result.rho0, rho_true) >= 0.995

    def test_maximally_mixed_is_recovered(self, ladder_model):
        rho_true = pt.DensityMatrix.maximally_mixed(5)
        record = make_record(ladder_model, rho_true)
        # stationary state: every predicted population is constant 0.2
        assert np.abs(record.means - 0.2).max() < 1e-9
        result = pt.reconstruct(record, ladder_model, quick_subplex())
        assert pt.uhlmann_fidelity(result.rho0, rho_true) >= 0.995

    def test_epsilon_matches_recomputation(self, ladder_model):
        rng = np.random.default_rng(6)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho_true, noiseless=False, seed=7)
        result = pt.reconstruct(record, ladder_model, quick_subplex())
        again = pt.weighted_error(result.rho0, record, ladder_model)
        assert result.epsilon == pytest.approx(again, abs=1e-12)
        assert result.gamma_used == ladder_model.gamma
        assert result.window == (0.0, pytest.approx(record.span))

    def test_deterministic(self, ladder_model):
        rng = np.random.default_rng(8)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho_true, noiseless=False, seed=9)
        cfg = quick_subplex(max_evals=5_000, restarts=2)
        a = pt.reconstruct(record, ladder_model, cfg)
        b = pt.reconstruct(record, ladder_model, cfg)
        assert a.epsilon == b.epsilon
        np.testing.assert_array_equal(a.rho0.matrix, b.rho0.matrix)

    def test_gauge_representatives_reach_same_error(self, ladder_model):
        # Scale-covariant search: starting subplex from p and from 2*p
        # follows bit-identical trajectories until the absolute X_TOL test
        # fires; both runs here end on the budget first.
        rng = np.random.default_rng(10)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho_true)
        predictor = pt.PopulationPredictor(ladder_model, record.times)
        from poptomo.tomography import _WeightedCost

        cost = _WeightedCost(predictor, record)
        cfg = pt.SubplexConfig(
            simplex=pt.SimplexConfig(max_evals=20_000),
            restarts=1,
        )
        start = rng.standard_normal(25)
        a = pt.subplex(cost, start, cfg)
        b = pt.subplex(cost, 2.0 * start, cfg)
        assert a.best_f == b.best_f

    def test_pinned_pi_half_reconstruction(self, ladder_model, pi_half_state):
        # every bit of a small search, so that a rewrite of the start-up
        # code or the cost that moves the search at all shows here
        record = make_record(ladder_model, pi_half_state, noiseless=False, seed=3)
        result = pt.reconstruct(record, ladder_model, quick_subplex(max_evals=3_000, restarts=2))
        assert repr(result.epsilon) == "0.000343301735521607"
        assert result.opt.evals == 804
        assert result.opt.converged_by == "xtol"
        assert [repr(float(f)) for f in result.opt.per_restart_f] == [
            "0.0003433017355215926",
        ]

    @pytest.mark.parametrize(
        "gamma, epsilon, gap, evals",
        [
            (0.0, "0.002933143907511186", "9.886173761468367e-11", 1202),
            (400.0, "0.0003566998105404193", "1.9092388316946008e-19", 635),
            (700.0, "0.003978300106801667", "-1.2305235408823884e-18", 518),
        ],
    )
    def test_pinned_sweep_cells(self, ladder, pi_half_state, gamma, epsilon, gap, evals):
        # the sweep's cell shape: 87 points, 3,000 evaluations, a record
        # made at 400 s^-1 fitted at three rates
        truth = pt.EvolutionModel(hamiltonian=ladder, gamma=400.0)
        record = make_record(truth, pi_half_state, n_samples=87, noiseless=False, seed=500)
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=gamma)
        result = pt.reconstruct(record, model, quick_subplex(max_evals=3_000, restarts=1))
        assert (repr(result.epsilon), repr(result.gap)) == (epsilon, gap)
        assert (result.opt.evals, result.opt.converged_by) == (evals, "xtol")

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_on_pi_half_records(self, ladder_model, pi_half_state, seed):
        record = make_record(ladder_model, pi_half_state, noiseless=False, seed=seed)
        result = pt.reconstruct(record, ladder_model, quick_subplex(max_evals=20_000, restarts=4))
        assert result.gap >= -1e-15
        assert result.gap <= 1e-3 * result.epsilon

    def test_budget_shared_by_both_stages(self, ladder_model, pi_half_state):
        record = make_record(ladder_model, pi_half_state, noiseless=False, seed=3)
        for budget in (1, 2, 50, 400):
            result = pt.reconstruct(record, ladder_model, quick_subplex(max_evals=budget))
            assert result.opt.evals <= max(budget, 2)

    def test_restarts_and_seed_are_not_read(self, ladder_model, pi_half_state):
        record = make_record(ladder_model, pi_half_state, noiseless=False, seed=3)
        a = pt.reconstruct(record, ladder_model, quick_subplex(max_evals=3_000, restarts=1, seed=0))
        b = pt.reconstruct(record, ladder_model, quick_subplex(max_evals=3_000, restarts=7, seed=9))
        assert a.rho0.matrix.tobytes() == b.rho0.matrix.tobytes()
        assert (a.epsilon, a.gap, a.opt.evals) == (b.epsilon, b.gap, b.opt.evals)

    def test_no_convergence_ceiling(self, ladder_model):
        rng = np.random.default_rng(11)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho_true, noiseless=False, seed=12)
        with pytest.raises(pt.NoConvergence):
            pt.reconstruct(
                record,
                ladder_model,
                quick_subplex(max_evals=2_000, restarts=1),
                epsilon_ceiling=1e-12,
            )


@pytest.mark.filterwarnings("error")
class TestExtremeSigmas:
    """A level whose weights 1/sigma^2, or their sum, leave the float range."""

    @pytest.fixture(params=[1e-200, 1e-154, 1e160], ids=["tiny", "sum-overflows", "huge"])
    def record(self, request, ladder_model):
        record = make_record(ladder_model, pt.DensityMatrix.maximally_mixed(5))
        sigmas = record.sigmas.copy()
        sigmas[2] = request.param
        return pt.MeasurementRecord(times=record.times, means=record.means, sigmas=sigmas)

    def test_reconstruct_names_the_level(self, ladder_model, record):
        with pytest.raises(pt.ValidationError, match="level 3"):
            pt.reconstruct(record, ladder_model)

    def test_weighted_error_names_the_level(self, ladder_model, record):
        with pytest.raises(pt.ValidationError, match="level 3"):
            pt.weighted_error(pt.DensityMatrix.maximally_mixed(5), record, ladder_model)

    def test_sweep_reports_failed_cells(self, ladder, record):
        sweep = pt.sweep_gamma(record, ladder, [record.span], [0.0, 375.0], quick_subplex(500))
        assert np.all(np.isposinf(sweep.error_surface))
        assert np.isnan(sweep.gamma_opt).all()


class TestDegenerateInversion:
    """A record whose weighted inversion has no positive eigenvalue.

    In each time column one level, rotating with time, reads 21 with a huge
    sigma and the other four -5 with a tiny one, so every clipped
    eigenvalue is 0 and the start is the estimate's nearest state.
    """

    @pytest.fixture
    def record(self, ladder_model):
        record = fixture_degenerate_record()
        predictor = pt.PopulationPredictor(ladder_model, record.times)
        assert inversion_eigenvalues(tomography._WeightedCost(predictor, record))[-1] <= 0.0
        return record

    def test_reconstructs_from_the_nearest_state(self, ladder_model, record):
        result = pt.reconstruct(record, ladder_model, epsilon_ceiling=math.inf)
        assert result.epsilon == pytest.approx(5.1859, rel=1e-4)
        assert 0.0 <= result.gap <= 1e-12
        assert 0 < result.opt.evals < 1_000

    def test_default_ceiling_raises(self, ladder_model, record):
        with pytest.raises(pt.NoConvergence):
            pt.reconstruct(record, ladder_model)

    def test_cli_exits_3(self, record, tmp_path):
        from poptomo.cli import main

        model = {
            "hamiltonian": {"type": "ladder5", "rabi_hz": 60e3, "delta1": 3e3, "delta2": 11e3},
            "gamma_hz": 375.0,
        }
        (tmp_path / "model.json").write_text(json.dumps(model))
        pt.save_record(record, tmp_path / "rec.csv")
        code = main([
            "reconstruct",
            "--record", str(tmp_path / "rec.csv"),
            "--model", str(tmp_path / "model.json"),
            "--out", str(tmp_path / "result.json"),
        ])
        assert code == 3
        assert not (tmp_path / "result.json").exists()


class TestPreparePulseState:
    def test_zero_duration(self, drive_only_model):
        rho = pt.DensityMatrix.basis_state(5, 1)
        assert pt.prepare_pulse_state(rho, drive_only_model, 0.0) is rho

    def test_two_level_half_pulse(self):
        omega = TWO_PI * 60e3
        h = pt.GenericHamiltonian(
            np.array([[0.0, omega / 2.0], [omega / 2.0, 0.0]], dtype=complex)
        )
        model = pt.EvolutionModel(hamiltonian=h, gamma=0.0)
        out = pt.prepare_pulse_state(
            pt.DensityMatrix.basis_state(2, 0), model, pt.pi_half_duration(omega)
        )
        np.testing.assert_allclose(oracles.populations(out), [0.5, 0.5], atol=1e-10)

    def test_five_level_half_pulse_matches_rk4(self, drive_only_model, pi_half_state):
        duration = pt.pi_half_duration(drive_only_model.hamiltonian.rabi_omega)
        steps = int(round(duration / 1e-9))
        reference = oracles.rk4_population_trajectories(
            pt.DensityMatrix.basis_state(5, 0).matrix,
            pt.build_hamiltonian(drive_only_model.hamiltonian),
            0.0,
            duration / steps,
            steps,
            steps,
        )
        assert np.abs(oracles.populations(pi_half_state) - reference[:, -1]).max() < 1e-6

    def test_negative_duration_rejected(self, drive_only_model):
        with pytest.raises(pt.EmptyWindow, match="duration"):
            pt.prepare_pulse_state(pt.DensityMatrix.basis_state(5, 0), drive_only_model, -1e-9)


class TestConvergenceStudy:
    def test_duplicate_windows_identical(self, ladder_model):
        rng = np.random.default_rng(13)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho_true, n_samples=20, noiseless=False, seed=14)
        cfg = quick_subplex(max_evals=4_000, restarts=1)
        window = record.times[9]
        points = pt.convergence_study(
            record, ladder_model, cfg, [window, window], reference=rho_true
        )
        assert len(points) == 2
        assert points[0].epsilon == points[1].epsilon
        assert points[0].infidelity == points[1].infidelity

    def test_sorted_and_epsilon_only_without_reference(self, ladder_model):
        rng = np.random.default_rng(15)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho_true, n_samples=20, noiseless=False, seed=16)
        cfg = quick_subplex(max_evals=4_000, restarts=1)
        windows = [record.times[12], record.times[5]]
        points = pt.convergence_study(record, ladder_model, cfg, windows)
        assert [p.window for p in points] == sorted(p.window for p in points)
        assert all(p.infidelity is None for p in points)

    def test_empty_window_rejected(self, ladder_model):
        rng = np.random.default_rng(17)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = make_record(ladder_model, rho_true)
        with pytest.raises(pt.EmptyWindow):
            pt.truncate_record(record, 0.5 * record.times[1])

    def test_truncated_meta_is_a_copy(self, ladder_model):
        record = make_record(ladder_model, pt.DensityMatrix.maximally_mixed(5))
        record.meta["warnings"] = ["original"]
        before = repr(record.meta)
        trimmed = pt.truncate_record(record, record.times[5])
        trimmed.meta["warnings"].append("added")
        trimmed.meta["extra"] = 1
        assert repr(record.meta) == before


class TestSweepGamma:
    def test_noiseless_gamma_recovery(self, ladder):
        rng = np.random.default_rng(18)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=400.0)
        record = make_record(model, rho_true, n_samples=44)
        cfg = quick_subplex(max_evals=8_000, restarts=1)
        sweep = pt.sweep_gamma(
            record, ladder, [record.span], [200.0, 400.0, 600.0], cfg
        )
        assert sweep.gamma_opt[0] == 400.0
        assert np.isfinite(sweep.error_surface).all()

    def test_zero_gamma_noiseless_record(self, ladder):
        rng = np.random.default_rng(19)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=0.0)
        record = make_record(model, rho_true, n_samples=30)
        cfg = quick_subplex(max_evals=8_000, restarts=1)
        windows = [record.times[14], record.span]
        sweep = pt.sweep_gamma(record, ladder, windows, [0.0, 250.0, 500.0], cfg)
        np.testing.assert_array_equal(sweep.gamma_opt, [0.0, 0.0])

    def test_argmin_matches_surface(self, ladder):
        rng = np.random.default_rng(20)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=300.0)
        record = make_record(model, rho_true, n_samples=25, noiseless=False, seed=21)
        cfg = quick_subplex(max_evals=3_000, restarts=1)
        gammas = [0.0, 300.0, 600.0]
        sweep = pt.sweep_gamma(record, ladder, [record.span], gammas, cfg)
        gi = int(np.argmin(sweep.error_surface[0]))
        assert sweep.gamma_opt[0] == sweep.gammas[gi]

    def test_failed_window_has_no_optimal_gamma(self, ladder, ladder_model, monkeypatch):
        record = make_record(ladder_model, pt.DensityMatrix.maximally_mixed(5))
        short = record.times[5]

        def fake_reconstruct(trimmed, model, cfg, **kwargs):
            if trimmed.span <= short:
                raise pt.NoConvergence("every cell of the short window fails")
            return SimpleNamespace(epsilon=abs(model.gamma - 300.0))

        monkeypatch.setattr(tomography, "reconstruct", fake_reconstruct)
        sweep = pt.sweep_gamma(record, ladder, [short, record.span], [0.0, 300.0, 600.0])
        assert np.isinf(sweep.error_surface[0]).all()
        assert np.isnan(sweep.gamma_opt[0])
        assert sweep.gamma_opt[1] == 300.0

    def test_dimension_mismatch_rejected(self, ladder_model):
        # every cell would fail alike, which a cell's +inf would hide
        record = make_record(ladder_model, pt.DensityMatrix.maximally_mixed(5))
        three_level = pt.GenericHamiltonian(np.diag([0.0, 1.0, 2.0]).astype(complex))
        with pytest.raises(pt.DimensionMismatch, match="record dim 5"):
            pt.sweep_gamma(record, three_level, [record.span], [0.0, 300.0])

    def test_no_gamma_rejected(self, ladder, ladder_model):
        record = make_record(ladder_model, pt.DensityMatrix.maximally_mixed(5))
        with pytest.raises(pt.EmptyWindow, match="gamma"):
            pt.sweep_gamma(record, ladder, [record.span], [])

    def test_negative_gamma_rejected(self, ladder, ladder_model):
        rho_true = pt.DensityMatrix.maximally_mixed(5)
        record = make_record(ladder_model, rho_true)
        with pytest.raises(pt.ValidationError):
            pt.sweep_gamma(record, ladder, [record.span], [-10.0, 100.0])
