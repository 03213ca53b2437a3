"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Expensive ensembles (window study, rate sweeps)
are computed once in session fixtures and shared between criteria.
"""

import time

import numpy as np
import pytest

import poptomo as pt
import oracles
from conftest import RABI, DELTA1, DELTA2, SAMPLE_INTERVAL, quick_subplex

TWO_PI = 2.0 * np.pi

LADDER = pt.Ladder5(RABI, DELTA1, DELTA2)
RABI_PERIOD = TWO_PI / RABI  # natural evolution timescale, ~16.7 us


def report(number, name, detail, elapsed, budget):
    print(f"\nACCEPTANCE {number} ({name}): PASS - {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def make_pi_half_state():
    model = pt.EvolutionModel(hamiltonian=LADDER, gamma=0.0)
    return pt.prepare_pulse_state(
        pt.DensityMatrix.basis_state(5, 0), model, pt.pi_half_duration(RABI)
    )


def synthesize(rho, gamma=375.0, n_samples=16, seed=0, **kwargs):
    cfg = pt.ExperimentConfig(
        hamiltonian=LADDER, gamma=gamma, n_samples=n_samples, rng_seed=seed, **kwargs
    )
    return pt.synthesize_record(rho, cfg)


def test_criterion_1_dephasing_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
    zero_h = pt.GenericHamiltonian(np.zeros((5, 5), dtype=complex))
    off = ~np.eye(5, dtype=bool)
    worst = 0.0
    for gamma in (0.0, 100.0, 400.0, 750.0):
        model = pt.EvolutionModel(hamiltonian=zero_h, gamma=gamma)
        prop = pt.make_propagator(model, 2e-6)
        for steps in (1, 7, 23, 50):  # up to t = 100 us
            t = steps * 2e-6
            out = pt.evolve(rho0, prop, steps)
            ratio = out.matrix[off] / rho0.matrix[off]
            worst = max(worst, np.abs(ratio / np.exp(-2.0 * gamma * t) - 1.0).max())
            diag_drift = np.abs(np.diag(out.matrix) - np.diag(rho0.matrix)).max()
            worst = max(worst, diag_drift)
    assert worst < 1e-8
    report(1, "dephasing oracle", f"worst relative defect {worst:.2e}", time.perf_counter() - start, 1.0)


def test_criterion_2_propagator_vs_rk4():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    n_models = 50
    n_points = 13  # 13 * 1.16 us = 15.1 us window
    stride = 1160  # 1.16 us / 1 ns
    H = np.stack([oracles.random_hermitian(rng, 5, TWO_PI * 40e3) for _ in range(n_models)])
    gammas = rng.uniform(0.0, 750.0, size=n_models)
    rho0 = np.stack([oracles.random_density(rng, 5) for _ in range(n_models)])

    reference = oracles.rk4_population_trajectories(
        rho0, H, gammas, 1e-9, stride * n_points, stride
    )
    worst = 0.0
    for b in range(n_models):
        model = pt.EvolutionModel(
            hamiltonian=pt.GenericHamiltonian(H[b]), gamma=float(gammas[b])
        )
        prop = pt.make_propagator(model, SAMPLE_INTERVAL)
        state = pt.DensityMatrix(rho0[b])
        for k in range(1, n_points + 1):
            pops = oracles.populations(pt.evolve(state, prop, k))
            worst = max(worst, np.abs(pops - reference[b, :, k]).max())
    assert worst < 1e-6
    report(2, "propagator vs RK4", f"{n_models} models, worst defect {worst:.2e}", time.perf_counter() - start, 30.0)


def test_criterion_3_pi_half_benchmark():
    start = time.perf_counter()
    rho_true = make_pi_half_state()
    model = pt.EvolutionModel(hamiltonian=LADDER, gamma=375.0)
    cfg = quick_subplex(max_evals=20_000, restarts=4)
    fidelities = []
    for seed in range(20):
        record = synthesize(rho_true, seed=seed)
        result = pt.reconstruct(record, model, cfg)
        fidelities.append(pt.uhlmann_fidelity(result.rho0, rho_true))
    fidelities = np.array(fidelities)
    median = float(np.median(fidelities))
    lowest = float(fidelities.min())
    assert median >= 0.97
    assert lowest >= 0.93
    report(3, "pi/2 pulse benchmark", f"median F {median:.4f}, min {lowest:.4f} over 20 seeds", time.perf_counter() - start, 300.0)


def test_criterion_4_random_preparation_schedules():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    model = pt.EvolutionModel(hamiltonian=LADDER, gamma=375.0)
    cfg = quick_subplex(max_evals=20_000, restarts=4)
    passed = 0
    fidelities = []
    for trial in range(10):
        segments = [
            pt.PulseSegment(
                duration=rng.uniform(1e-6, 4e-6),
                omega=RABI,
                delta1=rng.uniform(-TWO_PI * 15e3, TWO_PI * 15e3),
                delta2=rng.uniform(-TWO_PI * 15e3, TWO_PI * 15e3),
            )
            for _ in range(4)
        ]
        schedule = pt.PreparationSchedule(
            initial_state=pt.DensityMatrix.basis_state(5, 0), segments=segments
        )
        rho_true = pt.run_preparation(schedule)
        record = synthesize(rho_true, seed=100 + trial)
        result = pt.reconstruct(record, model, cfg)
        fid = pt.uhlmann_fidelity(result.rho0, rho_true)
        fidelities.append(fid)
        passed += fid >= 0.95
    assert passed >= 9
    report(4, "schedule-prepared states", f"{passed}/10 with F >= 0.95 (min {min(fidelities):.4f})", time.perf_counter() - start, 900.0)


@pytest.fixture(scope="session")
def window_study():
    """Shared ensemble for the window-convergence criteria (5 and 8)."""
    rng = np.random.default_rng(3)
    model = pt.EvolutionModel(hamiltonian=LADDER, gamma=375.0)
    cfg = quick_subplex(max_evals=15_000, restarts=3)
    windows = [0.5 * RABI_PERIOD, 2.0 * RABI_PERIOD, 4.0 * RABI_PERIOD]
    per_window = {w: [] for w in windows}
    for seed in range(22):
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        record = synthesize(rho_true, n_samples=58, seed=300 + seed)
        points = pt.convergence_study(record, model, cfg, windows, reference=rho_true)
        for p in points:
            per_window[p.window].append(p.infidelity)
    return {w: np.array(v) for w, v in per_window.items()}


def test_criterion_5_window_convergence(window_study):
    """1-F falls from 0.5 T to 2 T; beyond 2 T it falls as 1/N.

    The records carry only shot noise and the model is exact, so 1-F,
    quadratic in the estimation error, keeps falling as 1/N with the
    number N of points in the window.  Once the window has converged,
    extra length buys only what extra counts buy: N * median(1-F) stays
    flat from 2 T to 4 T.  A floor at long windows, or a 2 T window that
    has not converged, breaks that.
    """
    start = time.perf_counter()
    short, mid, long_ = sorted(window_study)
    # points each window keeps of the fixture's 58-sample records
    grid = synthesize(pt.DensityMatrix.basis_state(5, 0), n_samples=58, noiseless=True)
    counts = {w: pt.truncate_record(grid, w).times.size for w in window_study}
    medians = {w: float(np.median(v)) for w, v in window_study.items()}
    normalised = {w: counts[w] * medians[w] for w in window_study}
    numbers = " -> ".join(
        f"{w*1e6:.1f}us: N={counts[w]} median 1-F {medians[w]:.2e}, N*median {normalised[w]:.2e}"
        for w in (short, mid, long_)
    )
    assert medians[mid] < medians[short], numbers
    saturation = abs(normalised[long_] - normalised[mid]) / normalised[mid]
    assert saturation < 0.20, f"N*median change {saturation:.2f}; {numbers}"
    report(
        5,
        "window convergence",
        f"{numbers} (N*median change {saturation:.0%})",
        time.perf_counter() - start,
        1200.0,
    )


@pytest.fixture(scope="session")
def gamma_recovery_sweeps():
    """Shared fixed-rate recovery sweeps for criteria 6 and 8."""
    rho_true = make_pi_half_state()
    cfg = quick_subplex(max_evals=20_000, restarts=2)
    gammas = np.linspace(0.0, 750.0, 16)
    sweeps = {}
    for i, gamma_true in enumerate((150.0, 400.0, 650.0)):
        record = synthesize(rho_true, gamma=gamma_true, n_samples=87, seed=500 + i)
        sweeps[gamma_true] = pt.sweep_gamma(record, LADDER, [record.span], gammas, cfg)
    return sweeps


def test_criterion_6_gamma_sweep(gamma_recovery_sweeps):
    start = time.perf_counter()
    grid_step = 50.0
    recovered = {}
    for gamma_true, sweep in gamma_recovery_sweeps.items():
        recovered[gamma_true] = float(sweep.gamma_opt[0])
        assert abs(recovered[gamma_true] - gamma_true) <= grid_step + 1e-9

    # slow detuning drift: the fitted rate must grow with the window
    rho_true = make_pi_half_state()
    record = synthesize(
        rho_true,
        gamma=0.0,
        n_samples=87,
        seed=520,
        detuning_noise=TWO_PI * 10e3,
        repeats=25,
    )
    cfg = quick_subplex(max_evals=20_000, restarts=2)
    windows = [40e-6, 60e-6, 80e-6, 100e-6]
    trend = pt.sweep_gamma(record, LADDER, windows, np.linspace(0.0, 750.0, 16), cfg)
    assert np.all(np.diff(trend.gamma_opt) >= 0.0)
    report(
        6,
        "dephasing-rate sweep",
        f"recovered {recovered}, drift trend {trend.gamma_opt.tolist()}",
        time.perf_counter() - start,
        1800.0,
    )


def test_criterion_7_noiseless_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    cfg = quick_subplex(max_evals=30_000, restarts=2)
    worst_eps = 0.0
    worst_fid = 1.0
    for trial in range(20):
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        gamma = 375.0 if trial % 2 else 0.0
        model = pt.EvolutionModel(hamiltonian=LADDER, gamma=gamma)
        record = synthesize(rho_true, gamma=gamma, seed=700 + trial, noiseless=True)
        result = pt.reconstruct(record, model, cfg)
        worst_eps = max(worst_eps, result.epsilon)
        worst_fid = min(worst_fid, pt.uhlmann_fidelity(result.rho0, rho_true))
    assert worst_eps <= 1e-8
    assert worst_fid >= 0.999
    report(7, "noiseless round trip", f"worst eps {worst_eps:.2e}, worst F {worst_fid:.6f}", time.perf_counter() - start, 300.0)


class TestCriterion8Invariants:
    """Every module's invariant bullets as property tests."""

    def test_dynamics_invariants(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)

        # trace and positivity preservation over 1000 random triples
        for _ in range(1000):
            rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
            model = pt.EvolutionModel(
                hamiltonian=pt.GenericHamiltonian(
                    oracles.random_hermitian(rng, 5, TWO_PI * 50e3)
                ),
                gamma=rng.uniform(0.0, 750.0),
            )
            out = pt.evolve(
                rho0, pt.make_propagator(model, rng.uniform(0.1e-6, 3e-6)), rng.integers(1, 12)
            )
            assert abs(out.matrix.trace().real - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-8

        # unitary limit: gamma = 0 preserves the eigenvalue multiset
        for _ in range(200):
            rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
            model = pt.EvolutionModel(
                hamiltonian=pt.GenericHamiltonian(
                    oracles.random_hermitian(rng, 5, TWO_PI * 50e3)
                ),
                gamma=0.0,
            )
            out = pt.evolve(rho0, pt.make_propagator(model, 1e-6), 5)
            before = np.linalg.eigvalsh(rho0.matrix)
            after = np.linalg.eigvalsh(out.matrix)
            assert np.abs(before - after).max() <= 1e-8

        # dephasing oracle and semigroup
        zero_h = pt.GenericHamiltonian(np.zeros((5, 5), dtype=complex))
        off = ~np.eye(5, dtype=bool)
        for _ in range(100):
            rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
            gamma = rng.uniform(10.0, 750.0)
            t = rng.uniform(1e-6, 1e-4)
            out = pt.evolve(
                rho0, pt.make_propagator(pt.EvolutionModel(hamiltonian=zero_h, gamma=gamma), t), 1
            )
            ratio = out.matrix[off] / rho0.matrix[off]
            assert np.abs(ratio / np.exp(-2.0 * gamma * t) - 1.0).max() <= 1e-8

        for _ in range(100):
            rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
            model = pt.EvolutionModel(
                hamiltonian=pt.GenericHamiltonian(
                    oracles.random_hermitian(rng, 5, TWO_PI * 50e3)
                ),
                gamma=rng.uniform(0.0, 500.0),
            )
            prop = pt.make_propagator(model, 0.7e-6)
            a = pt.evolve(pt.evolve(rho0, prop, 4), prop, 3)
            b = pt.evolve(rho0, prop, 7)
            assert np.abs(a.matrix - b.matrix).max() <= 1e-8

        # fidelity symmetry
        for _ in range(200):
            rho = pt.DensityMatrix(oracles.random_density(rng, 5))
            sigma = pt.DensityMatrix(oracles.random_density(rng, 5))
            assert abs(
                pt.uhlmann_fidelity(rho, sigma) - pt.uhlmann_fidelity(sigma, rho)
            ) <= 1e-10

        # propagator equivalence spot check (full 50-model run is criterion 2)
        for _ in range(5):
            rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
            H = oracles.random_hermitian(rng, 5, TWO_PI * 40e3)
            gamma = rng.uniform(0.0, 750.0)
            model = pt.EvolutionModel(hamiltonian=pt.GenericHamiltonian(H), gamma=gamma)
            pops = oracles.populations(pt.evolve(rho0, pt.make_propagator(model, 2e-6), 4))
            ref = oracles.rk4_population_trajectories(rho0.matrix, H, gamma, 1e-9, 8000, 8000)
            assert np.abs(pops - ref[:, -1]).max() <= 1e-6

        print(f"\n  [8a] dynamics invariants: PASS [{time.perf_counter() - start:.1f}s]")

    def test_parameterization_invariants(self):
        start = time.perf_counter()
        rng = np.random.default_rng(6)

        # totality on 1e5 random finite vectors
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=100_000)
        for i in range(100_000):
            values = rng.standard_normal(25) * scales[i]
            rho = pt.params_to_rho(values)
            m = rho.matrix
            assert abs(m.trace().real - 1.0) <= 1e-10
            assert np.abs(m - m.conj().T).max() <= 1e-12
        # eigenvalue check on a subsample (eigh dominates otherwise)
        for _ in range(5000):
            rho = pt.params_to_rho(rng.standard_normal(25))
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

        # gauge invariance
        for _ in range(1000):
            values = rng.standard_normal(25)
            base = pt.params_to_rho(values).matrix
            for c in (-3.0, 0.1, 7.0):
                scaled = pt.params_to_rho(c * values).matrix
                assert np.abs(scaled - base).max() <= 1e-12

        # round trip and surjectivity onto random full-rank states
        for _ in range(1000):
            rho = pt.DensityMatrix(oracles.random_density(rng, 5))
            back = pt.params_to_rho(pt.rho_to_params(rho))
            assert np.abs(back.matrix - rho.matrix).max() <= 1e-9

        print(f"\n  [8b] parameterization invariants: PASS [{time.perf_counter() - start:.1f}s]")

    def test_optimizer_invariants(self):
        start = time.perf_counter()

        def rosen(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

        # monotone best-so-far
        best = [np.inf]
        trace = []

        def traced(x):
            v = rosen(x)
            best[0] = min(best[0], v)
            trace.append(best[0])
            return v

        pt.subplex(traced, np.zeros(8))
        assert all(a >= b for a, b in zip(trace, trace[1:]))

        # budget
        for budget in (10, 100, 1000):
            cfg = pt.SubplexConfig(simplex=pt.SimplexConfig(max_evals=budget))
            res = pt.subplex(rosen, np.zeros(10), cfg)
            assert res.evals <= budget + 11

        # determinism
        cfg = pt.SubplexConfig(
            simplex=pt.SimplexConfig(max_evals=20_000), restarts=4, rng_seed=11
        )
        sampler = lambda rng: rng.standard_normal(6)
        a = pt.multi_start(rosen, sampler, cfg)
        b = pt.multi_start(rosen, sampler, cfg)
        assert a.best_f == b.best_f and a.evals == b.evals
        np.testing.assert_array_equal(a.best_x, b.best_x)

        # scale sanity
        quad = lambda x: float(x @ x)
        plain = pt.subplex(quad, np.full(8, 2.0))
        scaled = pt.subplex(lambda x: quad(10.0 * x), np.full(8, 0.2))
        assert abs(plain.best_f - scaled.best_f) <= 1e-6

        print(f"\n  [8c] optimizer invariants: PASS [{time.perf_counter() - start:.1f}s]")

    def test_tomography_cost_identity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
            model = pt.EvolutionModel(
                hamiltonian=pt.GenericHamiltonian(
                    oracles.random_hermitian(rng, 5, TWO_PI * 40e3)
                ),
                gamma=rng.uniform(0.0, 600.0),
            )
            cfg = pt.ExperimentConfig(
                hamiltonian=model.hamiltonian,
                gamma=model.gamma,
                rng_seed=1,
                noiseless=True,
            )
            record = pt.synthesize_record(rho_true, cfg)
            assert pt.weighted_error(rho_true, record, model) <= 1e-10
        print(f"\n  [8d] cost identity: PASS [{time.perf_counter() - start:.1f}s]")

    def test_estimator_consistency(self):
        start = time.perf_counter()
        rng = np.random.default_rng(8)
        model = pt.EvolutionModel(hamiltonian=LADDER, gamma=375.0)
        cfg = quick_subplex(max_evals=15_000, restarts=2)
        sigma_levels = [0.05, 0.02, 0.01, 0.005, 0.0]
        states = [pt.DensityMatrix(oracles.random_density(rng, 5)) for _ in range(8)]
        base_records = [
            synthesize(rho, seed=800 + i, noiseless=True) for i, rho in enumerate(states)
        ]
        medians = []
        for sigma in sigma_levels:
            infidelities = []
            for rho_true, base in zip(states, base_records):
                if sigma == 0.0:
                    record = base
                else:
                    noise = rng.normal(0.0, sigma, size=base.means.shape)
                    noise -= noise.mean(axis=0, keepdims=True)  # keep columns normalized
                    record = pt.MeasurementRecord(
                        times=base.times,
                        means=base.means + noise,
                        sigmas=np.full_like(base.sigmas, max(sigma, 1e-4)),
                        repeats=base.repeats,
                    )
                result = pt.reconstruct(record, model, cfg)
                infidelities.append(1.0 - pt.uhlmann_fidelity(result.rho0, rho_true))
            medians.append(float(np.median(infidelities)))
        assert all(a >= b for a, b in zip(medians, medians[1:])), medians
        assert medians[-1] <= 1e-3
        print(f"\n  [8e] estimator consistency: PASS medians {medians} [{time.perf_counter() - start:.1f}s]")

    def test_reparameterization_invariance(self):
        start = time.perf_counter()
        from poptomo.tomography import PopulationPredictor, _WeightedCost

        rng = np.random.default_rng(9)
        rho_true = pt.DensityMatrix(oracles.random_density(rng, 5))
        model = pt.EvolutionModel(hamiltonian=LADDER, gamma=375.0)
        record = synthesize(rho_true, seed=900, noiseless=True)
        cost = _WeightedCost(PopulationPredictor(model, record.times), record)
        cfg = pt.SubplexConfig(
            simplex=pt.SimplexConfig(max_evals=20_000), restarts=1
        )
        x0 = rng.standard_normal(25)
        a = pt.subplex(cost, x0, cfg)
        b = pt.subplex(cost, 2.0 * x0, cfg)
        assert a.best_f == b.best_f
        print(f"\n  [8f] reparameterization invariance: PASS [{time.perf_counter() - start:.1f}s]")

    def test_window_monotonicity(self, window_study):
        short, mid, _ = sorted(window_study)
        assert float(np.median(window_study[mid])) <= float(np.median(window_study[short]))
        print("\n  [8g] window monotonicity: PASS (shared with criterion 5)")

    def test_gamma_argmin_correctness(self, gamma_recovery_sweeps):
        for sweep in gamma_recovery_sweeps.values():
            for wi in range(sweep.windows.size):
                gi = int(np.argmin(sweep.error_surface[wi]))
                assert sweep.gamma_opt[wi] == sweep.gammas[gi]
        print("\n  [8h] gamma argmin correctness: PASS (shared with criterion 6)")


def test_criterion_9_optimizer_benchmarks():
    start = time.perf_counter()

    def rosen2(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    quad = lambda x: float(x @ x)

    rosen_res = pt.nelder_mead(rosen2, [-1.2, 1.0])
    assert rosen_res.best_f < 1e-6

    sub = pt.subplex(quad, np.ones(25))
    whole = pt.nelder_mead(quad, np.ones(25))
    assert sub.best_f < 1e-8
    assert sub.evals < whole.evals
    report(
        9,
        "optimizer benchmarks",
        f"Rosenbrock {rosen_res.best_f:.1e}; 25-dim quad {sub.best_f:.1e} in "
        f"{sub.evals} evals vs {whole.evals} whole-space",
        time.perf_counter() - start,
        120.0,
    )
