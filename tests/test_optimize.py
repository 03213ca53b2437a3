import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poptomo as pt
import oracles
from poptomo.optimize import bfgs


def sphere(x):
    return float(x @ x)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def wiggle(x):
    """A bowl with ripples: its simplex runs contract inside and shrink."""
    return float(x @ x + 0.1 * np.sin(50.0 * x).sum())


def terraces(x):
    """Piecewise constant, so a contraction can tie with its reflection."""
    return float(np.abs(np.floor(4.0 * x)).sum() + 0.01 * np.floor(10.0 * float(x @ x)))


def kinked_box(x):
    """max|x_i| + 0.001 |x|^2 and its gradient away from the kinks."""
    a = np.abs(x)
    k = int(np.argmax(a))
    g = 0.002 * x
    g[k] += math.copysign(1.0, x[k])
    return float(a[k] + 0.001 * float(x @ x)), g


def rosenbrock_grad(x):
    inner = x[1:] - x[:-1] ** 2
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * inner - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * inner
    return grad


def split(fg):
    """bfgs's value and gradient functions for an objective that returns both."""
    return (lambda x: fg(x)[0]), (lambda x: fg(x)[1])


class TestNelderMead:
    def test_convex_quadratic(self):
        res = pt.nelder_mead(sphere, [1.0, 1.0, 1.0])
        assert res.best_f < 1e-10
        assert np.abs(res.best_x).max() < 1e-4

    def test_rosenbrock_2d(self):
        res = pt.nelder_mead(rosenbrock, [-1.2, 1.0])
        assert res.best_f < 1e-6
        np.testing.assert_allclose(res.best_x, [1.0, 1.0], atol=1e-3)

    def test_constant_function_converges_by_ftol(self):
        res = pt.nelder_mead(lambda x: 42.0, [0.3, -0.7])
        assert res.converged_by == pt.optimize.FTOL
        assert res.best_f == 42.0

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x0 = rng.standard_normal(4) * 3.0
            res = pt.nelder_mead(rosenbrock, x0)
            assert res.best_f <= rosenbrock(x0)

    def test_single_nonfinite_value_tolerated(self):
        calls = {"n": 0}

        def sometimes_nan(x):
            calls["n"] += 1
            if calls["n"] == 5:
                return math.nan
            return sphere(x)

        res = pt.nelder_mead(sometimes_nan, [1.0, 1.0])
        assert res.best_f < 1e-8

    def test_repeated_nonfinite_aborts(self):
        def bad(x):
            return math.inf if x[0] < 0.5 else sphere(x)

        with pytest.raises(pt.NonFiniteObjective):
            pt.nelder_mead(bad, [1.0, 1.0])

    def test_budget_respected(self):
        cfg = pt.SimplexConfig(max_evals=37)
        evals = {"n": 0}

        def counted(x):
            evals["n"] += 1
            return sphere(x)

        res = pt.nelder_mead(counted, np.ones(6), cfg)
        assert res.converged_by == pt.optimize.MAX_EVALS
        assert res.evals == evals["n"] == 37

    def test_config_validation(self):
        with pytest.raises(pt.ValidationError, match="max_evals"):
            pt.SimplexConfig(max_evals=0)
        with pytest.raises(pt.ValidationError, match="rng_seed"):
            pt.SubplexConfig(rng_seed=-1)
        with pytest.raises(pt.ValidationError, match="restarts"):
            pt.SubplexConfig(restarts=0)
        with pytest.raises(pt.ValidationError, match="x0"):
            pt.nelder_mead(sphere, [1.0, math.nan])
        with pytest.raises(pt.ValidationError, match="x0"):
            pt.subplex(sphere, np.r_[np.ones(7), math.inf])

    @pytest.mark.parametrize(
        "run",
        [
            lambda: pt.nelder_mead(sphere, []),
            lambda: pt.subplex(sphere, np.empty(0)),
            lambda: pt.multi_start(sphere, lambda rng: [], pt.SubplexConfig(restarts=2)),
            lambda: bfgs(sphere, lambda x: 2.0 * x, [], 10),
        ],
        ids=["nelder_mead", "subplex", "multi_start", "bfgs"],
    )
    def test_empty_start_rejected(self, run):
        # a 0-dimensional simplex has no vertex to sort, and bfgs no gradient to follow
        with pytest.raises(pt.ValidationError, match="x0"):
            run()


class TestSubplex:
    def test_25d_separable_quadratic_beats_whole_space(self):
        x0 = np.ones(25)
        sub = pt.subplex(sphere, x0)
        whole = pt.nelder_mead(sphere, x0)
        assert sub.best_f < 1e-8
        assert sub.evals < whole.evals

    def test_small_dimension_equals_single_nelder_mead(self):
        cfg = pt.SubplexConfig()
        x0 = np.array([1.0, -2.0, 0.5])
        sub = pt.subplex(rosenbrock, x0, cfg)
        nm = pt.nelder_mead(rosenbrock, x0, cfg.simplex)
        assert sub.best_f == nm.best_f
        assert sub.evals == nm.evals
        np.testing.assert_array_equal(sub.best_x, nm.best_x)

    def test_rosenbrock_10d_within_budget(self):
        cfg = pt.SubplexConfig(simplex=pt.SimplexConfig(max_evals=100_000))
        res = pt.subplex(rosenbrock, np.zeros(10), cfg)
        assert res.best_f < 1e-4
        assert res.evals <= 100_000

    def test_monotone_best_so_far(self):
        best_trace = []
        best = [math.inf]

        def traced(x):
            v = rosenbrock(x)
            best[0] = min(best[0], v)
            best_trace.append(best[0])
            return v

        pt.subplex(traced, np.zeros(8))
        assert all(a >= b for a, b in zip(best_trace, best_trace[1:]))

    def test_scale_sanity(self):
        c = 10.0
        x0 = np.full(8, 2.0)
        plain = pt.subplex(sphere, x0)
        scaled = pt.subplex(lambda x: sphere(c * x), x0 / c)
        assert scaled.best_f == pytest.approx(plain.best_f, abs=1e-6)

    def test_partition_sizes(self):
        from poptomo.optimize import _partition_sizes

        assert _partition_sizes(25) == [5, 5, 5, 5, 5]
        for n in range(6, 500):
            sizes = _partition_sizes(n)
            assert sum(sizes) == n
            assert all(2 <= s <= 5 for s in sizes)


class TestPinnedTrajectories:
    """Exact results of fixed searches; any change to the simplex moves them."""

    def test_nelder_mead_rosenbrock_2d(self):
        res = pt.nelder_mead(rosenbrock, [-1.2, 1.0])
        assert (res.best_f, res.evals, res.converged_by) == (
            2.7814425492442686e-13, 216, pt.optimize.FTOL
        )

    def test_subplex_rosenbrock_10d(self):
        cfg = pt.SubplexConfig(simplex=pt.SimplexConfig(max_evals=100_000))
        res = pt.subplex(rosenbrock, np.zeros(10), cfg)
        assert (res.best_f, res.evals, res.converged_by) == (
            1.1548376314905407e-10, 19277, pt.optimize.XTOL
        )

    def test_multi_start_rosenbrock_7d(self):
        cfg = pt.SubplexConfig(
            simplex=pt.SimplexConfig(max_evals=5000), restarts=3, rng_seed=7
        )
        res = pt.multi_start(rosenbrock, lambda rng: 2.0 * rng.standard_normal(7), cfg)
        assert (res.best_f, res.evals, res.converged_by) == (
            0.03789738267051111, 15000, pt.optimize.MAX_EVALS
        )


def _nan_every_97th_call():
    """wiggle, but NaN on every 97th call counted across all runs."""
    calls = itertools.count(1)
    return lambda x: math.nan if next(calls) % 97 == 0 else wiggle(x)


def _subplex_cfg(max_evals, restarts=32, rng_seed=0):
    return pt.SubplexConfig(pt.SimplexConfig(max_evals=max_evals), restarts, rng_seed)


X4 = [-1.2, 1.0, 0.5, -0.3]
MAX_EVALS = pt.optimize.MAX_EVALS
PINNED_RUNS = [
    pytest.param(
        lambda: pt.nelder_mead(wiggle, X4, pt.SimplexConfig(max_evals=3)),
        ("2.70597961771434", 3, MAX_EVALS, ["2.70597961771434"]),
        id="nm-budget-in-initial-simplex",
    ),
    pytest.param(
        lambda: pt.nelder_mead(wiggle, [1.3, -0.7], pt.SimplexConfig(max_evals=28)),
        ("-0.0475173824150035", 28, MAX_EVALS, ["-0.0475173824150035"]),
        id="nm2-budget-in-shrink",
    ),
    pytest.param(
        lambda: pt.nelder_mead(wiggle, X4, pt.SimplexConfig(max_evals=50)),
        ("1.2753929683817469", 50, MAX_EVALS, ["1.2753929683817469"]),
        id="nm4-budget-in-shrink",
    ),
    pytest.param(
        lambda: pt.nelder_mead(wiggle, X4, pt.SimplexConfig(max_evals=3000)),
        ("1.1077163588271846", 292, pt.optimize.FTOL, ["1.1077163588271846"]),
        id="nm4-converged",
    ),
    pytest.param(
        lambda: pt.nelder_mead(terraces, [1.3, -0.7]),
        ("2.01", 26, pt.optimize.FTOL, ["2.01"]),
        id="nm2-contraction-ties-reflection",
    ),
    pytest.param(
        lambda: pt.subplex(terraces, np.linspace(-2.0, 2.0, 7)),
        ("0.0", 328, pt.optimize.XTOL, ["0.0"]),
        id="subplex7-contraction-ties-reflection",
    ),
    pytest.param(
        lambda: pt.subplex(wiggle, np.linspace(-1.0, 1.0, 7), _subplex_cfg(1)),
        ("3.1111111111111116", 1, MAX_EVALS, ["3.1111111111111116"]),
        id="subplex-budget-is-the-start",
    ),
    pytest.param(
        lambda: pt.subplex(wiggle, np.linspace(-1.0, 1.0, 7), _subplex_cfg(3)),
        ("3.1111111111111116", 3, MAX_EVALS, ["3.1111111111111116"]),
        id="subplex-budget-in-first-simplex",
    ),
    pytest.param(
        # the second cycle's second block starts at evaluation 653
        lambda: pt.subplex(wiggle, np.linspace(-1.0, 1.0, 7), _subplex_cfg(700)),
        ("0.874703077156403", 700, MAX_EVALS, ["0.874703077156403"]),
        id="subplex7-budget-mid-cycle",
    ),
    pytest.param(
        lambda: pt.subplex(wiggle, np.linspace(-1.0, 1.0, 7), _subplex_cfg(3000)),
        ("0.7558954269077007", 1548, pt.optimize.FTOL, ["0.7558954269077007"]),
        id="subplex7-converged",
    ),
    pytest.param(
        # the second cycle's third block starts at evaluation 1331
        lambda: pt.subplex(wiggle, np.linspace(-2.0, 1.0, 12), _subplex_cfg(1500)),
        ("-0.7102112582481767", 1500, MAX_EVALS, ["-0.7102112582481767"]),
        id="subplex12-budget-mid-cycle",
    ),
    pytest.param(
        lambda: pt.subplex(wiggle, np.linspace(-2.0, 1.0, 12), _subplex_cfg(3000)),
        ("-0.718274424712559", 2952, pt.optimize.XTOL, ["-0.718274424712559"]),
        id="subplex12-converged",
    ),
    pytest.param(
        # restarts 2 and 4 meet two NaNs and fail; their evaluations do not count
        lambda: pt.multi_start(
            _nan_every_97th_call(),
            lambda rng: 1.5 * rng.standard_normal(6),
            _subplex_cfg(150, restarts=5, rng_seed=5),
        ),
        (
            "2.365330119863304",
            450,
            MAX_EVALS,
            ["4.0157095859476195", "inf", "10.531688259824756", "inf", "2.365330119863304"],
        ),
        id="multi-start-nan-every-97th-call",
    ),
]


class TestPinnedBookkeeping:
    """Exact results where a run stops: in the initial simplex, in a shrink,
    mid-cycle, on convergence, and across failed restarts."""

    @pytest.mark.parametrize("run, expected", PINNED_RUNS)
    def test_pinned_run(self, run, expected):
        res = run()
        assert (repr(res.best_f), res.evals, res.converged_by) == expected[:3]
        assert [repr(float(v)) for v in res.per_restart_f] == expected[3]

    @pytest.mark.parametrize("max_evals", [150, 400])
    def test_multi_start_with_every_start_failed(self, max_evals):
        cfg = _subplex_cfg(max_evals, restarts=5, rng_seed=5)
        sampler = lambda rng: 1.5 * rng.standard_normal(6)
        with pytest.raises(pt.NonFiniteObjective, match="^all 5 starts failed$") as info:
            pt.multi_start(lambda x: math.nan, sampler, cfg)
        assert str(info.value.__cause__) == "objective returned a non-finite value more than once"
        if max_evals == 400:
            # every run is long enough to meet two of the 97th-call NaNs
            with pytest.raises(pt.NonFiniteObjective, match="^all 5 starts failed$"):
                pt.multi_start(_nan_every_97th_call(), sampler, cfg)

    @pytest.mark.parametrize("n", [2, 4, 5, 7, 12])
    @pytest.mark.parametrize("method", ["nelder_mead", "subplex"])
    def test_best_value_is_the_objective_at_the_best_point(self, method, n):
        # for every budget: the reported value is f at the reported point,
        # and the budget is kept
        x0 = np.linspace(-1.0, 1.0, n) + 0.3
        for max_evals in range(1, 400):
            calls = []

            def counted(x):
                calls.append(x)
                return wiggle(x)

            if method == "nelder_mead":
                res = pt.nelder_mead(counted, x0, pt.SimplexConfig(max_evals=max_evals))
            else:
                res = pt.subplex(counted, x0, _subplex_cfg(max_evals))
            assert wiggle(res.best_x) == res.best_f
            assert res.evals == len(calls) <= max_evals


def reference_objective(kind, n, seed):
    """A random convex quadratic, Rosenbrock, or a plateau floor(8 q(x)) of
    the quadratic, whose ties the simplex must break as a stable sort does."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    hessian = m @ m.T + 0.1 * np.eye(n)
    center = rng.standard_normal(n)

    def quadratic(x):
        d = x - center
        return float(d @ hessian @ d)

    if kind == "rosenbrock":
        return rosenbrock
    if kind == "plateau":
        return lambda x: math.floor(8.0 * quadratic(x))
    return quadratic


def assert_matches_reference(f, x0, cfg):
    """nelder_mead equals the reference bit for bit; True if the run stopped in a shrink."""
    want_x, want_f, want_evals, want_reason, in_shrink = oracles.nelder_mead_reference(
        f, x0, cfg.max_evals
    )
    res = pt.nelder_mead(f, x0, cfg)
    assert res.best_x.tobytes() == want_x.tobytes()
    assert repr(res.best_f) == repr(want_f)
    assert (res.evals, res.converged_by) == (want_evals, want_reason)
    return in_shrink


class TestReferenceSimplex:
    """nelder_mead keeps its simplex sorted by insertion; every bit of a run
    must equal the reference that argsorts and copies every iteration."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["quadratic", "rosenbrock", "plateau"]),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.integers(0, 2),
        max_evals=st.integers(1, 600) | st.just(200_000),
    )
    def test_bit_equal_to_the_reference(self, kind, n, seed, zeros, max_evals):
        x0 = np.random.default_rng(seed).standard_normal(n)
        x0[:zeros] = 0.0  # zero coordinates take the absolute initial step
        f = reference_objective(kind, n, seed)
        assert_matches_reference(f, x0, pt.SimplexConfig(max_evals=max_evals))

    @pytest.mark.parametrize(
        "f, n",
        [
            (wiggle, 2),
            (wiggle, 4),
            (reference_objective("plateau", 3, 4), 3),
            (reference_objective("plateau", 4, 1), 4),
        ],
        ids=["wiggle2", "wiggle4", "plateau3", "plateau4"],
    )
    def test_every_budget_including_mid_shrink(self, f, n):
        x0 = np.linspace(-1.0, 1.0, n) + 0.3
        mid_shrink = [
            assert_matches_reference(f, x0, pt.SimplexConfig(max_evals=max_evals))
            for max_evals in range(1, 301)
        ]
        assert any(mid_shrink)

    @pytest.mark.parametrize("method, n", [("nelder_mead", 4), ("subplex", 4), ("subplex", 9)])
    def test_objective_arguments_are_never_written_after_the_call(self, method, n):
        seen = []

        def recorded(x):
            seen.append((x, x.copy()))
            return wiggle(x)

        x0 = np.linspace(-1.0, 1.0, n) + 0.3
        getattr(pt, method)(recorded, x0, _subplex_cfg(2_000) if method == "subplex" else None)
        assert all(np.array_equal(x, snapshot) for x, snapshot in seen)


class TestMultiStart:
    def test_single_restart_equals_subplex(self):
        cfg = pt.SubplexConfig(restarts=1, rng_seed=123)
        sampler_rng = np.random.default_rng(123)
        start = sampler_rng.standard_normal(6)
        multi = pt.multi_start(
            sphere, lambda rng: rng.standard_normal(6), cfg
        )
        single = pt.subplex(sphere, start, cfg)
        assert multi.best_f == single.best_f
        np.testing.assert_array_equal(multi.best_x, single.best_x)

    def test_multimodal_finds_global_basin(self):
        def f(x):
            return float(np.sin(5.0 * x[0]) + 0.1 * x[0] ** 2)

        grid = np.arange(-10.0, 10.0, 1e-3)
        oracle = float(np.min(np.sin(5.0 * grid) + 0.1 * grid**2))
        cfg = pt.SubplexConfig(restarts=32, rng_seed=0)
        res = pt.multi_start(f, lambda rng: rng.uniform(-10.0, 10.0, size=1), cfg)
        assert res.best_f == pytest.approx(oracle, abs=1e-4)

    def test_deterministic_repeat(self):
        cfg = pt.SubplexConfig(
            simplex=pt.SimplexConfig(max_evals=20_000), restarts=5, rng_seed=7
        )
        sampler = lambda rng: rng.standard_normal(6) * 2.0
        a = pt.multi_start(rosenbrock, sampler, cfg)
        b = pt.multi_start(rosenbrock, sampler, cfg)
        assert a.best_f == b.best_f
        assert a.evals == b.evals
        assert a.converged_by == b.converged_by
        np.testing.assert_array_equal(a.best_x, b.best_x)
        np.testing.assert_array_equal(a.per_restart_f, b.per_restart_f)

    def test_best_is_min_of_restarts(self):
        cfg = pt.SubplexConfig(restarts=6, rng_seed=3)
        res = pt.multi_start(rosenbrock, lambda rng: rng.standard_normal(4), cfg)
        assert res.best_f == res.per_restart_f.min()

    def test_fails_only_if_all_starts_fail(self):
        def nan_everywhere(x):
            return math.nan

        cfg = pt.SubplexConfig(restarts=3, rng_seed=0)
        with pytest.raises(pt.NonFiniteObjective):
            pt.multi_start(nan_everywhere, lambda rng: rng.standard_normal(3), cfg)

    def test_partial_failures_tolerated(self):
        def nan_far_left(x):
            return math.nan if x[0] < -50.0 else sphere(x)

        starts = iter([np.array([-101.0, 0.0]), np.array([2.0, 2.0])])
        cfg = pt.SubplexConfig(restarts=2, rng_seed=0)
        res = pt.multi_start(nan_far_left, lambda rng: next(starts), cfg)
        assert res.best_f < 1e-8
        assert res.per_restart_f[0] == math.inf


class TestBFGS:
    @staticmethod
    def quadratic(dim, seed):
        """0.5 (x - x*)^T A (x - x*) with A's eigenvalues spread over 1..100."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a = (q * np.logspace(0.0, 2.0, dim)) @ q.T
        minimizer = rng.standard_normal(dim)

        def fg(x):
            d = x - minimizer
            ad = a @ d
            return 0.5 * float(d @ ad), ad

        return fg, minimizer

    @pytest.mark.parametrize("seed", range(4))
    def test_convex_quadratic(self, seed):
        fg, minimizer = self.quadratic(12, seed)
        res = bfgs(*split(fg), np.zeros(12), 10_000)
        assert res.best_f <= 1e-12
        assert np.abs(res.best_x - minimizer).max() <= 1e-12

    def test_rosenbrock(self):
        res = bfgs(rosenbrock, rosenbrock_grad, np.zeros(6), 10_000)
        assert res.best_f < 1e-12
        np.testing.assert_allclose(res.best_x, np.ones(6), atol=1e-6)

    @pytest.mark.parametrize("budget", [1, 2, 7, 30, 200])
    def test_budget_respected(self, budget):
        calls = []

        def counted(x):
            calls.append(x)
            return rosenbrock(x)

        x0 = np.full(6, -0.5)
        res = bfgs(counted, rosenbrock_grad, x0, budget)
        assert res.evals == len(calls) <= budget
        assert res.best_f <= rosenbrock(x0)
        if budget < 30:
            assert res.converged_by == pt.optimize.MAX_EVALS

    @pytest.mark.parametrize("budget", [30, 300])
    def test_gradient_only_where_a_step_is_accepted(self, budget):
        calls = []

        def f(x):
            calls.append(("f", x))
            return rosenbrock(x)

        def grad(x):
            calls.append(("grad", x))
            return rosenbrock_grad(x)

        res = bfgs(f, grad, np.full(6, -0.5), budget)
        values = [x for kind, x in calls if kind == "f"]
        accepted = [i for i, (kind, _) in enumerate(calls) if kind == "grad"]
        assert len(values) == res.evals
        # every gradient is at the point of the value call just before it
        assert all(i > 0 and calls[i - 1][0] == "f" and calls[i][1] is calls[i - 1][1] for i in accepted)
        # the start, then each accepted step: f strictly falls along them,
        # and the last is the result
        path = [rosenbrock(calls[i][1]) for i in accepted]
        assert all(b < a for a, b in zip(path, path[1:]))
        assert calls[accepted[-1]][1].tobytes() == res.best_x.tobytes()
        assert accepted[0] == 1 and len(accepted) < len(values)

    def test_deterministic(self):
        a = bfgs(rosenbrock, rosenbrock_grad, np.full(6, -0.5), 300)
        b = bfgs(rosenbrock, rosenbrock_grad, np.full(6, -0.5), 300)
        assert a.best_x.tobytes() == b.best_x.tobytes()
        assert (a.best_f, a.evals, a.converged_by) == (b.best_f, b.evals, b.converged_by)

    def test_zero_gradient_stops_at_once(self):
        res = bfgs(sphere, lambda x: 2.0 * x, np.zeros(3), 100)
        assert (res.best_f, res.evals, res.converged_by) == (0.0, 1, pt.optimize.GTOL)

    def test_stall_on_a_slope_too_shallow_to_matter(self):
        # every line search succeeds, but STALL_ITERS iterations together
        # lower f by 1e-8, below STALL_RTOL * f
        res = bfgs(lambda x: 1.0 + 1e-5 * float(x[0]), lambda x: np.array([1e-5]), np.zeros(1), 1_000)
        assert (res.converged_by, res.evals) == (pt.optimize.STALL, pt.optimize.STALL_ITERS + 1)
        assert res.best_x[0] == pytest.approx(-1e-5 * pt.optimize.STALL_ITERS, rel=1e-12)

    def test_restart_after_a_non_descent_direction(self):
        # At the kink of max|x_i| the steps shrink until s.y is about 2e-162:
        # s.y**2 is then subnormal, the rounded update leaves an inverse that
        # is not positive definite, and bfgs restarts from the identity, whose
        # first trial is the steepest-descent point x - g.
        trials = []
        steepest = set()

        def box(x):
            trials.append(x.copy())
            return kinked_box(x)[0]

        def box_grad(x):
            g = kinked_box(x)[1]
            if len(trials) > 1:
                steepest.add((x - g).tobytes())
            return g

        res = bfgs(box, box_grad, np.array([5.0, 3.0]), 5_000)
        assert (res.converged_by, res.evals) == (pt.optimize.LINE_SEARCH, 591)
        assert [i for i, x in enumerate(trials) if i > 1 and x.tobytes() in steepest] == [550]

    def test_update_skipped_when_sy_squared_underflows(self):
        # from (3, 1) the kink shrinks s.y until s.y**2 rounds to 0
        res = bfgs(*split(kinked_box), np.array([3.0, 1.0]), 5_000)
        assert (res.converged_by, res.evals) == (pt.optimize.LINE_SEARCH, 1_090)

    def test_update_skipped_when_sy_squared_overflows(self):
        # s.y = 1.25e155 on the first step, and Python's float ** raises on overflow
        res = bfgs(lambda x: float(x @ x) / 4.0, lambda x: x / 2.0, np.array([1e78]), 100)
        assert (res.converged_by, res.evals, res.best_f) == (pt.optimize.GTOL, 5, 0.0)

    def test_scaled_objectives_raise_nothing(self):
        # quadratics and quartics whose x, g and f scale as c, c and c**2, and
        # the kinked box scaled as c, 1 and c: at c far from 1, s.y**2 under-
        # or overflows, and y.y can round to 0
        rng = np.random.default_rng(17)
        for _ in range(200):
            kind = ("quadratic", "kinked", "quartic")[rng.integers(3)]
            c = 10.0 ** rng.uniform(-150.0, 150.0)
            x0 = c * rng.uniform(-4.0, 4.0, rng.integers(1, 5))
            w = rng.uniform(0.1, 10.0, x0.size)
            if kind == "quadratic":
                fg = lambda x, w=w: (0.5 * float(x @ (w * x)), w * x)
            elif kind == "kinked":
                fg = lambda x, c=c: (c * kinked_box(x / c)[0], kinked_box(x / c)[1])
            else:
                def fg(x, c=c, w=w):
                    u = x / c
                    with np.errstate(over="ignore", invalid="ignore"):
                        return c**2 * float(w @ u**4), 4.0 * c * (w * u**3)
            res = bfgs(*split(fg), x0, 200)
            assert res.evals <= 200
            assert res.best_f <= fg(x0)[0]

    def test_non_finite_trial_shortens_the_step(self):
        def wall(x):
            if x[0] > 0.5:
                return math.nan, np.full_like(x, math.nan)
            return float((x[0] - 1.0) ** 2), np.array([2.0 * (x[0] - 1.0)])

        res = bfgs(*split(wall), np.array([-3.0]), 1_000)
        assert res.best_x[0] <= 0.5
        assert res.best_f < wall(np.array([-3.0]))[0]

    def test_validation(self):
        with pytest.raises(pt.ValidationError):
            bfgs(rosenbrock, rosenbrock_grad, np.array([0.0, math.inf]), 10)
        with pytest.raises(pt.ValidationError):
            bfgs(rosenbrock, rosenbrock_grad, np.zeros(2), 0)
        with pytest.raises(pt.NonFiniteObjective):
            bfgs(lambda x: math.nan, lambda x: x, np.zeros(2), 10)
