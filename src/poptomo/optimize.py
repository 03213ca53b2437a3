"""Minimization over real vectors.

A dense BFGS with Armijo backtracking (``bfgs``), for objectives that
supply their gradient, is the only solver a reconstruction runs.  Three
derivative-free tools stay public and are checked on their own: a
classic reflect/expand/contract/shrink simplex (``nelder_mead``,
Nelder & Mead 1965), Rowan's subspace-cycling wrapper that runs the
simplex on small blocks of coordinates ordered by recent progress
(``subplex``), and a seeded multi-start loop over it (``multi_start``).
Nothing in the package calls them, so they stay plain textbook loops.
Everything is deterministic for a fixed seed and respects a hard
evaluation budget.  Only numpy is used: importing
``scipy.optimize`` would add about 20 MB and more start-up time than a
whole reconstruction takes.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteObjective, ValidationError

XTOL = "xtol"
FTOL = "ftol"
MAX_EVALS = "max_evals"
LINE_SEARCH = "line_search"
STALL = "stall"
GTOL = "gtol"

# Nelder & Mead's coefficients (Comput. J. 7, 308, 1965), which are also
# Rowan's subplex defaults.
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5
# Largest subplex block; at this bound ceil(n / NSMAX) blocks are never
# smaller than 2.
NSMAX = 5
# Initial simplex offset, relative to each start coordinate.
INITIAL_STEP = 0.1
# A simplex's diameter, or a subplex cycle's largest move, below this stops on xtol.
X_TOL = 1e-8
# A simplex's value spread, or a subplex cycle's gain, below this stops on ftol.
F_TOL = 1e-12
# Armijo sufficient-decrease fraction and the backtracking factor of bfgs.
ARMIJO = 1e-4
BACKTRACK = 0.5
# A bfgs line search that has not met the Armijo condition after this many
# halvings has failed: the direction no longer descends at float precision.
MAX_BACKTRACKS = 40
# bfgs has stalled once its last STALL_ITERS iterations together lowered f
# by at most STALL_RTOL * f: at a kink of f (a non-smooth point) the line
# search keeps succeeding with steps that buy almost nothing.
STALL_RTOL = 1e-7
STALL_ITERS = 100


@dataclass(frozen=True)
class SimplexConfig:
    """Evaluation budget of one simplex run."""

    max_evals: int = 200_000

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValidationError("max_evals must be at least 1")


@dataclass(frozen=True)
class SubplexConfig:
    """Simplex stopping rules plus the multi-start restart policy."""

    simplex: SimplexConfig = field(default_factory=SimplexConfig)
    restarts: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best point found plus bookkeeping for diagnostics."""

    best_x: np.ndarray
    best_f: float
    evals: int
    converged_by: str
    per_restart_f: np.ndarray


def _single_run(best_x, best_f, evals, converged_by):
    """The result of one run, which is its own only restart."""
    return OptResult(best_x, best_f, evals, converged_by, np.array([best_f]))


def _start(x0):
    """x0 as a flat float vector; ValidationError unless it is non-empty and finite."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size == 0 or not np.all(np.isfinite(x0)):
        raise ValidationError(f"x0 must be a non-empty finite vector, got {x0.size} entries")
    return x0


class _BudgetExhausted(Exception):
    """Internal control flow: the evaluation budget ran out."""


class _Evaluator:
    """Counts evaluations, enforces the budget, maps one NaN/inf to +inf."""

    __slots__ = ("func", "max_evals", "evals", "nonfinite")

    def __init__(self, func, max_evals):
        self.func = func
        self.max_evals = max_evals
        self.evals = 0
        self.nonfinite = 0

    def __call__(self, x):
        if self.evals >= self.max_evals:
            raise _BudgetExhausted
        self.evals += 1
        value = float(self.func(x))
        if not math.isfinite(value):
            self.nonfinite += 1
            if self.nonfinite > 1:
                raise NonFiniteObjective(
                    "objective returned a non-finite value more than once"
                )
            value = math.inf
        return value


def _initial_steps(x0):
    """Per-coordinate simplex offsets, INITIAL_STEP relative to |x0|.

    Relative scaling keeps the search trajectory covariant under an
    overall rescaling of the start point, which matters when the
    objective itself is scale-invariant.
    """
    return np.where(x0 != 0.0, INITIAL_STEP * x0, INITIAL_STEP)


def _nm_core(ev, x0, steps):
    """One simplex run through a shared evaluator.

    Returns (best_x, best_f, reason); never loses its best vertex, so
    the result is no worse than the start point.
    """
    n = x0.size
    sim = np.repeat(x0[np.newaxis, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] += steps[k]
    fsim = np.full(n + 1, math.inf)
    reason = None
    try:
        for i in range(n + 1):
            fsim[i] = ev(sim[i])
    except _BudgetExhausted:
        reason = MAX_EVALS
    while reason is None:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        if np.abs(sim[1:] - sim[0]).max() < X_TOL:
            reason = XTOL
            break
        if fsim[-1] - fsim[0] < F_TOL:
            reason = FTOL
            break
        try:
            centroid = sim[:-1].mean(axis=0)
            xr = centroid + REFLECTION * (centroid - sim[-1])
            fr = ev(xr)
            if fr < fsim[0]:
                xe = centroid + REFLECTION * EXPANSION * (centroid - sim[-1])
                fe = ev(xe)
                sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fr
            else:
                # contract outside if the reflection beat the worst vertex,
                # else inside; keep the point if it is no worse than the
                # reflection and better than the worst vertex, else shrink
                coef = CONTRACTION * REFLECTION if fr < fsim[-1] else -CONTRACTION
                xc = centroid + coef * (centroid - sim[-1])
                fc = ev(xc)
                if fc <= fr and fc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fc
                else:
                    for i in range(1, n + 1):
                        xs = sim[0] + SHRINK * (sim[i] - sim[0])
                        fs = ev(xs)
                        sim[i], fsim[i] = xs, fs
        except _BudgetExhausted:
            reason = MAX_EVALS
    best = int(np.argmin(fsim))
    return sim[best].copy(), float(fsim[best]), reason


def nelder_mead(f, x0, cfg=None):
    """Minimize f from x0 with a single Nelder-Mead simplex.

    The initial simplex offsets each coordinate by INITIAL_STEP relative
    to it.  Stops when the simplex diameter drops below X_TOL, the
    value spread drops below F_TOL, or the budget runs out.
    """
    cfg = cfg if cfg is not None else SimplexConfig()
    x0 = _start(x0)
    ev = _Evaluator(f, cfg.max_evals)
    best_x, best_f, reason = _nm_core(ev, x0, _initial_steps(x0))
    return _single_run(best_x, best_f, ev.evals, reason)


def _partition_sizes(n):
    """Split n > NSMAX coordinates into ceil(n / NSMAX) near-equal blocks."""
    k = math.ceil(n / NSMAX)
    base, extra = divmod(n, k)
    return [base + 1] * extra + [base] * (k - extra)


def subplex(f, x0, cfg=None):
    """Minimize f by cycling Nelder-Mead over progress-ordered subspaces.

    Coordinates are sorted by the magnitude of their change in the last
    cycle and partitioned into blocks of 2..NSMAX; each block is
    minimized with the others frozen.  Cycling stops when a full cycle
    improves less than F_TOL, moves less than X_TOL, or exhausts
    the budget.  The best value is non-increasing across cycles.  With
    at most NSMAX coordinates this is one ``nelder_mead`` run.
    """
    cfg = cfg if cfg is not None else SubplexConfig()
    x0 = _start(x0)
    n = x0.size
    if n <= NSMAX:
        return nelder_mead(f, x0, cfg.simplex)

    ev = _Evaluator(f, cfg.simplex.max_evals)
    x = x0.copy()
    fx = ev(x0)  # x is written in place below, x0 never is

    def sub(y):
        # f on the current x with the current block idx replaced by y
        z = x.copy()
        z[idx] = y
        return ev(z)

    step_vec = _initial_steps(x0)
    dx = np.zeros(n)
    sizes = _partition_sizes(n)
    reason = None
    while reason is None:
        x_prev = x.copy()
        f_prev = fx
        order = np.argsort(-np.abs(dx), kind="stable")
        start = 0
        for size in sizes:
            idx = order[start : start + size]
            start += size
            sub_x, sub_f, sub_reason = _nm_core(sub, x[idx], step_vec[idx])
            if sub_f <= fx:
                x[idx] = sub_x
                fx = sub_f
            if sub_reason == MAX_EVALS:
                reason = MAX_EVALS
                break
        if reason is not None:
            break
        dx = x - x_prev
        if np.abs(dx).max() < X_TOL:
            reason = XTOL
        elif f_prev - fx < F_TOL:
            reason = FTOL
        else:
            dx_norm = np.abs(dx).sum()
            step_norm = np.abs(step_vec).sum()
            scale = dx_norm / step_norm if dx_norm > 0.0 and step_norm > 0.0 else 0.25
            scale = min(max(scale, 0.1), 10.0)
            magnitude = scale * np.abs(step_vec)
            sign = np.where(dx != 0.0, np.sign(dx), np.sign(step_vec))
            step_vec = sign * magnitude
    return _single_run(x, fx, ev.evals, reason)


def multi_start(f, sampler, cfg=None):
    """Run subplex from ``cfg.restarts`` sampled starts; keep the best.

    ``sampler(rng)`` must return a start vector; it is called with a
    generator seeded from ``cfg.rng_seed``, so results are reproducible.
    Individual starts may fail with a non-finite objective; the call
    fails only if every start does.
    """
    cfg = cfg if cfg is not None else SubplexConfig()
    rng = np.random.default_rng(cfg.rng_seed)
    runs = []
    per_restart = []
    last_error = None
    for _ in range(cfg.restarts):
        try:
            runs.append(subplex(f, sampler(rng), cfg))
            per_restart.append(runs[-1].best_f)
        except NonFiniteObjective as exc:
            per_restart.append(math.inf)
            last_error = exc
    if not runs:
        raise NonFiniteObjective(
            f"all {cfg.restarts} starts failed"
        ) from last_error
    winner = min(runs, key=lambda r: r.best_f)
    evals = sum(r.evals for r in runs)
    return replace(winner, evals=evals, per_restart_f=np.array(per_restart))


def bfgs(f, grad, x0, max_evals):
    """Minimize a smooth f from x0 with dense BFGS and Armijo backtracking.

    ``f(x)`` returns the value and ``grad(x)`` the gradient.  Each ``f``
    call counts one evaluation against ``max_evals``.  A line search needs
    only values, so ``grad`` is called once at the start and once per
    accepted step, each time on the ``x`` of the latest ``f`` call: an
    objective may finish the gradient from what that value call left.
    The inverse Hessian starts as the identity and
    is scaled by s.y / y.y before its first update (Nocedal & Wright,
    eq. 6.20); a step that does not raise the slope (s.y <= 0) skips the
    update, and so does one where the update would divide by zero or
    infinity: (s.y)**2 rounds to 0 or overflows, or y.y is 0 before the
    first scaling.  Each line search tries the full step first and halves it
    until f falls by ARMIJO times the predicted decrease.  Stops on a zero
    gradient (``gtol``), a failed line search (``line_search``), a stalled
    decrease (``stall``, see STALL_RTOL) or the budget (``max_evals``).
    A non-finite trial value only shortens the step.  The result is never
    worse than the start, and is deterministic.
    """
    x = _start(x0).copy()
    if max_evals < 1:
        raise ValidationError("max_evals must be at least 1")
    fx = float(f(x))
    if not math.isfinite(fx):
        raise NonFiniteObjective("objective is not finite at the start point")
    g = grad(x)
    evals = 1
    inverse = np.eye(x.size)
    scaled = False
    history = [fx]
    reason = None
    while reason is None:
        if not g.any():
            reason = GTOL
            break
        direction = -inverse.dot(g)
        slope = float(g.dot(direction))
        if slope >= 0.0:
            # rounding cost the inverse its positive definiteness: restart
            inverse = np.eye(x.size)
            scaled = False
            direction = -g
            slope = -float(g.dot(g))
        step = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            if evals >= max_evals:
                reason = MAX_EVALS
                break
            trial = x + direction if step == 1.0 else x + step * direction  # 1.0 * d is d
            f_trial = float(f(trial))
            evals += 1
            if f_trial < fx + ARMIJO * step * slope:
                break
            step *= BACKTRACK
        else:
            reason = LINE_SEARCH
        if reason is not None:
            break
        g_trial = grad(trial)
        s = trial - x
        y = g_trial - g
        sy = float(s.dot(y))
        try:
            sy2 = sy**2
        except OverflowError:
            sy2 = math.inf
        if sy > 0.0 and 0.0 < sy2 < math.inf and (scaled or float(y.dot(y)) > 0.0):
            if not scaled:
                inverse *= sy / float(y.dot(y))
                scaled = True
            hy = inverse.dot(y)
            inverse += ((sy + float(y.dot(hy))) / sy2) * (s[:, None] * s)
            # the terms hy (s/sy)^T and (s/sy) hy^T are each other's transpose
            cross = hy[:, None] * (s / sy)
            inverse -= cross + cross.T
        x, fx, g = trial, f_trial, g_trial
        history.append(fx)
        if len(history) > STALL_ITERS and history[-STALL_ITERS - 1] - fx <= STALL_RTOL * fx:
            reason = STALL
    return _single_run(x, fx, evals, reason)
