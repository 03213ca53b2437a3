"""State reconstruction from population time series.

Given a measurement record and full knowledge of the evolution model,
the initial density matrix is the minimizer of a weighted mean error

    eps(rho0) = (1/n) * sum_i sqrt( sum_j w_ij |pbar_ij - p_ij|^2
                                    / sum_j w_ij ),   w_ij = 1/sigma_ij^2

where ``pbar_ij`` are the simulated populations of sublevel i at time
t_j.  eps is convex in rho0.

The search runs over an unconstrained real parameterization of the
state.  Any finite real vector of length n^2 fills a lower-triangular
factor T (n real diagonal entries, then re/im pairs for the
strictly-lower triangle, row-major) and the state is
``rho = T^H T / Tr(T^H T)``: positive, Hermitian and of unit trace by
construction.  The overall scale of the vector is a gauge freedom (``p``
and ``c * p`` give the same state), which realizes the n^2 - 1 physical
degrees of freedom with one redundant direction.  A full factor leaves
no spurious local minimum (Burer & Monteiro, Math. Program. 103, 427,
2005), so one solver suffices: BFGS on the analytic gradient from the
weighted linear inversion, restarted from its state's own factor only
where BFGS's point is not certified.  Each result carries the Frank-Wolfe
gap, an upper bound on how far its error is above the minimum.  On top
of single reconstructions this module provides the window-length
convergence study and the dephasing-rate sweep.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    DegenerateParams,
    DimensionMismatch,
    EmptyWindow,
    FactorizationFailure,
    GridMismatch,
    NoConvergence,
    PoptomoError,
    ValidationError,
)
from .dynamics import (
    DensityMatrix,
    EvolutionModel,
    evolve,
    make_propagator,
    uhlmann_fidelity,
)
from .optimize import STALL_RTOL, OptResult, SubplexConfig, bfgs
from .optimize import multi_start  # not called: kept only so perfbench/tracing.py can rebind it
from .records import infer_grid_step, truncate_record

RANK_JITTER = 1e-12
EPSILON_CEILING = 1.0
# A BFGS point whose Frank-Wolfe gap is at most this fraction of its error
# is returned as it is; from any other BFGS restarts on its state's factor.
CERTIFIED_RTOL = 1e-6


class PopulationPredictor:
    """Precomputed linear map from vec(rho0) to populations at fixed times.

    Stacks the diagonal-extraction rows of exp(L*t_j) for every record
    time, so each candidate state costs one small matrix-vector product.
    The grid step is inferred from the times: one ``expm``, then prefix
    products over the step gaps.  Built once per (model, grid) and
    reused across optimizer evaluations.
    """

    def __init__(self, model, times):
        times = np.asarray(times, dtype=float).ravel()
        if np.any(np.diff(times) < 0.0):
            raise GridMismatch("times must be sorted")
        self.times = times
        self.dim = n = model.dim
        dt = infer_grid_step(times)
        step = make_propagator(model, dt)
        current = np.eye(n * n, dtype=complex)[np.arange(n) * (n + 1)]
        # (T*n, n^2): row block per time point
        self.matrix = np.empty((times.size * n, n * n), dtype=complex)
        previous = 0
        for j, t in enumerate(times):
            gap = round(t / dt) - previous
            if gap:
                current = current @ (step if gap == 1 else np.linalg.matrix_power(step, gap))
                previous += gap
            self.matrix[j * n:(j + 1) * n] = current

    def populations(self, rho_vec):
        """Population matrix (n, T) for a column-stacked state vector."""
        flat = (self.matrix @ rho_vec).real
        return flat.reshape(self.times.size, self.dim).T


@functools.cache
def _factor_slots(dim):
    """Float offset of each parameter inside the factor T.

    T is a C-ordered complex (dim, dim) array viewed as floats (re, im
    interleaved): the first dim parameters take the real slots of the
    diagonal, then each strictly-lower entry, row-major, takes its real
    and imaginary slots.  Cached per dimension, so read-only.
    """
    rows, cols = np.tril_indices(dim, -1)
    lower = 2 * (rows * dim + cols)
    slots = np.empty(dim * dim, dtype=np.intp)
    slots[:dim] = 2 * np.arange(dim) * (dim + 1)
    slots[dim::2] = lower
    slots[dim + 1 :: 2] = lower + 1
    slots.setflags(write=False)
    return slots


class _Factor:
    """Reused buffers for the factor T of one dimension, its conjugate and
    G = T^H T; each ``gram`` call overwrites them, so it is not reentrant."""

    __slots__ = ("buffer", "T", "slots", "conj", "G", "G_floats")

    def __init__(self, dim):
        self.buffer = np.zeros(2 * dim * dim)
        self.T = self.buffer.view(complex).reshape(dim, dim)
        self.slots = _factor_slots(dim)
        self.conj = np.empty_like(self.T)
        self.G = np.empty_like(self.T)
        self.G_floats = self.G.view(float).reshape(-1)

    def gram(self, values):
        """(G viewed as floats, |p|^2) with T the factor of ``values``.

        |p|^2 is Tr(G) because every parameter enters T exactly once.
        """
        norm = float(values.dot(values))
        if norm < 1e-300:
            raise DegenerateParams("all-zero parameter vector has no direction")
        self.buffer[self.slots] = values
        np.conjugate(self.T, out=self.conj).T.dot(self.T, out=self.G)
        return self.G_floats, norm


def rho_matrix_from_values(values):
    """Raw-array fast path: normalized T^H T without DensityMatrix checks."""
    factor = _Factor(math.isqrt(values.size))
    norm = factor.gram(values)[1]
    return factor.G / norm


def params_to_rho(values):
    """Map a real vector of length n^2 to its density matrix (total up to gauge)."""
    values = np.asarray(values, dtype=float).ravel()
    if math.isqrt(values.size) ** 2 != values.size:
        raise DimensionMismatch(f"need n^2 parameters for some n, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise DegenerateParams("parameter vector contains non-finite entries")
    return DensityMatrix(rho_matrix_from_values(values))


def rho_to_params(rho):
    """Invert params_to_rho via a reverse-Cholesky factorization; returns the vector.

    Finds lower-triangular T with positive diagonal and rho = T^H T by
    flipping the basis, running a standard Cholesky, and flipping back.
    A state that is rank-deficient, or slightly indefinite (DensityMatrix
    accepts eigenvalues down to -PSD_ATOL, evolve's states down to
    -EVOLVE_PSD_ATOL), gets a (RANK_JITTER + max(0, -lambda_min)) * I nudge
    before retrying; a second failure raises FactorizationFailure.
    """
    m = rho.matrix
    dim = rho.dim
    flipped = m[::-1, ::-1]
    try:
        L = np.linalg.cholesky(flipped)
    except np.linalg.LinAlgError:
        jitter = RANK_JITTER + max(0.0, -float(np.linalg.eigvalsh(flipped)[0]))
        try:
            L = np.linalg.cholesky(flipped + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            raise FactorizationFailure(
                "state is numerically indefinite even after diagonal jitter"
            ) from None
    T = np.ascontiguousarray(L[::-1, ::-1].conj().T)
    return T.view(float).reshape(-1)[_factor_slots(dim)]


class _WeightedCost:
    """Maps raw parameter vectors to the reconstruction error and its gradient.

    A fused real kernel.  At construction the predictor rows are permuted
    to C order, split into real and imaginary columns and scaled by
    sqrt(w_ij / sum_j w_ij), as are the targets.  Each evaluation then
    forms G = T^H T in a reused ``_Factor`` and gets every weighted
    prediction from one real gemv on G.view(float), divided by
    Tr(G) = |p|^2.  The same rows and targets give the start's linear
    inversion.

    The gradient reuses that residual r.  With dr the residual of each
    level over n times that level's norm, a = (dr @ rows) / |p|^2 is the
    gradient in G.view(float); viewed as a complex n x n matrix Gamma,
    the gradient in T is 2 (T herm(Gamma) - (a.g / |p|^2) T), read off at
    the parameter slots.  A level whose residual is exactly zero (a kink
    of eps) contributes the zero subgradient.

    Each evaluation overwrites the ``residual`` (``levels``) and ``work``
    buffers and the factor's, so an instance is not reentrant.  A value
    call records its point (``point``, as bytes), ``norm`` and
    ``level_norms``; ``gradient`` at that same point finishes from them.
    Every residual pass clears ``point`` first, so after ``certificate``
    the next gradient starts cold.
    """

    __slots__ = (
        "dim", "rows", "targets", "factor", "residual", "levels", "work",
        "point", "norm", "level_norms",
    )

    def __init__(self, predictor, record):
        n = predictor.dim
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
            weights = 1.0 / np.square(record.sigmas)
            totals = weights.sum(axis=1, keepdims=True)
        for level, total in enumerate(totals[:, 0], start=1):
            if not 0.0 < total < math.inf:
                raise ValidationError(f"level {level}: 1/sigma^2 or its sum leaves the float range")
        self.dim = n
        # (time, level) row order, matching the predictor
        scale = np.sqrt(weights / totals).T.reshape(-1)
        # Re(M @ vec(G)) is conj(M) @ G as floats once M's columns are in C order
        c_order = np.arange(n * n).reshape((n, n), order="F").ravel()
        columns = predictor.matrix.take(c_order, axis=1)
        self.rows = np.conjugate(columns, out=columns).view(float)
        self.rows *= scale[:, None]
        self.targets = record.means.T.reshape(-1) * scale
        self.factor = _Factor(n)
        self.residual = np.empty(self.targets.size)
        self.levels = self.residual.reshape(-1, n)
        self.work = np.empty_like(self.levels)
        self.point = None

    def _residual(self, gram_floats, norm):
        """Weighted residuals as (time, level) and the norm of each level's."""
        self.point = None  # the buffers stop holding a value call's point
        residual = self.rows.dot(gram_floats, out=self.residual)
        residual /= norm
        residual -= self.targets
        return self.levels, np.sqrt(np.add.reduce(np.square(self.levels, out=self.work), axis=0))

    def _gram_gradient(self, residual, level_norms, norm):
        """The gradient a in G.view(float), as an (n, n) complex Gamma too."""
        scale = self.dim * level_norms
        if np.minimum.reduce(level_norms) > 0.0:
            scale = 1.0 / scale
        else:  # a level at a kink
            scale = np.divide(1.0, scale, out=np.zeros_like(scale), where=level_norms > 0.0)
        a = np.dot(np.multiply(residual, scale, out=self.work).reshape(-1), self.rows)
        a /= norm
        return a, a.view(complex).reshape(self.dim, self.dim)

    def certificate(self, matrix):
        """(eps, gap) at a density matrix (unit trace, so no normalization).

        gap is <grad eps, rho> - lambda_min(herm grad eps).  eps is convex
        in rho, so eps(rho) - gap is a lower bound on the minimum over all
        states, and gap bounds eps(rho) - eps* from above.  Summed as
        sum_k (lambda_k - lambda_min) <v_k|rho|v_k> over the gradient's
        eigenvectors, so it has no cancellation and is never below minus
        rounding.  Where every level's residual is non-zero eps is
        differentiable and the gap reaches 0 at the minimum; at a kink the
        zero subgradient keeps the bound valid but not tight.
        """
        gram = np.ascontiguousarray(matrix, dtype=complex)
        residual, level_norms = self._residual(gram.view(float).reshape(-1), 1.0)
        _, gamma = self._gram_gradient(residual, level_norms, 1.0)
        lam, vec = np.linalg.eigh(0.5 * (gamma + gamma.conj().T))
        weights = np.einsum("ik,ij,jk->k", vec.conj(), gram, vec).real
        return float(np.add.reduce(level_norms) / self.dim), float((lam - lam[0]) @ weights)

    def __call__(self, values):
        gram_floats, self.norm = self.factor.gram(values)
        self.level_norms = self._residual(gram_floats, self.norm)[1]
        self.point = values.tobytes()
        return float(np.add.reduce(self.level_norms) / self.dim)

    def gradient(self, values):
        """d eps / d values, finishing ``self(values)`` if that was the latest call."""
        if values.tobytes() != self.point:
            self(values)
        a, gamma = self._gram_gradient(self.levels, self.level_norms, self.norm)
        T = self.factor.T
        shrink = 2.0 * float(a.dot(self.factor.G_floats)) / self.norm
        grad = T.dot(gamma + gamma.conj().T) - shrink * T
        return grad.view(float).reshape(-1)[self.factor.slots]


def _check_record_model(record, model):
    if record.dim != model.dim:
        raise DimensionMismatch(
            f"record dim {record.dim} != model dim {model.dim}"
        )


def weighted_error(rho0, record, model):
    """Inverse-variance weighted error of a candidate initial state against a record."""
    _check_record_model(record, model)
    if rho0.dim != model.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != model dim {model.dim}")
    predictor = PopulationPredictor(model, record.times)
    return _WeightedCost(predictor, record).certificate(rho0.matrix)[0]


def _params_for_state(matrix, n):
    """Cholesky parameters of a state, conditioned away from rank deficiency."""
    blended = (1.0 - 1e-9) * matrix + 1e-9 * np.eye(n) / n
    blended = 0.5 * (blended + blended.conj().T)
    blended /= blended.trace().real
    return rho_to_params(DensityMatrix(blended))


def _linear_inversion_start(cost):
    """Weighted linear inversion projected onto physical states.

    Populations are linear in the state, so the minimum-norm least squares
    over the cost's own rows and targets (G viewed as floats, in eps's
    per-level weights) is the unconstrained optimum.  An anti-Hermitian G
    predicts no population, so its n^2 directions are null and
    ``rcond=None`` cuts them.  The Hermitian estimate's eigenvalues are
    clipped at 0 and rescaled, or if none is positive projected onto the
    simplex: its nearest state (Smolin et al., PRL 108, 070502, 2012).
    """
    n = cost.dim
    floats = np.linalg.lstsq(cost.rows, cost.targets, rcond=None)[0]
    estimate = floats.view(complex).reshape(n, n)
    w, v = np.linalg.eigh(0.5 * (estimate + estimate.conj().T))
    clipped = np.clip(w, 0.0, None)
    if clipped.sum() > 0.0:
        w = clipped / clipped.sum()
    else:
        descending = w[::-1]
        tau = (np.cumsum(descending) - 1.0) / np.arange(1, n + 1)
        w = np.clip(w - tau[descending > tau][-1], 0.0, None)
    return _params_for_state((v * w) @ v.conj().T, n)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Estimated initial state with its error, certificate and optimizer diagnostics.

    ``gap`` is the Frank-Wolfe gap of ``epsilon`` at ``rho0`` (see
    ``_WeightedCost.certificate``): no state has an error below
    ``epsilon - gap``.
    """

    rho0: DensityMatrix
    epsilon: float
    gap: float
    opt: OptResult
    gamma_used: float
    window: tuple


def reconstruct(record, model, cfg=None, *, epsilon_ceiling=EPSILON_CEILING):
    """Reconstruct the initial density matrix from a measurement record.

    Minimizes the inverse-variance weighted error over the Cholesky
    parameter space with BFGS on the analytic gradient, on a total of
    ``cfg.simplex.max_evals`` evaluations.  The first run starts from the
    weighted linear inversion's nearest state.  While the Frank-Wolfe gap
    at the returned point is above ``CERTIFIED_RTOL`` times its error (a
    NaN gap too) and budget remains, BFGS restarts with a fresh inverse
    Hessian from that state's own positive-diagonal factor (a stall near a
    rank-deficient factor is left behind by re-factoring).  A restart is
    kept only if it lowers f; the loop stops after one that does not, or
    that lowers f by at most ``STALL_RTOL`` times f.  ``opt.evals`` is the
    sum over all runs, ``opt.per_restart_f`` holds each run's f in order,
    and ``opt.converged_by`` is the stop reason (``line_search``,
    ``stall``, ``gtol`` or ``max_evals``) of the run whose point is
    returned.  ``cfg.restarts`` and ``cfg.rng_seed`` are not read.  The
    error is convex in rho and the Cholesky factor is full, so every
    local minimum is global and no random starts are needed; ``gap``
    certifies how far ``epsilon`` can be above the minimum.
    Deterministic.  Raises NoConvergence if the error ends above
    ``epsilon_ceiling``.
    """
    cfg = cfg if cfg is not None else SubplexConfig()
    if math.isnan(epsilon_ceiling):
        raise ValidationError("epsilon_ceiling must not be NaN")
    _check_record_model(record, model)
    predictor = PopulationPredictor(model, record.times)
    cost = _WeightedCost(predictor, record)
    budget = cfg.simplex.max_evals
    opt = bfgs(cost, cost.gradient, _linear_inversion_start(cost), budget)
    evals, run_f = opt.evals, [opt.best_f]
    rho0 = params_to_rho(opt.best_x)
    epsilon, gap = cost.certificate(rho0.matrix)
    while not gap <= CERTIFIED_RTOL * epsilon and evals < budget:  # a NaN gap restarts too
        run = bfgs(cost, cost.gradient, _params_for_state(rho0.matrix, cost.dim), budget - evals)
        evals += run.evals
        run_f.append(run.best_f)
        if run.best_f >= opt.best_f:
            break
        gain = opt.best_f - run.best_f
        opt = run
        rho0 = params_to_rho(opt.best_x)
        epsilon, gap = cost.certificate(rho0.matrix)
        if gain <= STALL_RTOL * opt.best_f:
            break
    opt = replace(opt, evals=evals, per_restart_f=np.array(run_f))
    if epsilon > epsilon_ceiling:
        raise NoConvergence(
            f"best reconstruction error {epsilon:.3e} exceeds ceiling {epsilon_ceiling:.3e}"
        )
    return ReconstructionResult(
        rho0=rho0,
        epsilon=epsilon,
        gap=gap,
        opt=opt,
        gamma_used=model.gamma,
        window=(0.0, record.span),
    )


def prepare_pulse_state(initial, model, duration):
    """Evolve a known state under the model for a fixed duration.

    With gamma = 0 and a resonant ladder drive, duration = (pi/2)/Omega
    realizes a pi/2 pulse; chaining calls with piecewise-constant models
    builds arbitrary preparation sequences.
    """
    if duration < 0.0:
        raise EmptyWindow(f"duration must be >= 0, got {duration}")
    if duration == 0.0:
        return initial
    return evolve(initial, make_propagator(model, duration), 1)


@dataclass(frozen=True, eq=False)
class ConvergencePoint:
    """One window of the convergence study."""

    window: float
    epsilon: float
    infidelity: Optional[float]
    result: ReconstructionResult


def convergence_study(record, model, cfg=None, windows=(), *, reference=None):
    """Reconstruct on truncated records of increasing length.

    Reports 1 - F against ``reference`` when the true prepared state is
    known (synthetic mode) and the reconstruction error otherwise.
    Output is sorted by window length.
    """
    points = []
    for window in sorted(windows):
        trimmed = truncate_record(record, window)
        result = reconstruct(trimmed, model, cfg)
        infidelity = None
        if reference is not None:
            infidelity = 1.0 - uhlmann_fidelity(result.rho0, reference)
        points.append(
            ConvergencePoint(
                window=float(window),
                epsilon=result.epsilon,
                infidelity=infidelity,
                result=result,
            )
        )
    return points


@dataclass(frozen=True, eq=False)
class GammaSweepResult:
    """Error surface over (window, dephasing rate) cells."""

    windows: np.ndarray
    gammas: np.ndarray
    error_surface: np.ndarray
    gamma_opt: np.ndarray


def sweep_gamma(record, hamiltonian, windows, gammas, cfg=None):
    """Reconstruct per (window, gamma) cell and find the best rate per window.

    Each cell fixes gamma, reconstructs the state on the truncated
    record, and stores the resulting error; the per-window optimal rate
    is the row argmin with ties broken toward the smaller gamma.  Failed
    cells record +inf instead of aborting the sweep; a window where every
    cell failed has no optimal rate and reports NaN.  A record whose dim
    is not the Hamiltonian's raises DimensionMismatch before any cell.
    """
    _check_record_model(record, hamiltonian)
    windows = np.sort(np.asarray(windows, dtype=float).ravel())
    gammas = np.sort(np.asarray(gammas, dtype=float).ravel())
    if gammas.size == 0:
        raise EmptyWindow("need at least one gamma value")
    if np.any(gammas < 0.0):
        raise ValidationError("dephasing rates must be non-negative")
    surface = np.full((windows.size, gammas.size), np.inf)
    for wi, window in enumerate(windows):
        trimmed = truncate_record(record, window)
        for gi, gamma in enumerate(gammas):
            model = EvolutionModel(hamiltonian=hamiltonian, gamma=float(gamma))
            try:
                result = reconstruct(trimmed, model, cfg)
            except PoptomoError:
                continue
            surface[wi, gi] = result.epsilon
    best = np.where(
        np.isfinite(surface).any(axis=1), gammas[np.argmin(surface, axis=1)], np.nan
    )
    return GammaSweepResult(
        windows=windows, gammas=gammas, error_surface=surface, gamma_opt=best
    )
