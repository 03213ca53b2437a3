"""State reconstruction from population time series.

Given a measurement record and full knowledge of the evolution model,
the initial density matrix is the minimizer of a weighted mean error

    eps(rho0) = (1/n) * sum_i sqrt( sum_j w_ij |pbar_ij - p_ij|^2
                                    / sum_j w_ij ),   w_ij = 1/sigma_ij^2

where ``pbar_ij`` are the simulated populations of sublevel i at time
t_j.  The search runs in the unconstrained Cholesky-factor parameter
space (every candidate is physical by construction) using multi-start
subplex.  On top of single reconstructions this module provides the
window-length convergence study and the dephasing-rate sweep.
"""

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    DegenerateParams,
    DimensionMismatch,
    EmptyWindow,
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
from .optimize import OptResult, SubplexConfig, multi_start
from .parameterize import StateParams, factor_slots, params_to_rho, rho_to_params
# bound here so that perfbench/tracing.py can count calls through this module
from .parameterize import rho_matrix_from_values  # noqa: F401
from .records import MeasurementRecord

GRID_ATOL = 1e-12
MAX_GRID_STEPS = 1_000_000

WEIGHT_INVERSE_VARIANCE = "inverse_variance"
WEIGHT_UNIFORM = "uniform"


def infer_grid_step(times):
    """Largest dt such that every time is an integer multiple of it.

    dt is the first positive time over the least common denominator of
    every positive time's ratio to it (the nearest fraction with a
    denominator up to MAX_GRID_STEPS), so a uniform grid reproduces its
    spacing bit-for-bit.
    """
    positive = [t for t in times if t > 0.0]
    if not positive:
        raise GridMismatch("no positive time in the record")
    first = positive[0]
    divisor = 1
    for t in positive:
        ratio = Fraction(t / first).limit_denominator(MAX_GRID_STEPS)
        divisor = math.lcm(divisor, ratio.denominator)
        if divisor > MAX_GRID_STEPS:
            raise GridMismatch("times do not share a reasonable uniform grid")
    dt = first / divisor
    for t in times:
        k = round(t / dt)
        if abs(t - k * dt) > GRID_ATOL:
            raise GridMismatch(
                f"time {t!r} is not a multiple of the grid step {dt!r}"
            )
        if k > MAX_GRID_STEPS:
            raise GridMismatch("times do not share a reasonable uniform grid")
    return dt


def population_rows(model, dt, steps):
    """Diagonal-extraction rows of exp(L*dt)^k for each k of sorted ``steps``.

    One ``expm``, then prefix products over the gaps.  Returns an array
    (len(steps), n, n^2); block j maps vec(rho0) to the populations at
    steps[j] * dt.
    """
    n = model.dim
    step_matrix = make_propagator(model, dt).step_matrix
    extract = np.zeros((n, n * n), dtype=complex)
    extract[np.arange(n), np.arange(n) * (n + 1)] = 1.0
    rows = np.empty((len(steps), n, n * n), dtype=complex)
    current = extract
    previous = 0
    for j, k in enumerate(steps):
        gap = k - previous
        if gap:
            current = current @ np.linalg.matrix_power(step_matrix, gap)
            previous = k
        rows[j] = current
    return rows


class PopulationPredictor:
    """Precomputed linear map from vec(rho0) to populations at fixed times.

    Stacks the diagonal-extraction rows of exp(L*t_j) for every record
    time, so each candidate state costs one small matrix-vector product.
    The grid step is inferred from the times.  Built once per
    (model, grid) and reused across optimizer evaluations.
    """

    def __init__(self, model, times):
        times = np.asarray(times, dtype=float).ravel()
        if np.any(np.diff(times) < 0.0):
            raise GridMismatch("times must be sorted")
        self.model = model
        self.times = times
        self.dt = float(infer_grid_step(times))
        self.dim = model.dim
        steps = [round(t / self.dt) for t in times]
        # (T*n, n^2): row block per time point
        self.matrix = population_rows(model, self.dt, steps).reshape(times.size * self.dim, -1)

    def populations(self, rho_vec):
        """Population matrix (n, T) for a column-stacked state vector."""
        flat = (self.matrix @ rho_vec).real
        return flat.reshape(self.times.size, self.dim).T


class _WeightedCost:
    """Maps raw parameter vectors to the reconstruction error.

    A fused real kernel.  At construction the predictor rows are permuted
    to C order, split into real and imaginary columns and scaled by
    sqrt(w_ij / sum_j w_ij), as are the targets.  Each evaluation then
    scatters the parameters into a reused buffer that is the factor T,
    forms G = T^H T and gets every weighted prediction from one real
    gemv on G.view(float), divided by Tr(G) = |p|^2.
    """

    __slots__ = ("dim", "rows", "targets", "buffer", "factor", "slots")

    def __init__(self, predictor, record, weighting):
        n = predictor.dim
        if weighting == WEIGHT_INVERSE_VARIANCE:
            weights = 1.0 / np.square(record.sigmas)
        elif weighting == WEIGHT_UNIFORM:
            weights = np.ones_like(record.sigmas)
        else:
            raise ValidationError(f"unknown weighting {weighting!r}")
        self.dim = n
        # (time, level) row order, matching the predictor
        scale = np.sqrt(weights / weights.sum(axis=1, keepdims=True)).T.reshape(-1)
        # Re(M @ vec(G)) is conj(M) @ G as floats once M's columns are in C order
        c_order = np.arange(n * n).reshape((n, n), order="F").ravel()
        columns = predictor.matrix.take(c_order, axis=1)
        self.rows = np.conjugate(columns, out=columns).view(float)
        self.rows *= scale[:, None]
        self.targets = record.means.T.reshape(-1) * scale
        self.buffer = np.zeros(2 * n * n)
        self.factor = self.buffer.view(complex).reshape(n, n)
        self.slots = factor_slots(n)

    def _error(self, gram, norm):
        residual = self.rows @ gram.view(float).reshape(-1)
        residual /= norm
        residual -= self.targets
        per_level = np.square(residual).reshape(-1, self.dim).sum(axis=0)
        return float(np.sqrt(per_level).sum() / self.dim)

    def state_error(self, matrix):
        """Error of a density matrix (unit trace, so no normalization)."""
        return self._error(np.ascontiguousarray(matrix, dtype=complex), 1.0)

    def __call__(self, values):
        norm = float(values @ values)
        if norm < 1e-300:
            raise DegenerateParams("all-zero parameter vector has no direction")
        self.buffer[self.slots] = values
        T = self.factor
        return self._error(T.conj().T.dot(T), norm)


def _check_record_model(record, model):
    if record.dim != model.dim:
        raise DimensionMismatch(
            f"record dim {record.dim} != model dim {model.dim}"
        )


def weighted_error(rho0, record, model, *, weighting=WEIGHT_INVERSE_VARIANCE):
    """Reconstruction error of a candidate initial state against a record."""
    _check_record_model(record, model)
    if rho0.dim != model.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != model dim {model.dim}")
    predictor = PopulationPredictor(model, record.times)
    return _WeightedCost(predictor, record, weighting).state_error(rho0.matrix)


def _params_for_state(matrix, n):
    """Cholesky parameters of a state, conditioned away from rank deficiency."""
    blended = (1.0 - 1e-9) * matrix + 1e-9 * np.eye(n) / n
    blended = 0.5 * (blended + blended.conj().T)
    blended /= blended.trace().real
    return rho_to_params(DensityMatrix(blended)).values


def _linear_inversion_start(predictor, record):
    """Weighted linear inversion projected onto physical states.

    The forward map from Hermitian coefficients to populations is
    linear, so a small lstsq gives the unconstrained optimum directly;
    clipping its eigenvalues returns it to the state manifold.  A very
    good, purely data-derived warm start for the simplex search.

    The coefficients are the n diagonal entries, then Re and Im of each
    upper entry (i, j) in row-major order; their design columns are sums
    of the predictor's columns at the column-stacked slots i + j*n and
    j + i*n.
    """
    n = record.dim
    M = predictor.matrix
    rows, cols = np.triu_indices(n, 1)
    upper, lower = rows + cols * n, cols + rows * n
    design = np.empty((M.shape[0], n * n))
    design[:, :n] = M[:, np.arange(n) * (n + 1)].real
    design[:, n::2] = M[:, upper].real + M[:, lower].real
    design[:, n + 1::2] = M[:, lower].imag - M[:, upper].imag
    scale = np.sqrt(1.0 / np.square(record.sigmas.T)).reshape(-1)
    target = record.means.T.reshape(-1)
    coeffs = np.linalg.lstsq(design * scale[:, None], target * scale, rcond=None)[0]
    estimate = np.diag(coeffs[:n].astype(complex))
    estimate[rows, cols] = coeffs[n::2] + 1j * coeffs[n + 1::2]
    estimate[cols, rows] = estimate[rows, cols].conj()
    w, v = np.linalg.eigh(estimate)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        return None
    physical = (v * (w / total)) @ v.conj().T
    return _params_for_state(physical, n)


def _diagonal_start(record):
    """Full-rank state matching the first measured column."""
    n = record.dim
    diag = np.clip(record.means[:, 0], 1e-9, None)
    diag = diag / diag.sum()
    guess = 0.75 * np.diag(diag.astype(complex)) + 0.25 * np.eye(n) / n
    return rho_to_params(DensityMatrix(guess)).values


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Estimated initial state with its error and optimizer diagnostics."""

    rho0: DensityMatrix
    epsilon: float
    opt: OptResult
    gamma_used: float
    window: tuple


def reconstruct(record, model, cfg=None, *, epsilon_ceiling=1.0):
    """Reconstruct the initial density matrix from a measurement record.

    Minimizes the inverse-variance weighted error over the Cholesky
    parameter space with multi-start subplex, starting from the linear
    inversion, then the diagonal guess, then standard normal draws;
    deterministic for a fixed ``cfg.rng_seed``.  Raises NoConvergence if
    even the best start ends above ``epsilon_ceiling``.
    """
    cfg = cfg if cfg is not None else SubplexConfig()
    _check_record_model(record, model)
    predictor = PopulationPredictor(model, record.times)
    cost = _WeightedCost(predictor, record, WEIGHT_INVERSE_VARIANCE)
    starts = (_linear_inversion_start(predictor, record), _diagonal_start(record))
    informed = iter([start for start in starts if start is not None])

    def sampler(rng):
        start = next(informed, None)
        return start if start is not None else rng.standard_normal(model.dim**2)

    opt = multi_start(cost, sampler, cfg)
    rho0 = params_to_rho(StateParams(dim=model.dim, values=opt.best_x))
    epsilon = cost.state_error(rho0.matrix)
    if epsilon > epsilon_ceiling:
        raise NoConvergence(
            f"best reconstruction error {epsilon:.3e} exceeds ceiling {epsilon_ceiling:.3e}"
        )
    return ReconstructionResult(
        rho0=rho0,
        epsilon=epsilon,
        opt=opt,
        gamma_used=model.gamma,
        window=(0.0, float(record.times[-1])),
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


def truncate_record(record, window):
    """Restrict a record to times in [0, window]."""
    mask = record.times <= window + 1e-15
    kept = int(np.count_nonzero(mask))
    if kept < 2:
        raise EmptyWindow(
            f"window {window!r} keeps {kept} time points, need at least 2"
        )
    return MeasurementRecord(
        times=record.times[mask],
        means=record.means[:, mask],
        sigmas=record.sigmas[:, mask],
        repeats=record.repeats,
        meta=copy.deepcopy(record.meta),
    )


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
    cell failed has no optimal rate and reports NaN.
    """
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
