"""Quantum states and their dephasing-damped evolution.

A state is an n-level density matrix; the evolution model is a fixed
Hermitian drive Hamiltonian (angular units, rad/s) plus uniform sublevel
dephasing at rate ``gamma`` (1/s).  The equation of motion is

    drho/dt = -i [H, rho] + 2*gamma*(diag(rho) - rho)

where the dissipator is the projector sum ``sum_j gamma*(-{P_j, rho}
+ 2 P_j rho P_j)`` collapsed to its diagonal/off-diagonal action: the
populations are untouched and every coherence decays as exp(-2*gamma*t).

Propagation uses the exact exponential of the vectorized generator
(column-stacking convention, so ``L = -i(I (x) H - H^T (x) I) + D``).
``make_propagator`` holds the only ``expm`` and returns the step
exp(L*dt) itself, built once per grid so optimizer inner loops never
pay for it.  The population predictor (prefix products over its grid)
and ``evolve`` (a matrix power) propagate through it.  Detuning-drift
synthesis goes through ``drive_populations``, which reads a stack of
drives' populations off one stacked step when gamma > 0, and off one
batched ``eigh`` at gamma = 0, where the step is unitary.

Basis ordering for the built-in five-level ladder is m_F = +2 ... -2,
i.e. index 0 is the stretched m_F = +2 sublevel.
"""

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimensionMismatch,
    InvalidState,
    NonHermitianInput,
    NumericalDrift,
    ValidationError,
)

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10

# Looser bounds applied to propagated states: accumulated roundoff from
# powers of the step matrix, checked before renormalization.
EVOLVE_TRACE_ATOL = 1e-8
EVOLVE_PSD_ATOL = 1e-8


def _square_complex(entries, what):
    """A finite square complex copy of ``entries`` and its Hermiticity defect max|M - M^H|."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} has non-finite entries")
    return m, np.abs(m - m.conj().T).max()


def require_finite(obj, *names):
    """Raise ValidationError naming the first non-finite field of ``obj``."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValidationError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    Validates its three invariants on construction and is immutable
    afterwards (the backing array is marked read-only), so instances can
    be shared freely across threads.
    """

    __slots__ = ("matrix",)

    def __init__(self, entries, *, psd_atol=PSD_ATOL):
        m, herm_defect = _square_complex(entries, "density matrix")
        if herm_defect > HERMITICITY_ATOL:
            raise InvalidState(f"not Hermitian: max |rho - rho^H| = {herm_defect:.3e}")
        trace_defect = abs(m.trace() - 1.0)
        if trace_defect > TRACE_ATOL:
            raise InvalidState(f"trace defect |Tr(rho) - 1| = {trace_defect:.3e}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -psd_atol:
            raise InvalidState(f"not positive semidefinite: min eigenvalue = {min_eig:.3e}")
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def basis_state(cls, dim, index):
        """Pure state |index><index| in the fixed sublevel basis."""
        if isinstance(index, bool) or not isinstance(index, numbers.Integral) or not 0 <= index < dim:
            raise DimensionMismatch(f"basis index must be an integer in [0, {dim}), got {index!r}")
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_state_vector(cls, vec):
        """Pure state rho = |psi><psi| / <psi|psi> from an amplitude vector."""
        v = np.asarray(vec, dtype=complex).ravel()
        norm = np.vdot(v, v).real
        if norm <= 0.0:
            raise InvalidState("state vector has zero norm")
        return cls(np.outer(v, v.conj()) / norm)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class Ladder5:
    """Five-level ladder drive in the rotating frame.

    ``rabi_omega`` is the single-transition Rabi frequency and
    ``delta1``/``delta2`` the inner/outer sublevel detunings, all angular
    (rad/s).  The matrix couples neighbouring m_F sublevels with
    amplitudes Omega and sqrt(3/2)*Omega and carries the detunings on
    the diagonal as ``ladder_diagonal`` lays them out.
    """

    rabi_omega: float
    delta1: float
    delta2: float

    dim: ClassVar[int] = 5

    def __post_init__(self):
        require_finite(self, "rabi_omega", "delta1", "delta2")


@dataclass(frozen=True, eq=False)
class GenericHamiltonian:
    """Arbitrary user-supplied Hermitian matrix, angular units (rad/s)."""

    entries: np.ndarray

    def __post_init__(self):
        m, defect = _square_complex(self.entries, "Hamiltonian")
        if defect > HERMITICITY_ATOL:
            raise NonHermitianInput(f"max |H - H^H| = {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self):
        return self.entries.shape[0]


HamiltonianSpec = Union[Ladder5, GenericHamiltonian]


def ladder_diagonal(delta1, delta2):
    """Ladder5's diagonal (-delta2, -delta1, 0, delta1, delta2), broadcast to (..., 5)."""
    d1, d2 = np.broadcast_arrays(np.asarray(delta1, float), np.asarray(delta2, float))
    return np.stack([-d2, -d1, np.zeros(d1.shape), d1, d2], axis=-1)


def build_hamiltonian(spec):
    """Return H/hbar as an n x n complex matrix of angular frequencies."""
    if isinstance(spec, Ladder5):
        w = spec.rabi_omega
        ws = math.sqrt(1.5) * w
        H = np.diag(ladder_diagonal(spec.delta1, spec.delta2)).astype(complex)
        k = np.arange(4)
        H[k, k + 1] = H[k + 1, k] = (w, ws, ws, w)
        return H
    if isinstance(spec, GenericHamiltonian):
        return spec.entries.copy()
    raise TypeError(f"unsupported Hamiltonian spec: {type(spec).__name__}")


@dataclass(frozen=True)
class EvolutionModel:
    """Known evolution: drive Hamiltonian plus uniform dephasing rate (1/s)."""

    hamiltonian: HamiltonianSpec
    gamma: float = 0.0

    def __post_init__(self):
        require_finite(self, "gamma")
        if self.gamma < 0.0:
            raise InvalidState(f"dephasing rate must be >= 0, got {self.gamma}")

    @property
    def dim(self):
        return self.hamiltonian.dim


def lindblad_rhs(rho, model):
    """Right-hand side drho/dt for a DensityMatrix under the given model.

    Returns -i[H, rho] + 2*gamma*(diag(rho) - rho) as a plain array.
    """
    H = build_hamiltonian(model.hamiltonian)
    m = rho.matrix
    if m.shape[0] != H.shape[0]:
        raise DimensionMismatch(
            f"state dim {m.shape[0]} != Hamiltonian dim {H.shape[0]}"
        )
    out = -1j * (H @ m - m @ H)
    if model.gamma != 0.0:
        out += 2.0 * model.gamma * (np.diag(np.diag(m)) - m)
    return out


def _generator(H, gamma):
    """L for a Hamiltonian or a stack of them: (..., n, n) -> (..., n^2, n^2).

    I (x) H and H^T (x) I are built by broadcasting over the leading axes,
    with the same products as ``np.kron``, so each slice is bit for bit the
    kron form; the -i, damping and later dt steps work in place.
    """
    n = H.shape[-1]
    shape = H.shape[:-2] + (n * n, n * n)
    eye = np.eye(n)
    L = (eye[:, None, :, None] * H[..., None, :, None, :]).reshape(shape)
    L -= (np.swapaxes(H, -1, -2)[..., :, None, :, None] * eye[:, None, :]).reshape(shape)
    L *= -1j
    if gamma != 0.0:
        damp = np.full(n * n, -2.0 * gamma)
        damp[np.arange(n) * (n + 1)] = 0.0
        L += np.diag(damp)
    return L


def liouvillian_matrix(model):
    """Vectorized generator L (n^2 x n^2), column-stacking convention.

    ``L @ vec(rho) == vec(lindblad_rhs(rho))`` with vec(.) stacking
    columns, so the commutator part is -i(I (x) H - H^T (x) I) and the
    dephasing part is diagonal: 0 on population slots, -2*gamma on
    coherence slots.
    """
    return _generator(build_hamiltonian(model.hamiltonian), model.gamma)


def make_propagator(model, dt):
    """The read-only step exp(L*dt); reusable over a uniform grid.

    ``model`` is an EvolutionModel, for one n^2 x n^2 step, or a pair
    ``(H, gamma)`` of an (m, n, n) stack of Hamiltonian matrices and the
    rate they share, for an (m, n^2, n^2) stack of steps from one ``expm``
    call.  SciPy runs the same algorithm on each slice, so slice i is bit
    for bit the step of the model with Hamiltonian H[i].  A step that
    comes out non-finite (a drive far too large for ``dt``) raises
    NumericalDrift.
    """
    if dt < 0.0:
        raise InvalidState(f"time step must be >= 0, got {dt}")
    if isinstance(model, EvolutionModel):
        H, gamma = build_hamiltonian(model.hamiltonian), model.gamma
    else:
        H, gamma = model
    if dt == 0.0:
        n2 = H.shape[-1] ** 2
        return np.broadcast_to(np.eye(n2, dtype=complex), H.shape[:-2] + (n2, n2))
    generator = _generator(H, gamma)
    generator *= dt
    if not np.all(np.isfinite(generator)):
        raise ValidationError(f"non-finite drive, rate or time step (dt = {dt})")
    step = expm(generator)
    if not np.all(np.isfinite(step)):
        raise NumericalDrift(f"exp(L*dt) is not finite (dt = {dt}): drive or rate too large")
    step.setflags(write=False)
    return step


# Largest drive phase max|lambda|*t that ``drive_populations`` accepts at gamma = 0.
# A float phase carries a rounding error of |lambda*t| * 2**-53, and eigh's
# eigenvalues one of the same order, so up to 1e8 rad the populations stay
# within about 1e-8, the roundoff EVOLVE_TRACE_ATOL already allows a
# propagated state.  Far beyond it cos and sin return finite noise where
# expm would overflow to NaN, so the bound is checked explicitly.
MAX_UNITARY_PHASE = 1e8


def drive_populations(H, gamma, rho, t):
    """(m, n) populations of ``rho`` at time ``t`` under an (m, n, n) stack of real drives.

    At t = 0 every row is exactly diag(rho).  At gamma > 0 the rows are the
    population rows of one stacked ``make_propagator`` step.  At gamma = 0
    one batched ``eigh`` gives U = V exp(-i Lambda t) V^T, the
    well-conditioned exponential of a Hermitian matrix, with no ``expm``; a
    non-finite eigenvalue, or a phase max|lambda|*t beyond MAX_UNITARY_PHASE,
    raises NumericalDrift there.
    """
    if t == 0.0:
        return np.broadcast_to(np.diagonal(rho).real, H.shape[:-1])
    if gamma != 0.0:
        n = H.shape[-1]
        steps = make_propagator((H.astype(complex), gamma), t)
        return (steps[..., np.arange(n) * (n + 1), :] @ vectorize(rho)).real
    if not np.all(np.isfinite(H)):
        raise ValidationError(f"non-finite drive or time step (dt = {t})")
    w, v = np.linalg.eigh(H)
    with np.errstate(over="ignore"):  # an overflowing phase is reported just below
        phase = w * t
    peak = np.abs(phase).max()
    if not peak <= MAX_UNITARY_PHASE:
        raise NumericalDrift(
            f"drive phase max|lambda|*t = {peak:.3e} rad exceeds {MAX_UNITARY_PHASE:.0e} "
            f"(dt = {t}): drive too large"
        )
    u = (v * np.exp(-1j * phase)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()
    return ((u @ rho) * u.conj()).sum(axis=-1).real


def vectorize(matrix):
    """Column-stacking vec(.) used throughout the package."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvectorize(vec, dim):
    return np.asarray(vec).reshape((dim, dim), order="F")


def evolve(rho0, step, steps):
    """Apply the step ``steps`` times, as one matrix power: rho(steps * dt).

    The result is re-symmetrized and trace-renormalized; drift beyond
    EVOLVE_* tolerances (checked before renormalization) raises
    NumericalDrift instead of being silently repaired.
    """
    if steps < 0:
        raise InvalidState(f"steps must be >= 0, got {steps}")
    n = rho0.dim
    if step.shape != (n * n, n * n):
        raise DimensionMismatch(f"state dim {n} needs a {n * n}x{n * n} step, got {step.shape}")
    if steps == 0:
        return rho0
    v = np.linalg.matrix_power(step, steps) @ vectorize(rho0.matrix)
    m = unvectorize(v, n)
    m = 0.5 * (m + m.conj().T)
    trace = m.trace().real
    if abs(trace - 1.0) > EVOLVE_TRACE_ATOL:
        raise NumericalDrift(f"trace drift |Tr - 1| = {abs(trace - 1.0):.3e}")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -EVOLVE_PSD_ATOL:
        raise NumericalDrift(f"negative eigenvalue {min_eig:.3e} after propagation")
    return DensityMatrix(m / trace, psd_atol=EVOLVE_PSD_ATOL)


def populations(rho):
    """Real diagonal of rho: occupation probability of each sublevel."""
    return np.diag(rho.matrix).real.copy()


def uhlmann_fidelity(rho, sigma):
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    Computed via Hermitian eigendecompositions; tiny negative roundoff
    eigenvalues are clipped, and the final value is clamped into [0, 1]
    only when the violation is below 1e-9.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims differ: {rho.dim} vs {sigma.dim}")
    w, v = np.linalg.eigh(rho.matrix)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    mid = sqrt_rho @ sigma.matrix @ sqrt_rho
    mid = 0.5 * (mid + mid.conj().T)
    w2 = np.linalg.eigvalsh(mid)
    # sqrt() blows roundoff-scale eigenvalues up to ~1e-9 each, so zero
    # everything below the numerical noise floor of the decomposition
    noise_floor = max(w2.max(), 0.0) * 1e-13
    w2 = np.where(w2 > noise_floor, w2, 0.0)
    fid = float(np.sqrt(w2).sum() ** 2)
    if fid > 1.0 + 1e-9 or fid < -1e-9:
        raise NumericalDrift(f"fidelity {fid!r} outside [0, 1] beyond tolerance")
    return min(max(fid, 0.0), 1.0)
