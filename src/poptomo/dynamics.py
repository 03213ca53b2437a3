"""Quantum states and their dephasing-damped evolution.

A state is an n-level density matrix; the evolution model is a fixed
Hermitian drive Hamiltonian (angular units, rad/s) plus uniform sublevel
dephasing at rate ``gamma`` (1/s).  The equation of motion is

    drho/dt = -i [H, rho] + 2*gamma*(diag(rho) - rho)

where the dissipator is the projector sum ``sum_j gamma*(-{P_j, rho}
+ 2 P_j rho P_j)`` collapsed to its diagonal/off-diagonal action: the
populations are untouched and every coherence decays as exp(-2*gamma*t).

Propagation uses the exact exponential of the vectorized generator
(column-stacking convention, so ``L = -i(I (x) H - H^T (x) I) + D``),
cached per time step so that sweeps and optimizer inner loops pay one
``expm`` per grid, not per evaluation.  ``tomography.population_rows``
turns one cached step into the population rows of a whole grid; the
population predictor and the drifting-detuning record synthesis both
go through it.

Basis ordering for the built-in five-level ladder is m_F = +2 ... -2,
i.e. index 0 is the stretched m_F = +2 sublevel.
"""

import math
from dataclasses import dataclass, field
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
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} has non-finite entries")
    return m


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
        m = _square_complex(entries, "density matrix").copy()
        herm_defect = np.abs(m - m.conj().T).max()
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
        if not 0 <= index < dim:
            raise DimensionMismatch(f"basis index {index} out of range for dim {dim}")
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
    the diagonal as (-delta2, -delta1, 0, +delta1, +delta2).
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
        m = _square_complex(self.entries, "Hamiltonian")
        defect = np.abs(m - m.conj().T).max()
        if defect > HERMITICITY_ATOL:
            raise NonHermitianInput(f"max |H - H^H| = {defect:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self):
        return self.entries.shape[0]


HamiltonianSpec = Union[Ladder5, GenericHamiltonian]


def build_hamiltonian(spec):
    """Return H/hbar as an n x n complex matrix of angular frequencies."""
    if isinstance(spec, Ladder5):
        w = spec.rabi_omega
        ws = math.sqrt(1.5) * w
        d1, d2 = spec.delta1, spec.delta2
        return np.array(
            [
                [-d2, w, 0.0, 0.0, 0.0],
                [w, -d1, ws, 0.0, 0.0],
                [0.0, ws, 0.0, ws, 0.0],
                [0.0, 0.0, ws, d1, w],
                [0.0, 0.0, 0.0, w, d2],
            ],
            dtype=complex,
        )
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
    """Right-hand side drho/dt for a state under the given model.

    Returns -i[H, rho] + 2*gamma*(diag(rho) - rho) as a plain array.
    """
    H = build_hamiltonian(model.hamiltonian)
    m = rho.matrix if isinstance(rho, DensityMatrix) else _square_complex(rho, "rho")
    if m.shape[0] != H.shape[0]:
        raise DimensionMismatch(
            f"state dim {m.shape[0]} != Hamiltonian dim {H.shape[0]}"
        )
    out = -1j * (H @ m - m @ H)
    if model.gamma != 0.0:
        out += 2.0 * model.gamma * (np.diag(np.diag(m)) - m)
    return out


def liouvillian_matrix(model):
    """Vectorized generator L (n^2 x n^2), column-stacking convention.

    ``L @ vec(rho) == vec(lindblad_rhs(rho))`` with vec(.) stacking
    columns, so the commutator part is -i(I (x) H - H^T (x) I) and the
    dephasing part is diagonal: 0 on population slots, -2*gamma on
    coherence slots.
    """
    H = build_hamiltonian(model.hamiltonian)
    n = H.shape[0]
    eye = np.eye(n)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    if model.gamma != 0.0:
        damp = np.full(n * n, -2.0 * model.gamma)
        damp[np.arange(n) * (n + 1)] = 0.0
        L += np.diag(damp)
    return L


@dataclass(frozen=True, eq=False)
class Propagator:
    """One cached time step exp(L*dt) of the vectorized generator."""

    model: EvolutionModel
    dt: float
    step_matrix: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.model.dim


def make_propagator(model, dt):
    """Build the cached step exp(L*dt); reusable over a uniform grid."""
    if dt < 0.0:
        raise InvalidState(f"time step must be >= 0, got {dt}")
    n = model.dim
    if dt == 0.0:
        step = np.eye(n * n, dtype=complex)
    else:
        generator = liouvillian_matrix(model) * dt
        if not np.all(np.isfinite(generator)):
            raise ValidationError(f"non-finite drive, rate or time step (dt = {dt})")
        step = expm(generator)
    step.setflags(write=False)
    return Propagator(model=model, dt=dt, step_matrix=step)


def vectorize(matrix):
    """Column-stacking vec(.) used throughout the package."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvectorize(vec, dim):
    return np.asarray(vec).reshape((dim, dim), order="F")


def evolve(rho0, prop, steps):
    """Apply the cached step ``steps`` times, as one matrix power: rho(steps * dt).

    The result is re-symmetrized and trace-renormalized; drift beyond
    EVOLVE_* tolerances (checked before renormalization) raises
    NumericalDrift instead of being silently repaired.
    """
    if steps < 0:
        raise InvalidState(f"steps must be >= 0, got {steps}")
    if rho0.dim != prop.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != propagator dim {prop.dim}")
    if steps == 0:
        return rho0
    v = np.linalg.matrix_power(prop.step_matrix, steps) @ vectorize(rho0.matrix)
    m = unvectorize(v, prop.dim)
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
    diag = np.diag(rho.matrix)
    worst = np.abs(diag.imag).max()
    if worst > 1e-12:
        raise InvalidState(f"population has imaginary part {worst:.3e}")
    return diag.real.copy()


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
