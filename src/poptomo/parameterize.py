"""Unconstrained real parameterization of density matrices.

Any finite real vector of length n^2 maps to a physical state: the
vector fills a lower-triangular factor T (n real diagonal entries, then
re/im pairs for the strictly-lower triangle, row-major) and the state is
``rho = T^H T / Tr(T^H T)``.  Positivity, Hermiticity and unit trace
hold by construction, so a simplex optimizer can roam the whole of R^(n^2).

The overall scale of the vector is a gauge freedom: ``p`` and ``c * p``
produce the same state, which realizes the n^2 - 1 physical degrees of
freedom with one redundant direction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParams, DimensionMismatch, FactorizationFailure
from .dynamics import DensityMatrix

RANK_JITTER = 1e-12

_slot_cache = {}


def factor_slots(dim):
    """Float offset of each parameter inside the factor T.

    T is a C-ordered complex (dim, dim) array viewed as floats (re, im
    interleaved): the first dim parameters take the real slots of the
    diagonal, then each strictly-lower entry, row-major, takes its real
    and imaginary slots.  Cached and read-only.
    """
    slots = _slot_cache.get(dim)
    if slots is None:
        rows, cols = np.tril_indices(dim, -1)
        lower = 2 * (rows * dim + cols)
        slots = np.empty(dim * dim, dtype=np.intp)
        slots[:dim] = 2 * np.arange(dim) * (dim + 1)
        slots[dim::2] = lower
        slots[dim + 1 :: 2] = lower + 1
        slots.setflags(write=False)
        _slot_cache[dim] = slots
    return slots


@dataclass(frozen=True, eq=False)
class StateParams:
    """Real vector of length dim^2 encoding a density matrix."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.dim * self.dim:
            raise DimensionMismatch(
                f"need {self.dim * self.dim} parameters for dim {self.dim}, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise DegenerateParams("parameter vector contains non-finite entries")
        object.__setattr__(self, "values", v)


def factor_from_values(values, dim):
    """Assemble the lower-triangular factor T from a raw parameter vector."""
    flat = np.zeros(2 * dim * dim)
    flat[factor_slots(dim)] = values
    return flat.view(complex).reshape(dim, dim)


def rho_matrix_from_values(values, dim):
    """Raw-array fast path: normalized T^H T without DensityMatrix checks.

    Tr(T^H T) equals |values|^2 because every parameter enters T exactly once.
    """
    norm = float(values @ values)
    if norm < 1e-300:
        raise DegenerateParams("all-zero parameter vector has no direction")
    T = factor_from_values(values, dim)
    return (T.conj().T @ T) / norm


def params_to_rho(p):
    """Map a parameter vector to its density matrix (total up to gauge)."""
    return DensityMatrix(rho_matrix_from_values(p.values, p.dim))


def rho_to_params(rho):
    """Invert params_to_rho via a reverse-Cholesky factorization.

    Finds lower-triangular T with positive diagonal and rho = T^H T by
    flipping the basis, running a standard Cholesky, and flipping back.
    Rank-deficient states get a RANK_JITTER * I nudge before retrying;
    a second failure raises FactorizationFailure.
    """
    m = rho.matrix
    dim = rho.dim
    flipped = m[::-1, ::-1]
    try:
        L = np.linalg.cholesky(flipped)
    except np.linalg.LinAlgError:
        try:
            L = np.linalg.cholesky(flipped + RANK_JITTER * np.eye(dim))
        except np.linalg.LinAlgError:
            raise FactorizationFailure(
                "state is numerically indefinite even after diagonal jitter"
            ) from None
    T = np.ascontiguousarray(L[::-1, ::-1].conj().T)
    values = T.view(float).reshape(-1)[factor_slots(dim)]
    return StateParams(dim=dim, values=values)
