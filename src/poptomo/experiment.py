"""Synthetic experiments mirroring the destructive sampling protocol.

Each time point is measured by evolving the true state to that time and
drawing ``repeats`` independent multinomial shots of ``atoms_per_shot``
atoms over the sublevel populations; means and sample standard
deviations then play the role of the real data.  Every shot is a fresh
"experimental run", so slow drifts can be emulated by giving each shot
its own detuning offset (quasi-static Gaussian noise, common-mode as if
from a drifting bias field: delta1 shifts by xi, delta2 by 2*xi).

Preparation schedules chain piecewise-constant ladder drives to build
the states under test from a named basis state.
"""

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidState, ValidationError
from .dynamics import (
    DensityMatrix,
    EvolutionModel,
    HamiltonianSpec,
    Ladder5,
    make_propagator,
    require_finite,
    vectorize,
)
from .records import MeasurementRecord, matrix_to_parts, shot_noise_floor
from .tomography import PopulationPredictor, prepare_pulse_state

DELTA_UNITS = ("ordinary", "angular")

BASIS_STATE_NAMES = {
    "mF=+2": 0,
    "mF=+1": 1,
    "mF=0": 2,
    "mF=-1": 3,
    "mF=-2": 4,
}


def basis_state_index(name, dim=5):
    """Resolve a named sublevel ('mF=+2' ... 'mF=-2') or integer index."""
    if dim == 5 and isinstance(name, str) and name in BASIS_STATE_NAMES:
        return BASIS_STATE_NAMES[name]
    if isinstance(name, bool) or not isinstance(name, int) or not 0 <= name < dim:
        raise ValidationError(f"unknown basis state {name!r} for dim {dim}")
    return name


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling protocol for one synthetic record.

    Frequencies are angular (rad/s) except ``gamma`` (a plain rate, 1/s)
    and ``detuning_noise`` (rad/s std of the per-shot common-mode
    detuning offset).  ``delta_units`` records how detunings were
    interpreted at file ingestion and is carried as provenance only.
    """

    hamiltonian: HamiltonianSpec
    gamma: float = 0.0
    sample_interval: float = 1.16e-6
    n_samples: int = 16
    repeats: int = 5
    atoms_per_shot: int = 80_000
    rng_seed: int = 0
    noiseless: bool = False
    detuning_noise: float = 0.0
    delta_units: str = "ordinary"

    def __post_init__(self):
        require_finite(self, "gamma", "sample_interval", "detuning_noise")
        if self.sample_interval <= 0.0:
            raise ValidationError("sample_interval must be positive")
        if self.n_samples < 2:
            raise ValidationError("need at least 2 samples")
        if self.repeats < 1:
            raise ValidationError("repeats must be at least 1")
        if self.atoms_per_shot < 1:
            raise ValidationError("atoms_per_shot must be at least 1")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.detuning_noise < 0.0:
            raise ValidationError("detuning_noise must be >= 0")
        if self.delta_units not in DELTA_UNITS:
            raise ValidationError(f"delta_units must be one of {DELTA_UNITS}")

    @property
    def times(self):
        return np.arange(self.n_samples) * self.sample_interval


def _drift_populations(rho_true, cfg, rng):
    """Exact per-shot populations under quasi-static detuning offsets.

    Returns an array (repeats, n_times, n): every shot evolves under its
    own frozen offset, emulating a bias drift much slower than one run.
    """
    h = cfg.hamiltonian
    if not isinstance(h, Ladder5):
        raise ValidationError("detuning noise requires the 5-level ladder drive")
    times = cfg.times
    rho_vec = vectorize(rho_true.matrix)
    diagonal = np.arange(h.dim) * (h.dim + 1)
    offsets = rng.normal(0.0, cfg.detuning_noise, size=(cfg.repeats, times.size))
    out = np.empty((cfg.repeats, times.size, h.dim))
    for (k, j), xi in np.ndenumerate(offsets):
        shifted = Ladder5(h.rabi_omega, h.delta1 + xi, h.delta2 + 2.0 * xi)
        model = EvolutionModel(hamiltonian=shifted, gamma=cfg.gamma)
        out[k, j] = (make_propagator(model, times[j])[diagonal] @ rho_vec).real
    return out


def synthesize_record(rho_true, cfg):
    """Generate a measurement record for a known true state.

    Deterministic for a fixed ``cfg.rng_seed``.  With ``noiseless`` the
    means are the exact populations and sigmas sit at the shot-noise
    floor; otherwise one multinomial draw over every shot of the record
    provides means and sample standard deviations, floored at ingestion.
    """
    if rho_true.dim != cfg.hamiltonian.dim:
        raise InvalidState(
            f"state dim {rho_true.dim} != Hamiltonian dim {cfg.hamiltonian.dim}"
        )
    times = cfg.times
    rng = np.random.default_rng(cfg.rng_seed)
    floor = shot_noise_floor(cfg.repeats, cfg.atoms_per_shot)
    drift = cfg.detuning_noise > 0.0

    # per-shot populations, axes in the order the shots are drawn:
    # (repeat, time, level) under drift, (time, repeat, level) otherwise
    if drift:
        shots = _drift_populations(rho_true, cfg, rng)
    else:
        model = EvolutionModel(hamiltonian=cfg.hamiltonian, gamma=cfg.gamma)
        exact = PopulationPredictor(model, times).populations(vectorize(rho_true.matrix))
        shots = np.broadcast_to(exact.T[:, None, :], (times.size, cfg.repeats, exact.shape[0]))
    if not cfg.noiseless:
        probs = np.clip(shots, 0.0, None)
        probs /= probs.sum(axis=-1, keepdims=True)
        shots = rng.multinomial(cfg.atoms_per_shot, probs) / cfg.atoms_per_shot

    if cfg.noiseless and not drift:
        means, sigmas = exact, np.zeros_like(exact)
    else:
        axis = 0 if drift else 1
        means = shots.mean(axis=axis).T
        sigmas = shots.std(axis=axis, ddof=1).T if cfg.repeats > 1 else np.zeros_like(means)
        # keep columns exactly normalized in the noiseless averaged case
        if cfg.noiseless:
            means = means / means.sum(axis=0, keepdims=True)

    sigmas = np.maximum(sigmas, floor)
    meta = {"config": config_to_dict(cfg), "true_state": matrix_to_parts(rho_true.matrix)}
    return MeasurementRecord(
        times=times, means=means, sigmas=sigmas, repeats=cfg.repeats, meta=meta
    )


def config_to_dict(cfg):
    """JSON-friendly dump of a config, Hamiltonian included."""
    h = cfg.hamiltonian
    if isinstance(h, Ladder5):
        ham = {
            "type": "ladder5",
            "rabi_hz": h.rabi_omega / (2.0 * math.pi),
            "delta1_rad_s": h.delta1,
            "delta2_rad_s": h.delta2,
        }
    else:
        ham = {"type": "generic", **matrix_to_parts(h.entries)}
    return {
        "hamiltonian": ham,
        "gamma_hz": cfg.gamma,
        "sample_interval_s": cfg.sample_interval,
        "n_samples": cfg.n_samples,
        "repeats": cfg.repeats,
        "atoms_per_shot": cfg.atoms_per_shot,
        "rng_seed": cfg.rng_seed,
        "noiseless": cfg.noiseless,
        "detuning_noise_hz": cfg.detuning_noise / (2.0 * math.pi),
        "delta_units": cfg.delta_units,
    }


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant ladder drive (angular rad/s, gamma in 1/s)."""

    duration: float
    omega: float
    delta1: float = 0.0
    delta2: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        require_finite(self, "duration", "omega", "delta1", "delta2", "gamma")
        if self.duration < 0.0:
            raise ValidationError("segment duration must be >= 0")


@dataclass(frozen=True, eq=False)
class PreparationSchedule:
    """Initial basis (or explicit) state plus a chain of drive segments."""

    initial_state: DensityMatrix
    segments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))


def run_preparation(schedule):
    """Fold the schedule's segments over its initial state."""
    rho = schedule.initial_state
    for seg in schedule.segments:
        model = EvolutionModel(
            hamiltonian=Ladder5(seg.omega, seg.delta1, seg.delta2),
            gamma=seg.gamma,
        )
        rho = prepare_pulse_state(rho, model, seg.duration)
    return rho


def pi_half_duration(rabi_omega):
    """Duration of a pi/2 rotation at the given angular Rabi frequency."""
    return 0.5 * math.pi / rabi_omega
