"""Synthetic experiments mirroring the destructive sampling protocol, and their files.

Each time point is measured by evolving the true state to that time and
drawing ``repeats`` independent multinomial shots of ``atoms_per_shot``
atoms over the sublevel populations; means and sample standard
deviations then play the role of the real data.  Every shot is a fresh
"experimental run", so slow drifts can be emulated by giving each shot
its own detuning offset (quasi-static Gaussian noise, common-mode as if
from a drifting bias field: delta1 shifts by xi, delta2 by 2*xi).

Preparation schedules chain piecewise-constant ladder drives to build
the states under test from a named basis state.

Configs, models, schedules, states, results and the sweep and convergence
tables are read and written here.  ``rabi_hz`` and ``detuning_noise_hz``
are ordinary frequencies (multiplied by 2*pi on load), ``gamma_hz`` is a
plain rate in 1/s, ``delta1``/``delta2`` are ordinary frequencies too
and ``delta1_rad_s``/``delta2_rad_s`` are taken as rad/s verbatim: a
detuning key names its unit.  Matrices use ``records``' format.

Each loader takes a path and checks every field of its file; a key the
file's format does not name is a ``SchemaError``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidState, SchemaError, ValidationError
from .dynamics import (
    DensityMatrix,
    EvolutionModel,
    GenericHamiltonian,
    HamiltonianSpec,
    Ladder5,
    build_hamiltonian,
    drive_populations,
    ladder_diagonal,
    require_finite,
    vectorize,
)
from .records import (
    MeasurementRecord,
    json_field,
    json_keys,
    json_number,
    matrix_to_parts,
    parts_to_matrix,
    read_json,
    shot_noise_floor,
    sidecar_path,
    write_csv,
    write_json,
)
from .tomography import PopulationPredictor, prepare_pulse_state

TWO_PI = 2.0 * math.pi
# numpy takes counts (multinomial draws, array lengths) as int64
_MAX_COUNT = int(np.iinfo(np.int64).max)

BASIS_STATE_NAMES = {
    "mF=+2": 0,
    "mF=+1": 1,
    "mF=0": 2,
    "mF=-1": 3,
    "mF=-2": 4,
}


def basis_state_index(name):
    """Resolve a named ladder sublevel ('mF=+2' ... 'mF=-2') or integer index."""
    if isinstance(name, str) and name in BASIS_STATE_NAMES:
        return BASIS_STATE_NAMES[name]
    if isinstance(name, bool) or not isinstance(name, int) or not 0 <= name < Ladder5.dim:
        raise ValidationError(f"unknown basis state {name!r} for dim {Ladder5.dim}")
    return name


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling protocol for one synthetic record.

    Frequencies are angular (rad/s) except ``gamma`` (a plain rate, 1/s)
    and ``detuning_noise`` (rad/s std of the per-shot common-mode
    detuning offset).
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

    def __post_init__(self):
        require_finite(self, "gamma", "sample_interval", "detuning_noise")
        if self.sample_interval <= 0.0:
            raise ValidationError("sample_interval must be positive")
        for name, low in (("n_samples", 2), ("repeats", 1), ("atoms_per_shot", 1)):
            count = getattr(self, name)
            if not low <= count <= _MAX_COUNT:
                raise ValidationError(f"{name} must be in [{low}, {_MAX_COUNT}], got {count}")
        # synthesis holds every shot's populations in one float64 array
        shots = self.n_samples * self.repeats * self.hamiltonian.dim
        if shots * 8 > np.iinfo(np.intp).max:
            raise ValidationError(
                f"n_samples * repeats * dim = {shots} shots exceed numpy's largest array"
            )
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.detuning_noise < 0.0:
            raise ValidationError("detuning_noise must be >= 0")

    @property
    def times(self):
        return np.arange(self.n_samples) * self.sample_interval


def _drift_populations(rho_true, model, cfg, rng):
    """Exact per-shot populations under quasi-static detuning offsets.

    Returns an array (repeats, n_times, n): every shot evolves under its
    own frozen offset, emulating a bias drift much slower than one run.
    The shots of one time column share gamma and t, so their drives go to
    ``drive_populations`` as one stack per column.
    """
    h = model.hamiltonian
    if not isinstance(h, Ladder5):
        raise ValidationError("detuning noise requires the 5-level ladder drive")
    times = cfg.times
    offsets = rng.normal(0.0, cfg.detuning_noise, size=(cfg.repeats, times.size))
    with np.errstate(over="ignore"):  # an overflow is reported just below
        d1, d2 = h.delta1 + offsets, h.delta2 + 2.0 * offsets
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
        raise ValidationError("a detuning offset drives delta1 or delta2 to a non-finite value")
    diagonals = ladder_diagonal(d1, d2)
    stack = np.repeat(build_hamiltonian(h).real[None], cfg.repeats, axis=0)
    levels = np.arange(h.dim)
    out = np.empty((cfg.repeats, times.size, h.dim))
    for j, t in enumerate(times):
        stack[:, levels, levels] = diagonals[:, j]
        out[:, j] = drive_populations(stack, model.gamma, rho_true.matrix, t)
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
    model = EvolutionModel(hamiltonian=cfg.hamiltonian, gamma=cfg.gamma)

    # per-shot populations, axes in the order the shots are drawn:
    # (repeat, time, level) under drift, (time, repeat, level) otherwise
    if drift:
        shots = _drift_populations(rho_true, model, cfg, rng)
    else:
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
    """JSON-friendly dump of a config, Hamiltonian included.

    ``rabi_hz`` and ``detuning_noise_hz`` are written as x / 2pi and read
    back as hz * 2pi, so a config built in Python reads back within one
    ulp in those two fields: (x / 2pi) * 2pi != x for about 13% of
    doubles.  A config that came from a file (x = 2pi * hz) reads back
    exactly.
    """
    h = cfg.hamiltonian
    if isinstance(h, Ladder5):
        ham = {
            "type": "ladder5",
            "rabi_hz": h.rabi_omega / TWO_PI,
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
        "detuning_noise_hz": cfg.detuning_noise / TWO_PI,
    }


_DRIVE_KEYS = ("rabi_hz", "delta1", "delta2", "delta1_rad_s", "delta2_rad_s")


def _ladder_drive(obj):
    """(omega, delta1, delta2) in rad/s from a ladder model's or a schedule segment's fields."""
    omega = TWO_PI * json_number(obj, "rabi_hz", None)
    angular = "delta1_rad_s" in obj or "delta2_rad_s" in obj
    if angular and ("delta1" in obj or "delta2" in obj):
        raise SchemaError("delta1_rad_s", "give delta1/delta2 or delta1_rad_s/delta2_rad_s, not both")
    suffix, scale = ("_rad_s", 1.0) if angular else ("", TWO_PI)  # the key names the unit
    d1 = json_number(obj, "delta1" + suffix, 0.0)
    d2 = json_number(obj, "delta2" + suffix, 0.0)
    return omega, scale * d1, scale * d2


def _parse_hamiltonian(obj):
    """Build a Hamiltonian spec from its JSON form."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("hamiltonian", "expected an object with a 'type' field")
    kind = obj["type"]
    if kind == "ladder5":
        json_keys(obj, "hamiltonian", ("type", *_DRIVE_KEYS))
        return Ladder5(*_ladder_drive(obj))
    if kind == "generic":
        return GenericHamiltonian(entries=parts_to_matrix(obj, "hamiltonian", ("type",)))
    raise SchemaError("hamiltonian", f"unknown type {kind!r}")


def _read_drive(path, what, keys):
    """A model or config file: its object, whose keys must be among ``keys``, Hamiltonian and gamma."""
    obj = read_json(path)
    json_keys(obj, what, keys)
    return obj, _parse_hamiltonian(obj.get("hamiltonian", {})), json_number(obj, "gamma_hz", 0.0)


def load_model(path):
    """EvolutionModel from {hamiltonian, gamma_hz}."""
    _, hamiltonian, gamma = _read_drive(path, "model", ("hamiltonian", "gamma_hz"))
    return EvolutionModel(hamiltonian=hamiltonian, gamma=gamma)


_CONFIG_KEYS = ("hamiltonian", "gamma_hz", "sample_interval_s", "n_samples", "repeats",
                "atoms_per_shot", "rng_seed", "noiseless", "detuning_noise_hz")


def load_experiment_config(path):
    """ExperimentConfig from ``config_to_dict``'s JSON."""
    obj, hamiltonian, gamma = _read_drive(path, "config", _CONFIG_KEYS)
    default = ExperimentConfig  # its class attributes are the field defaults
    return ExperimentConfig(
        hamiltonian=hamiltonian,
        gamma=gamma,
        sample_interval=json_number(obj, "sample_interval_s", default.sample_interval),
        n_samples=json_number(obj, "n_samples", default.n_samples, int),
        repeats=json_number(obj, "repeats", default.repeats, int),
        atoms_per_shot=json_number(obj, "atoms_per_shot", default.atoms_per_shot, int),
        rng_seed=json_number(obj, "rng_seed", default.rng_seed, int),
        noiseless=json_field(obj, "noiseless", default.noiseless, bool),
        detuning_noise=TWO_PI * json_number(obj, "detuning_noise_hz", 0.0),
    )


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


def _parse_schedule(obj):
    json_keys(obj, "schedule", ("initial_state", "segments"))
    initial = obj.get("initial_state")
    if initial is None:
        raise SchemaError("initial_state", "missing")
    if isinstance(initial, dict):
        rho = DensityMatrix(parts_to_matrix(initial, "initial_state"))
    else:
        try:
            rho = DensityMatrix.basis_state(Ladder5.dim, basis_state_index(initial))
        except ValidationError as exc:
            raise SchemaError("initial_state", str(exc)) from None
    segments = []
    for i, seg in enumerate(json_field(obj, "segments", [], list)):
        if not isinstance(seg, dict):
            raise SchemaError(f"segments[{i}]", "expected an object")
        json_keys(seg, f"segments[{i}]", ("duration_s", "gamma_hz", *_DRIVE_KEYS))
        duration = json_number(seg, "duration_s", None)
        drive = _ladder_drive(seg)
        segments.append(PulseSegment(duration, *drive, gamma=json_number(seg, "gamma_hz", 0.0)))
    return PreparationSchedule(initial_state=rho, segments=segments)


def save_state(rho, path):
    write_json(path, {"dim": rho.dim, **matrix_to_parts(rho.matrix)})


def load_state_or_schedule(path):
    """Accept a state file, a reconstruction result, or a schedule.

    Schedules are run through their preparation first; result files
    contribute their reconstructed state.
    """
    obj = read_json(path)
    if "segments" in obj or "initial_state" in obj:
        return run_preparation(_parse_schedule(obj))
    if "rho0" in obj:
        return DensityMatrix(parts_to_matrix(obj["rho0"], "rho0"))
    return DensityMatrix(parts_to_matrix(obj, "state"))


def save_reconstruction(result, path, *, fidelity=None):
    """Reconstruction result JSON: state, error, and the optimizer diagnostics with the gap."""
    payload = {
        "rho0": {"dim": result.rho0.dim, **matrix_to_parts(result.rho0.matrix)},
        "epsilon": result.epsilon,
        "gamma_used_hz": result.gamma_used,
        "window_s": list(result.window),
        "optimizer": {
            "best_f": result.opt.best_f,
            "evals": result.opt.evals,
            "converged_by": result.opt.converged_by,
            "per_restart_f": [float(v) for v in result.opt.per_restart_f],
            "gap": result.gap,
        },
    }
    if fidelity is not None:
        payload["fidelity"] = fidelity
    write_json(path, payload)


def save_sweep(sweep, path):
    """Long-format sweep CSV, plus a sidecar with the axes and each window's optimal rate."""
    windows, gammas = np.meshgrid(sweep.windows, sweep.gammas, indexing="ij")
    rows = zip(windows.ravel(), gammas.ravel(), sweep.error_surface.ravel())
    write_csv(path, ["window_s", "gamma_hz", "epsilon"], rows)
    sidecar = {
        "windows_s": sweep.windows.tolist(),
        "gammas_hz": sweep.gammas.tolist(),
        # NaN (every cell of the window failed) is not JSON: write null
        "gamma_opt_hz": [g if math.isfinite(g) else None for g in sweep.gamma_opt.tolist()],
    }
    write_json(sidecar_path(path), sidecar)


def save_convergence(points, path):
    """Convergence-study CSV; the third cell is empty where no reference was given."""
    rows = [(p.window, p.epsilon, p.infidelity) for p in points]
    write_csv(path, ["window_s", "epsilon", "one_minus_fidelity"], rows)


def pi_half_duration(rabi_omega):
    """Duration of a pi/2 rotation at the given angular Rabi frequency."""
    if rabi_omega == 0.0 or not math.isfinite(rabi_omega):
        raise ValidationError(f"Rabi frequency must be finite and non-zero, got {rabi_omega!r}")
    return 0.5 * math.pi / rabi_omega
