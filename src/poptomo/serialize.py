"""JSON file formats for states, models, configs and schedules.

Conventions: ``rabi_hz`` and ``detuning_noise_hz`` are ordinary
frequencies (multiplied by 2*pi on load), ``gamma_hz`` is a plain rate
in 1/s (never multiplied by 2*pi), and ``delta1``/``delta2`` follow the
``delta_units`` setting: "ordinary" (default) multiplies by 2*pi,
"angular" takes the numbers as rad/s verbatim.  Complex matrices are
stored as separate real/imag nested lists.
"""

import json
import math

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .dynamics import DensityMatrix, EvolutionModel, GenericHamiltonian, Ladder5
from .experiment import (
    DELTA_UNITS,
    ExperimentConfig,
    PreparationSchedule,
    PulseSegment,
    basis_state_index,
)
from .records import atomic_write, json_number

TWO_PI = 2.0 * math.pi


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
            ) from None
    if not isinstance(obj, dict):
        raise SchemaError(str(path), "expected a JSON object")
    return obj


def matrix_to_parts(matrix):
    m = np.asarray(matrix)
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def parts_to_matrix(obj, what):
    try:
        real = np.asarray(obj["real"], dtype=float)
        imag = np.asarray(obj.get("imag", np.zeros_like(real)), dtype=float)
    except (KeyError, TypeError, ValueError):
        raise SchemaError(what, "expected 'real'/'imag' nested lists") from None
    if real.shape != imag.shape:
        raise SchemaError(what, "real and imag parts differ in shape")
    return real + 1j * imag


def delta_to_angular(value, delta_units):
    if delta_units not in DELTA_UNITS:
        raise ValidationError(f"delta_units must be one of {DELTA_UNITS}")
    return value * TWO_PI if delta_units == "ordinary" else value


def parse_hamiltonian(obj, delta_units="ordinary"):
    """Build a Hamiltonian spec from its JSON form."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("hamiltonian", "expected an object with a 'type' field")
    kind = obj["type"]
    if kind == "ladder5":
        rabi = json_number(obj, "rabi_hz", None)
        d1 = json_number(obj, "delta1", 0.0)
        d2 = json_number(obj, "delta2", 0.0)
        if "delta1_rad_s" in obj or "delta2_rad_s" in obj:
            d1 = json_number(obj, "delta1_rad_s", 0.0)
            d2 = json_number(obj, "delta2_rad_s", 0.0)
            return Ladder5(rabi_omega=TWO_PI * rabi, delta1=d1, delta2=d2)
        return Ladder5(
            rabi_omega=TWO_PI * rabi,
            delta1=delta_to_angular(d1, delta_units),
            delta2=delta_to_angular(d2, delta_units),
        )
    if kind == "generic":
        return GenericHamiltonian(entries=parts_to_matrix(obj, "hamiltonian"))
    raise SchemaError("hamiltonian", f"unknown type {kind!r}")


def load_model(path, delta_units=None):
    """EvolutionModel from {hamiltonian, gamma_hz[, delta_units]}."""
    obj = _load_json(path)
    units = delta_units or obj.get("delta_units", "ordinary")
    return EvolutionModel(
        hamiltonian=parse_hamiltonian(obj.get("hamiltonian", {}), units),
        gamma=json_number(obj, "gamma_hz", 0.0),
    )


def load_experiment_config(path, *, delta_units=None, seed=None, noiseless=None):
    """ExperimentConfig from JSON with optional CLI overrides."""
    obj = _load_json(path)
    units = delta_units or obj.get("delta_units", "ordinary")
    cfg = ExperimentConfig(
        hamiltonian=parse_hamiltonian(obj.get("hamiltonian", {}), units),
        gamma=json_number(obj, "gamma_hz", 0.0),
        sample_interval=json_number(obj, "sample_interval_s", 1.16e-6),
        n_samples=json_number(obj, "n_samples", 16, int),
        repeats=json_number(obj, "repeats", 5, int),
        atoms_per_shot=json_number(obj, "atoms_per_shot", 80_000, int),
        rng_seed=int(seed) if seed is not None else json_number(obj, "rng_seed", 0, int),
        noiseless=bool(noiseless if noiseless is not None else obj.get("noiseless", False)),
        detuning_noise=TWO_PI * json_number(obj, "detuning_noise_hz", 0.0),
        delta_units=units,
    )
    return cfg


def load_state(path):
    obj = _load_json(path)
    return DensityMatrix(parts_to_matrix(obj, "state"))


def save_state(rho, path):
    payload = {"dim": rho.dim, **matrix_to_parts(rho.matrix)}
    atomic_write(path, json.dumps(payload, indent=2) + "\n")


def parse_schedule(obj, delta_units="ordinary"):
    initial = obj.get("initial_state")
    if initial is None:
        raise SchemaError("initial_state", "missing")
    if isinstance(initial, dict):
        rho = DensityMatrix(parts_to_matrix(initial, "initial_state"))
    else:
        rho = DensityMatrix.basis_state(5, basis_state_index(initial))
    segments = []
    for i, seg in enumerate(obj.get("segments", [])):
        if not isinstance(seg, dict):
            raise SchemaError(f"segments[{i}]", "expected an object")
        segments.append(
            PulseSegment(
                duration=json_number(seg, "duration_s", None),
                omega=TWO_PI * json_number(seg, "rabi_hz", None),
                delta1=delta_to_angular(json_number(seg, "delta1", 0.0), delta_units),
                delta2=delta_to_angular(json_number(seg, "delta2", 0.0), delta_units),
                gamma=json_number(seg, "gamma_hz", 0.0),
            )
        )
    return PreparationSchedule(initial_state=rho, segments=segments)


def load_schedule(path, delta_units=None):
    obj = _load_json(path)
    units = delta_units or obj.get("delta_units", "ordinary")
    return parse_schedule(obj, units)


def load_state_or_schedule(path, delta_units=None):
    """Accept a state file, a reconstruction result, or a schedule.

    Schedules are run through their preparation first; result files
    contribute their reconstructed state.
    """
    from .experiment import run_preparation

    obj = _load_json(path)
    if isinstance(obj, dict) and ("segments" in obj or "initial_state" in obj):
        units = delta_units or obj.get("delta_units", "ordinary")
        return run_preparation(parse_schedule(obj, units))
    if isinstance(obj, dict) and "rho0" in obj:
        return DensityMatrix(parts_to_matrix(obj["rho0"], "rho0"))
    return DensityMatrix(parts_to_matrix(obj, "state"))


def save_reconstruction(result, path, *, fidelity=None):
    """Reconstruction result JSON: state, error, diagnostics."""
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
        },
    }
    if fidelity is not None:
        payload["fidelity"] = fidelity
    atomic_write(path, json.dumps(payload, indent=2) + "\n")
