"""Command-line entry points: simulate, reconstruct, sweep-gamma, fidelity, converge.

Exit codes are stable for scripting: 0 success, 2 validation failure,
3 numerical failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from .errors import NumericalError, ValidationError
from .dynamics import uhlmann_fidelity
from .experiment import synthesize_record
from .optimize import SimplexConfig, SubplexConfig
from .records import atomic_write, load_record, save_record, sidecar_path
from .serialize import (
    load_experiment_config,
    load_model,
    load_state_or_schedule,
    save_reconstruction,
    save_state,
)
from .tomography import EvolutionModel, convergence_study, reconstruct, sweep_gamma


def _parse_range(text, count_must_be_int=True):
    """start:stop:count range syntax, e.g. 10e-6:100e-6:10."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"bad range {text!r}") from None
    if count < 1:
        raise ValidationError("range count must be >= 1")
    return np.linspace(start, stop, count)


def _subplex_config(args):
    simplex = SimplexConfig(max_evals=args.max_evals)
    return SubplexConfig(
        simplex=simplex,
        restarts=args.restarts,
        rng_seed=args.seed,
    )


def _add_opt_flags(parser):
    parser.add_argument("--seed", type=int, default=0, help="optimizer RNG seed")
    parser.add_argument("--restarts", type=int, default=32, help="multi-start restarts")
    parser.add_argument(
        "--max-evals", type=int, default=200_000, help="evaluation budget per restart"
    )


def _add_delta_units(parser):
    parser.add_argument(
        "--delta-units",
        choices=("angular", "ordinary"),
        default=None,
        help="how to read delta1/delta2 in input files (default from file, else ordinary)",
    )


def cmd_simulate(args):
    cfg = load_experiment_config(
        args.config,
        delta_units=args.delta_units,
        seed=args.seed,
        noiseless=args.noiseless or None,
    )
    rho_true = load_state_or_schedule(args.state, args.delta_units)
    record = synthesize_record(rho_true, cfg)
    save_record(record, args.out)
    if args.save_state:
        save_state(rho_true, args.save_state)
    print(
        f"wrote {record.n_times} time points x {record.dim} sublevels to {args.out}"
        f" (sidecar {sidecar_path(args.out)})"
    )
    return 0


def cmd_reconstruct(args):
    record = load_record(args.record)
    model = load_model(args.model, args.delta_units)
    if args.gamma is not None:
        model = EvolutionModel(hamiltonian=model.hamiltonian, gamma=args.gamma)
    result = reconstruct(
        record, model, _subplex_config(args), epsilon_ceiling=args.epsilon_ceiling
    )
    fidelity = None
    if args.reference:
        reference = load_state_or_schedule(args.reference, args.delta_units)
        fidelity = uhlmann_fidelity(result.rho0, reference)
    save_reconstruction(result, args.out, fidelity=fidelity)
    line = f"epsilon {result.epsilon:.6e} after {result.opt.evals} evaluations"
    if fidelity is not None:
        line += f", fidelity {fidelity:.4f}"
    print(line + f" -> {args.out}")
    return 0


def cmd_sweep_gamma(args):
    record = load_record(args.record)
    model = load_model(args.model, args.delta_units)
    windows = _parse_range(args.windows)
    gammas = _parse_range(args.gammas)
    sweep = sweep_gamma(record, model.hamiltonian, windows, gammas, _subplex_config(args))
    lines = ["window_s,gamma_hz,epsilon"]
    # plain floats: numpy 2 reprs a scalar as "np.float64(...)"
    surface = sweep.error_surface.tolist()
    for wi, window in enumerate(sweep.windows.tolist()):
        for gi, gamma in enumerate(sweep.gammas.tolist()):
            lines.append(f"{window!r},{gamma!r},{surface[wi][gi]!r}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    sidecar = {
        "windows_s": sweep.windows.tolist(),
        "gammas_hz": sweep.gammas.tolist(),
        # NaN (every cell of the window failed) is not JSON: write null
        "gamma_opt_hz": [g if math.isfinite(g) else None for g in sweep.gamma_opt.tolist()],
    }
    atomic_write(sidecar_path(args.out), json.dumps(sidecar, indent=2) + "\n")
    print(
        "gamma_opt per window: "
        + ", ".join(
            f"{w * 1e6:.1f}us->{g:.0f}Hz" for w, g in zip(sweep.windows, sweep.gamma_opt)
        )
    )
    return 0


def cmd_fidelity(args):
    a = load_state_or_schedule(args.a)
    b = load_state_or_schedule(args.b)
    print(repr(uhlmann_fidelity(a, b)))
    return 0


def cmd_converge(args):
    record = load_record(args.record)
    model = load_model(args.model, args.delta_units)
    reference = None
    if args.reference:
        reference = load_state_or_schedule(args.reference, args.delta_units)
    if args.windows:
        windows = _parse_range(args.windows)
    else:
        windows = record.times[1:]
    points = convergence_study(
        record, model, _subplex_config(args), windows, reference=reference
    )
    lines = ["window_s,epsilon,one_minus_fidelity"]
    for p in points:
        infid = "" if p.infidelity is None else repr(p.infidelity)
        lines.append(f"{p.window!r},{p.epsilon!r},{infid}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(points)} windows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poptomo",
        description="Density-matrix reconstruction from population dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a measurement record")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--state", required=True, help="true state or preparation schedule JSON")
    p.add_argument("--out", required=True, help="output record CSV")
    p.add_argument("--save-state", default=None, help="also write the prepared state JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config RNG seed")
    p.add_argument("--noiseless", action="store_true", help="exact means, floor sigmas")
    _add_delta_units(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct the initial state from a record")
    p.add_argument("--record", required=True)
    p.add_argument("--model", required=True, help="evolution model JSON")
    p.add_argument("--gamma", type=float, default=None, help="override dephasing rate (1/s)")
    p.add_argument("--reference", default=None, help="state/schedule JSON for fidelity")
    p.add_argument("--out", required=True, help="output result JSON")
    p.add_argument(
        "--epsilon-ceiling",
        type=float,
        default=1.0,
        help="fail (exit 3) if the best error stays above this",
    )
    _add_opt_flags(p)
    _add_delta_units(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep-gamma", help="error surface over windows and rates")
    p.add_argument("--record", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--windows", required=True, help="start:stop:count seconds")
    p.add_argument("--gammas", required=True, help="start:stop:count 1/s")
    p.add_argument("--out", required=True, help="output CSV (long format)")
    _add_opt_flags(p)
    _add_delta_units(p)
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("fidelity", help="Uhlmann fidelity between two states")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("converge", help="reconstruction quality vs window length")
    p.add_argument("--record", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--windows", default=None, help="start:stop:count seconds")
    p.add_argument("--out", required=True)
    _add_opt_flags(p)
    _add_delta_units(p)
    p.set_defaults(func=cmd_converge)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
