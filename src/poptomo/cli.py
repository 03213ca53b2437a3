"""Command-line entry points: simulate, reconstruct, sweep-gamma, fidelity, converge.

Only a front end: flags apply to what the library read from the files.
Exit codes are stable for scripting: 0 success, 2 validation failure,
3 numerical failure.
"""

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .errors import NumericalError, ValidationError
from .dynamics import uhlmann_fidelity
from .experiment import (
    load_experiment_config,
    load_model,
    load_state_or_schedule,
    save_convergence,
    save_reconstruction,
    save_state,
    save_sweep,
    synthesize_record,
)
from .optimize import SimplexConfig, SubplexConfig
from .records import load_record, save_record, sidecar_path
from .tomography import EPSILON_CEILING, convergence_study, reconstruct, sweep_gamma


def _parse_range(text):
    """start:stop:count range syntax, e.g. 10e-6:100e-6:10."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"bad range {text!r}") from None
    if count < 1 or not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"range {text!r} needs a finite start and stop and a count >= 1")
    if count * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"range {text!r} has more points than numpy's largest array")
    return np.linspace(start, stop, count)


def _solver_inputs(args):
    """The record, the model and the optimizer config, read in that order."""
    record = load_record(args.record)
    model = load_model(args.model)
    simplex = SimplexConfig(max_evals=args.max_evals)
    return record, model, SubplexConfig(simplex, restarts=args.restarts, rng_seed=args.seed)


def _reference(args):
    """The --reference state or schedule, or None without one."""
    return load_state_or_schedule(args.reference) if args.reference else None


def _add_solver_flags(parser):
    """The inputs and optimizer flags of reconstruct, sweep-gamma and converge."""
    parser.add_argument("--record", required=True, help="record CSV")
    parser.add_argument("--model", required=True, help="evolution model JSON")
    parser.add_argument(
        "--seed",
        type=int,
        default=SubplexConfig.rng_seed,
        help="accepted but unused: the solve has no random start",
    )
    parser.add_argument(
        "--restarts",
        type=int,
        default=SubplexConfig.restarts,
        help="accepted but unused: the solve restarts only where its point is uncertified",
    )
    parser.add_argument(
        "--max-evals",
        type=int,
        default=SimplexConfig.max_evals,
        help="total evaluation budget of one reconstruction (every BFGS run together)",
    )


def cmd_simulate(args):
    cfg = load_experiment_config(args.config)
    seed = cfg.rng_seed if args.seed is None else args.seed
    cfg = replace(cfg, rng_seed=seed, noiseless=cfg.noiseless or args.noiseless)
    rho_true = load_state_or_schedule(args.state)
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
    record, model, cfg = _solver_inputs(args)
    if args.gamma is not None:
        model = replace(model, gamma=args.gamma)
    reference = _reference(args)
    result = reconstruct(record, model, cfg, epsilon_ceiling=args.epsilon_ceiling)
    fidelity = None if reference is None else uhlmann_fidelity(result.rho0, reference)
    save_reconstruction(result, args.out, fidelity=fidelity)
    line = (
        f"epsilon {result.epsilon:.6e} (gap {result.gap:.2e})"
        f" after {result.opt.evals} evaluations"
    )
    if fidelity is not None:
        line += f", fidelity {fidelity:.4f}"
    print(line + f" -> {args.out}")
    return 0


def cmd_sweep_gamma(args):
    record, model, cfg = _solver_inputs(args)
    windows = _parse_range(args.windows)
    gammas = _parse_range(args.gammas)
    sweep = sweep_gamma(record, model.hamiltonian, windows, gammas, cfg)
    save_sweep(sweep, args.out)
    cells = (
        f"{w * 1e6:.1f}us->" + (f"{g:.0f}Hz" if math.isfinite(g) else "none")
        for w, g in zip(sweep.windows, sweep.gamma_opt)
    )
    print("gamma_opt per window: " + ", ".join(cells))
    return 0


def cmd_fidelity(args):
    a = load_state_or_schedule(args.a)
    b = load_state_or_schedule(args.b)
    print(repr(uhlmann_fidelity(a, b)))
    return 0


def cmd_converge(args):
    record, model, cfg = _solver_inputs(args)
    reference = _reference(args)
    windows = _parse_range(args.windows) if args.windows else record.times[1:]
    points = convergence_study(record, model, cfg, windows, reference=reference)
    save_convergence(points, args.out)
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct the initial state from a record")
    _add_solver_flags(p)
    p.add_argument("--gamma", type=float, default=None, help="override dephasing rate (1/s)")
    p.add_argument("--reference", default=None, help="state/schedule JSON for fidelity")
    p.add_argument("--out", required=True, help="output result JSON")
    p.add_argument(
        "--epsilon-ceiling",
        type=float,
        default=EPSILON_CEILING,
        help="fail (exit 3) if the best error stays above this",
    )
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep-gamma", help="error surface over windows and rates")
    _add_solver_flags(p)
    p.add_argument("--windows", required=True, help="start:stop:count seconds")
    p.add_argument("--gammas", required=True, help="start:stop:count 1/s")
    p.add_argument("--out", required=True, help="output CSV (long format)")
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("fidelity", help="Uhlmann fidelity between two states")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("converge", help="reconstruction quality vs window length")
    _add_solver_flags(p)
    p.add_argument("--reference", default=None)
    p.add_argument("--windows", default=None, help="start:stop:count seconds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
