"""The benchmark's workloads: inputs made from the seed, ops, and their checks.

Each workload is a closed loop with one caller.  ``setup()`` builds every
input from the workload seed; ``op(i)`` returns the i-th operation of the
stream as ``(kind, call, check)``: ``call()`` is the timed call into
poptomo and ``check(output)`` returns ``(ok, reason, quality)`` without
being timed.  Shapes are scaled-down versions of the acceptance criteria
(3/4 for ``reconstruct``, 6 for ``sweep``) plus record generation.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi
# Reference drive of the acceptance suite: 60 kHz Rabi, 3 and 11 kHz detunings.
RABI = TWO_PI * 60e3
DELTA1 = TWO_PI * 3e3
DELTA2 = TWO_PI * 11e3
SAMPLE_INTERVAL = 1.16e-6

FIDELITY_FLOOR = 0.93  # criterion 3's per-state floor
STATE_ATOL = 1e-10
NOISELESS_EPSILON_MAX = 1e-10


@dataclass(frozen=True)
class Sizes:
    """Problem shapes; FULL is the benchmark, TINY only proves the plumbing."""

    reconstruct_points: int = 16
    reconstruct_restarts: int = 4
    reconstruct_evals: int = 20_000
    reconstruct_pool: int = 12
    sweep_points: int = 87
    sweep_restarts: int = 1
    sweep_evals: int = 3_000
    sweep_gammas: tuple = tuple(np.linspace(0.0, 700.0, 8))
    sweep_gamma_true: tuple = (150.0, 400.0, 650.0)
    sweep_pool_cycles: int = 6
    # At 25 repeats (criterion 6's count) gamma_opt fell from the 30 us to
    # the 100 us window on about 1 record in 200, with a 2 x 20k budget
    # giving the same gamma_opt: noise in the record, not the optimizer.
    # 100 repeats halve that noise; 0 of 40 records fell.
    sweep_drift_repeats: int = 100
    drift_windows: tuple = (30e-6, 100e-6)
    drift_repeats: int = 25
    drift_noise: float = TWO_PI * 10e3
    synth_points: int = 87
    synth_plain_per_cycle: int = 8
    cli_points: int = 16
    cli_restarts: int = 1
    cli_evals: int = 2_000


FULL = Sizes()
TINY = replace(
    FULL,
    reconstruct_restarts=1,
    reconstruct_evals=300,
    reconstruct_pool=2,
    sweep_points=20,
    sweep_evals=200,
    sweep_gammas=(0.0, 350.0, 700.0),
    sweep_pool_cycles=1,
    sweep_drift_repeats=2,
    drift_windows=(12e-6, 22e-6),
    drift_repeats=2,
    synth_points=20,
    synth_plain_per_cycle=1,
    cli_evals=200,
)


def record_digest(record):
    """sha256 over a record's times, means and sigmas (float64 bytes)."""
    h = hashlib.sha256()
    for array in (record.times, record.means, record.sigmas):
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return h.hexdigest()


def _state_problem(rho):
    """Reason a reconstructed state is not a valid density matrix, or None."""
    m = rho.matrix
    if not np.all(np.isfinite(m)):
        return "non-finite state"
    if np.abs(m - m.conj().T).max() > STATE_ATOL:
        return "state not Hermitian"
    if abs(m.trace().real - 1.0) > STATE_ATOL:
        return "state trace != 1"
    if np.linalg.eigvalsh(m)[0] < -STATE_ATOL:
        return "state not positive semidefinite"
    return None


def _opt_quality(opt):
    return {
        "evals": int(opt.evals),
        "converged_by": opt.converged_by,
        "per_restart_f": [float(v) for v in opt.per_restart_f],
        "winner": int(np.argmin(opt.per_restart_f)),
    }


class _Workload:
    """Shared helpers; a workload defines ``kinds``, ``setup()`` and ``op(i)``."""

    kinds = ()

    def __init__(self, pt, mods, seed, sizes, workdir):
        self.pt = pt
        self.mods = mods
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.ladder = pt.Ladder5(RABI, DELTA1, DELTA2)
        self.digests = []

    def pi_half_state(self):
        pt = self.pt
        model = pt.EvolutionModel(hamiltonian=self.ladder, gamma=0.0)
        return pt.prepare_pulse_state(
            pt.DensityMatrix.basis_state(5, 0), model, pt.pi_half_duration(RABI)
        )

    def synthesize(self, rho, **kwargs):
        cfg = self.pt.ExperimentConfig(hamiltonian=self.ladder, **kwargs)
        record = self.pt.synthesize_record(rho, cfg)
        self.digests.append(record_digest(record))
        return record


class Reconstruct(_Workload):
    """Criterion-3/4 reconstructions: pi/2 and random 4-segment schedule states."""

    kinds = ("reconstruct_pi_half", "reconstruct_schedule")

    def setup(self):
        pt, s = self.pt, self.sizes
        rng = np.random.default_rng(self.seed)
        pi_half = self.pi_half_state()
        self.pool = []
        for k in range(s.reconstruct_pool):
            if k % 2 == 0:
                rho = pi_half
            else:
                segments = [
                    pt.PulseSegment(
                        duration=rng.uniform(1e-6, 4e-6),
                        omega=RABI,
                        delta1=rng.uniform(-TWO_PI * 15e3, TWO_PI * 15e3),
                        delta2=rng.uniform(-TWO_PI * 15e3, TWO_PI * 15e3),
                    )
                    for _ in range(4)
                ]
                rho = pt.run_preparation(pt.PreparationSchedule(
                    initial_state=pt.DensityMatrix.basis_state(5, 0), segments=segments))
            record = self.synthesize(
                rho, gamma=375.0, n_samples=s.reconstruct_points,
                rng_seed=int(rng.integers(2**31)),
            )
            self.pool.append((record, rho))
        self.model = pt.EvolutionModel(hamiltonian=self.ladder, gamma=375.0)
        self.cfg = pt.SubplexConfig(
            simplex=pt.SimplexConfig(max_evals=s.reconstruct_evals),
            restarts=s.reconstruct_restarts,
            rng_seed=0,
        )

    def op(self, i):
        record, rho_true = self.pool[i % len(self.pool)]
        tomography = self.mods.tomography

        def call():
            return tomography.reconstruct(record, self.model, self.cfg)

        def check(result):
            quality = {"epsilon": float(result.epsilon), **_opt_quality(result.opt)}
            problem = _state_problem(result.rho0)
            if problem:
                return False, problem, quality
            fidelity = self.pt.uhlmann_fidelity(result.rho0, rho_true)
            quality["infidelity"] = 1.0 - fidelity
            if fidelity < FIDELITY_FLOOR:
                return False, f"fidelity {fidelity:.4f} < {FIDELITY_FLOOR}", quality
            return True, None, quality

        return self.kinds[i % 2], call, check


class Sweep(_Workload):
    """Short-budget gamma sweeps: fixed-rate records and a detuning-drift record."""

    kinds = ("sweep_fixed", "sweep_drift")

    def setup(self):
        pt, s = self.pt, self.sizes
        rng = np.random.default_rng(self.seed)
        rho = self.pi_half_state()
        self.fixed = []
        for _ in range(s.sweep_pool_cycles):
            for gamma_true in s.sweep_gamma_true:
                record = self.synthesize(
                    rho, gamma=gamma_true, n_samples=s.sweep_points,
                    rng_seed=int(rng.integers(2**31)),
                )
                self.fixed.append((record, gamma_true))
        self.drift = self.synthesize(
            rho, gamma=0.0, n_samples=s.sweep_points, repeats=s.sweep_drift_repeats,
            detuning_noise=s.drift_noise, rng_seed=int(rng.integers(2**31)),
        )
        self.gammas = np.array(s.sweep_gammas)
        self.grid_step = float(np.diff(self.gammas).max())
        self.cfg = pt.SubplexConfig(
            simplex=pt.SimplexConfig(max_evals=s.sweep_evals),
            restarts=s.sweep_restarts,
            rng_seed=0,
        )

    def op(self, i):
        # fixed-rate and drift sweeps alternate; gamma_true rotates over cycles
        cycle, slot = divmod(i, 2)
        tomography = self.mods.tomography

        def common_quality(result):
            surface = result.error_surface
            return {
                "gamma_opt": result.gamma_opt.tolist(),
                "epsilon": surface.tolist(),
                "cells_failed": int(np.isinf(surface).sum()),
            }

        def all_failed_window(result):
            dead = np.isinf(result.error_surface).all(axis=1)
            return f"every cell failed in window(s) {result.windows[dead].tolist()}" if dead.any() else None

        if slot == 0:
            record, gamma_true = self.fixed[cycle % len(self.fixed)]

            def call():
                return tomography.sweep_gamma(
                    record, self.ladder, [record.span], self.gammas, self.cfg)

            def check(result):
                quality = {"gamma_true": gamma_true, **common_quality(result)}
                problem = all_failed_window(result)
                if problem:
                    return False, problem, quality
                error = abs(float(result.gamma_opt[0]) - gamma_true)
                quality["gamma_err_hz"] = error
                if error > self.grid_step + 1e-9:
                    return False, f"gamma_opt off by {error:.1f} Hz > one grid step", quality
                return True, None, quality

            return "sweep_fixed", call, check

        windows = list(self.sizes.drift_windows)

        def call():
            return tomography.sweep_gamma(self.drift, self.ladder, windows, self.gammas, self.cfg)

        def check(result):
            quality = common_quality(result)
            problem = all_failed_window(result)
            if problem:
                return False, problem, quality
            if np.any(np.diff(result.gamma_opt) < 0.0):
                return False, f"drift gamma_opt decreases: {result.gamma_opt.tolist()}", quality
            return True, None, quality

        return "sweep_drift", call, check


class SynthesizeIO(_Workload):
    """Record generation and persistence: plain and drift synthesis, CSV I/O, CLI."""

    kinds = ("synth_plain", "record_io", "synth_drift", "cli_roundtrip")

    def setup(self):
        s = self.sizes
        self.rho = self.pi_half_state()
        self.rng_seeds = np.random.default_rng(self.seed).integers(2**31, size=4096)
        self.last_plain = self.synthesize(
            self.rho, gamma=375.0, n_samples=s.synth_points, rng_seed=int(self.rng_seeds[0]))
        self.model = self.pt.EvolutionModel(hamiltonian=self.ladder, gamma=375.0)
        os.makedirs(self.workdir, exist_ok=True)
        files = {
            "config.json": {
                "hamiltonian": {"type": "ladder5", "rabi_hz": 60e3, "delta1": 3e3, "delta2": 11e3},
                "gamma_hz": 375.0,
                "sample_interval_s": SAMPLE_INTERVAL,
                "n_samples": s.cli_points,
                "repeats": 5,
                "atoms_per_shot": 80000,
                "rng_seed": 0,
            },
            "model.json": {
                "hamiltonian": {"type": "ladder5", "rabi_hz": 60e3, "delta1": 3e3, "delta2": 11e3},
                "gamma_hz": 375.0,
            },
            "prep.json": {
                "initial_state": "mF=+2",
                "segments": [{"duration_s": 0.25 / 60e3, "rabi_hz": 60e3, "delta1": 0, "delta2": 0}],
            },
        }
        for name, obj in files.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def op(self, i):
        plain = self.sizes.synth_plain_per_cycle
        per_cycle = 2 * plain + 2
        cycle, slot = divmod(i, per_cycle)
        seed = int(self.rng_seeds[(i + 1) % self.rng_seeds.size])
        pt, mods, s = self.pt, self.mods, self.sizes

        if slot < 2 * plain and slot % 2 == 0:
            cfg = pt.ExperimentConfig(
                hamiltonian=self.ladder, gamma=375.0, n_samples=s.synth_points, rng_seed=seed)

            def call():
                return mods.experiment.synthesize_record(self.rho, cfg)

            def check(record):
                quality = {"digest": record_digest(record)}
                self.digests.append(quality["digest"])
                self.last_plain = record
                if slot == 0:
                    # once per cycle, untimed: the noiseless twin must fit exactly
                    exact = pt.synthesize_record(self.rho, replace(cfg, noiseless=True))
                    eps = pt.weighted_error(self.rho, exact, self.model)
                    quality["noiseless_epsilon"] = eps
                    if eps > NOISELESS_EPSILON_MAX:
                        return False, f"noiseless weighted_error {eps:.3e} > {NOISELESS_EPSILON_MAX}", quality
                return True, None, quality

            return "synth_plain", call, check

        if slot < 2 * plain:
            record = self.last_plain
            path = self._path("io.csv")

            def call():
                mods.records.save_record(record, path)
                return mods.records.load_record(path)

            def check(loaded):
                quality = {"bytes": os.path.getsize(path)
                           + os.path.getsize(mods.records.sidecar_path(path))}
                for field in ("times", "means", "sigmas"):
                    if not np.array_equal(getattr(loaded, field), getattr(record, field)):
                        return False, f"round trip changed {field}", quality
                if loaded.repeats != record.repeats:
                    return False, "round trip changed repeats", quality
                return True, None, quality

            return "record_io", call, check

        if slot == 2 * plain:
            cfg = pt.ExperimentConfig(
                hamiltonian=self.ladder, gamma=0.0, n_samples=s.synth_points,
                repeats=s.drift_repeats, detuning_noise=s.drift_noise, rng_seed=seed)

            def call():
                return mods.experiment.synthesize_record(self.rho, cfg)

            def check(record):
                quality = {"digest": record_digest(record)}
                self.digests.append(quality["digest"])
                if record.means.shape != (5, s.synth_points):
                    return False, f"drift record shape {record.means.shape}", quality
                return True, None, quality

            return "synth_drift", call, check

        rec, out = self._path("cli.csv"), self._path("cli-result.json")
        argvs = [
            ["simulate", "--config", self._path("config.json"), "--state", self._path("prep.json"),
             "--out", rec, "--seed", str(seed)],
            ["reconstruct", "--record", rec, "--model", self._path("model.json"),
             "--reference", self._path("prep.json"), "--out", out,
             "--restarts", str(s.cli_restarts), "--max-evals", str(s.cli_evals), "--seed", "0"],
            ["fidelity", "--a", out, "--b", self._path("prep.json")],
        ]

        def call():
            codes = []
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                for argv in argvs:
                    codes.append(mods.cli.main(argv))
                    if codes[-1] != 0:
                        break
            return codes, captured.getvalue()

        def check(output):
            codes, text = output
            quality = {"exit_codes": codes}
            if codes != [0, 0, 0]:
                return False, f"cli exit codes {codes}: {text.strip()[-200:]}", quality
            with open(rec, "rb") as fh:
                quality["digest"] = hashlib.sha256(fh.read()).hexdigest()
            self.digests.append(quality["digest"])
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            opt = result["optimizer"]
            quality.update(
                epsilon=result["epsilon"], evals=opt["evals"], converged_by=opt["converged_by"],
                per_restart_f=opt["per_restart_f"],
                winner=int(np.argmin(opt["per_restart_f"])),
                infidelity=1.0 - float(text.strip().splitlines()[-1]),
            )
            return True, None, quality

        return "cli_roundtrip", call, check


WORKLOADS = {"reconstruct": Reconstruct, "sweep": Sweep, "synthesize_io": SynthesizeIO}
