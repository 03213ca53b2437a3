"""Outside-in tracing: timing wrappers installed at poptomo's module boundaries.

Nothing under ``src/`` knows about this file.  ``Tracer.install`` replaces a
public name in the namespace of the module that *calls* it (for example
``tomography.multi_start`` or ``experiment.PopulationPredictor``) with a
wrapper that records a span, and ``Tracer.uninstall`` puts the originals
back.  Spans stay in memory as plain lists and are written out once, at
the end of the run.

Two callees run once per objective evaluation (the objective handed to
``multi_start`` and ``rho_matrix_from_values``).  A span per call would
cost more than the call, so they only accumulate a count and a time.
"""

import json
import math
import os
import time

import numpy as np

NAME, START, END, PARENT, OP, INFO = range(6)

# Share of the final best cost within which the best-so-far counts as
# "arrived" for optimize.useful_eval_ratio.
USEFUL_RTOL = 0.01


class _CountingObjective:
    """Objective wrapper: eval count, time inside, best-so-far trajectory."""

    __slots__ = ("func", "evals", "seconds", "best", "improvements")

    def __init__(self, func):
        self.func = func
        self.evals = 0
        self.seconds = 0.0
        self.best = math.inf
        self.improvements = []

    def __call__(self, x):
        t0 = time.perf_counter()
        value = self.func(x)
        self.seconds += time.perf_counter() - t0
        self.evals += 1
        if value < self.best:
            self.best = value
            self.improvements.append((self.evals, value))
        return value

    def useful_evals(self, final):
        """Evals until the best-so-far came within USEFUL_RTOL of ``final``."""
        limit = final + USEFUL_RTOL * abs(final)
        for index, value in self.improvements:
            if value <= limit:
                return index
        return self.evals


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self.aggregates = {}
        self._saved = []

    # -- spans ---------------------------------------------------------

    def begin(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self.stack.append(index)
        return index

    def end(self, index, info=None):
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[INFO] = info
        self.stack.pop()

    def _traced(self, name, original, describe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer.end(index, {"error": type(exc).__name__})
                raise
            tracer.end(index)
            if describe is not None:
                tracer.spans[index][INFO] = describe(args, kwargs, result)
            return result

        return wrapper

    def _aggregated(self, name, original):
        tracer = self
        slot = self.aggregates.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            slot[1] += time.perf_counter() - t0
            slot[0] += 1
            return result

        return wrapper

    def _multi_start(self, original):
        tracer = self

        def wrapper(f, sampler, cfg=None):
            if not tracer.active:
                return original(f, sampler, cfg)
            counted = _CountingObjective(f)
            index = tracer.begin("optimize.multi_start")
            try:
                result = original(counted, sampler, cfg)
            except Exception as exc:
                tracer.end(index, {"error": type(exc).__name__, "evals": counted.evals,
                                   "objective_s": counted.seconds})
                raise
            tracer.end(index, {
                "evals": counted.evals,
                "objective_s": counted.seconds,
                "useful_evals": counted.useful_evals(result.best_f),
                "winner": int(np.argmin(result.per_restart_f)),
                "converged_by": result.converged_by,
            })
            return result

        return wrapper

    def _cli_main(self, original):
        tracer = self

        def wrapper(argv=None):
            if not tracer.active:
                return original(argv)
            index = tracer.begin(f"cli.main.{argv[0] if argv else 'none'}")
            code = original(argv)
            tracer.end(index, {"exit": code})
            return code

        return wrapper

    def _replace(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, mods):
        """Wrap poptomo's public names where their callers look them up."""
        tomography, optimize = mods.tomography, mods.optimize
        experiment, records, cli = mods.experiment, mods.records, mods.cli

        def sweep_info(args, kwargs, result):
            surface = result.error_surface
            return {"cells": int(surface.size), "failed": int(np.isinf(surface).sum())}

        def synth_info(args, kwargs, result):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            return {"drift": bool(cfg.detuning_noise > 0.0)}

        def save_info(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            return {"bytes": os.path.getsize(path)
                    + os.path.getsize(records.sidecar_path(path))}

        def subplex_info(args, kwargs, result):
            return {"converged_by": result.converged_by}

        wrap = self._traced
        for module, attr, name, describe in (
            (tomography, "reconstruct", "tomography.reconstruct", None),
            (tomography, "sweep_gamma", "tomography.sweep_gamma", sweep_info),
            (tomography, "weighted_error", "tomography.weighted_error", None),
            (tomography, "PopulationPredictor", "tomography.PopulationPredictor", None),
            (tomography, "make_propagator", "dynamics.make_propagator", None),
            (tomography, "evolve", "dynamics.evolve", None),
            (tomography, "prepare_pulse_state", "tomography.prepare_pulse_state", None),
            (optimize, "subplex", "optimize.subplex", subplex_info),
            (experiment, "synthesize_record", "experiment.synthesize_record", synth_info),
            (experiment, "PopulationPredictor", "tomography.PopulationPredictor", None),
            (experiment, "prepare_pulse_state", "tomography.prepare_pulse_state", None),
            (records, "save_record", "records.save_record", save_info),
            (records, "load_record", "records.load_record", None),
            (cli, "synthesize_record", "experiment.synthesize_record", synth_info),
            (cli, "save_record", "records.save_record", save_info),
            (cli, "load_record", "records.load_record", None),
            (cli, "reconstruct", "tomography.reconstruct", None),
            (cli, "save_reconstruction", "serialize.save_reconstruction", None),
        ):
            self._replace(module, attr, wrap(name, getattr(module, attr), describe))
        self._replace(tomography, "multi_start", self._multi_start(tomography.multi_start))
        self._replace(
            tomography,
            "rho_matrix_from_values",
            self._aggregated("parameterize.rho_matrix_from_values",
                             tomography.rho_matrix_from_values),
        )
        self._replace(cli, "main", self._cli_main(cli.main))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Total and self seconds per span name (self = minus children)."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0 and span[END] is not None:
                child_total[span[PARENT]] += span[END] - span[START]
        table = {}
        for index, span in enumerate(self.spans):
            if span[END] is None:
                continue
            duration = span[END] - span[START]
            row = table.setdefault(span[NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_total[index]
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(table.items())}

    def write(self, path):
        """Dump every span as [name, start_s, end_s, parent, op, info]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - t0, (s[END] or s[START]) - t0, s[PARENT], s[OP], s[INFO]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "info"],
                       "spans": rows}, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, op_seconds, overhead):
    """Per-layer metrics of one traced phase.

    ``op_seconds`` are the wall times of the traced ops; ``overhead`` is
    their total over that of the same ops run untraced, minus one.
    """
    indexed = [(i, s) for i, s in enumerate(tracer.spans) if s[END] is not None]
    spans = [s for _, s in indexed]
    n_ops = max(len(op_seconds), 1)

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def dur(span):
        return span[END] - span[START]

    def total(name):
        return sum(dur(s) for s in named(name))

    starts = [s[INFO] for s in named("optimize.multi_start") if s[INFO] and "useful_evals" in s[INFO]]
    evals = sum(i["evals"] for i in starts)
    objective_s = sum(i["objective_s"] for i in starts)
    multi_start_s = total("optimize.multi_start")

    subplex = named("optimize.subplex")
    exhausted = sum(1 for s in subplex if s[INFO] and s[INFO].get("converged_by") == "max_evals")

    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)

    def child_spans(index, name):
        return [c for c in children.get(index, ()) if c[NAME] == name]

    # reconstruct overhead: a reconstruct span minus its multi_start child
    overheads = [dur(s) - sum(dur(c) for c in child_spans(i, "optimize.multi_start"))
                 for i, s in indexed if s[NAME] == "tomography.reconstruct"]

    sweeps = [s[INFO] for s in named("tomography.sweep_gamma") if s[INFO]]
    predictor = named("tomography.PopulationPredictor")

    # [records, predictor builds inside them], keyed by "is a drift record"
    builds_by_kind = {True: [0, 0], False: [0, 0]}
    for i, s in indexed:
        if s[NAME] == "experiment.synthesize_record" and s[INFO] and "drift" in s[INFO]:
            builds_by_kind[s[INFO]["drift"]][0] += 1
            builds_by_kind[s[INFO]["drift"]][1] += len(child_spans(i, "tomography.PopulationPredictor"))

    saves = named("records.save_record")
    rho_calls, rho_s = tracer.aggregates.get("parameterize.rho_matrix_from_values", [0, 0.0])

    def mean_s(name):
        found = named(name)
        return _ratio(sum(dur(s) for s in found), len(found))

    op_total = sum(op_seconds)
    metrics = {
        "optimize.evals": (evals / n_ops, "count"),
        "optimize.self_us_per_eval": (_ratio(multi_start_s - objective_s, evals) * 1e6, "us"),
        "optimize.useful_eval_ratio": (_ratio(sum(i["useful_evals"] for i in starts), evals), "ratio"),
        "optimize.budget_exhausted_ratio": (_ratio(exhausted, len(subplex)), "ratio"),
        "optimize.inversion_win_ratio": (_ratio(sum(1 for i in starts if i["winner"] == 0), len(starts)), "ratio"),
        "tomography.objective_us_per_eval": (_ratio(objective_s, evals) * 1e6, "us"),
        "tomography.predictor_build.calls": (len(predictor) / n_ops, "count"),
        "tomography.predictor_build.s": (sum(dur(s) for s in predictor) / n_ops, "s"),
        "tomography.predictor_build.ms_per_call": (_ratio(sum(dur(s) for s in predictor), len(predictor)) * 1e3, "ms"),
        "tomography.reconstruct_overhead_s": (_ratio(sum(overheads), len(overheads)), "s"),
        "tomography.sweep_cells": (sum(i["cells"] for i in sweeps) / n_ops, "count"),
        "tomography.sweep_cells_failed": (sum(i["failed"] for i in sweeps), "count"),
        "dynamics.make_propagator.calls": (len(named("dynamics.make_propagator")) / n_ops, "count"),
        "dynamics.make_propagator.s": (total("dynamics.make_propagator") / n_ops, "s"),
        "dynamics.evolve.calls": (len(named("dynamics.evolve")) / n_ops, "count"),
        "dynamics.evolve.s": (total("dynamics.evolve") / n_ops, "s"),
        "parameterize.rho_matrix_from_values.us": (_ratio(rho_s, rho_calls) * 1e6, "us"),
        "experiment.synthesize_record.s": (mean_s("experiment.synthesize_record"), "s"),
        "experiment.predictor_builds_per_record.plain": (_ratio(builds_by_kind[False][1], builds_by_kind[False][0]), "count"),
        "experiment.predictor_builds_per_record.drift": (_ratio(builds_by_kind[True][1], builds_by_kind[True][0]), "count"),
        "records.save_record.s": (mean_s("records.save_record"), "s"),
        "records.load_record.s": (mean_s("records.load_record"), "s"),
        "records.bytes_written": (_ratio(sum(s[INFO]["bytes"] for s in saves if s[INFO] and "bytes" in s[INFO]), len(saves)), "bytes"),
        "serialize.save_reconstruction.s": (mean_s("serialize.save_reconstruction"), "s"),
        "cli.main.simulate.s": (mean_s("cli.main.simulate"), "s"),
        "cli.main.reconstruct.s": (mean_s("cli.main.reconstruct"), "s"),
        "cli.main.fidelity.s": (mean_s("cli.main.fidelity"), "s"),
        "cli.exit_nonzero": (sum(1 for s in spans if s[NAME].startswith("cli.main.")
                                 and s[INFO] and s[INFO].get("exit") != 0), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.accounted_ratio": (_ratio(multi_start_s, op_total), "ratio"),
        "trace.spans_per_op": (len(spans) / n_ops, "count"),
    }
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}
