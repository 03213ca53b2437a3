"""Closed-loop measurement, metrics, fingerprint and output for run.py."""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import tracing
import workloads

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
SETUP_REPEATS = 3


# -- fingerprint ---------------------------------------------------------

def _source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        return None


def fingerprint(root, args, name):
    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "tiny" if args.tiny else "full",
    }


# -- measuring -----------------------------------------------------------

def fresh_import_seconds(root):
    """Time ``import poptomo`` in a new interpreter, from this checkout's src/."""
    code = "import time; t = time.perf_counter(); import poptomo; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def setup(cls, pt, mods, args, root, workdir):
    """Set the workload up SETUP_REPEATS times; each time also re-time the import.

    Returns the last workload and the seconds of each import + input set-up.
    """
    sizes = workloads.TINY if args.tiny else workloads.FULL
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_seconds(root)
        workload = cls(pt, mods, args.seed, sizes, workdir)
        t0 = time.perf_counter()
        workload.setup()
        times.append(import_s + time.perf_counter() - t0)
    return workload, times


def run_op(workload, i, tracer=None):
    """Run, time and check op ``i``; the tracer, if given, records its spans."""
    kind, call, check = workload.op(i)
    if tracer is not None:
        tracer.op = i
        tracer.active = True
        span = tracer.begin(f"op.{kind}")
    t0 = time.perf_counter()
    error = None
    try:
        output = call()
    except Exception:  # an op that raises is a failed op, never a crash
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
        tracer.active = False
    if error is None:
        try:
            ok, reason, quality = check(output)
        except Exception:
            ok, reason, quality = False, traceback.format_exc(limit=3), {}
    else:
        ok, reason, quality = False, error, {}
    return {"index": i, "kind": kind, "seconds": elapsed, "ok": bool(ok),
            "reason": reason, "quality": quality, "traced": tracer is not None}


def measure(workload, seconds, tracer=None):
    """Run ops until ``seconds`` have passed and every op kind has run once.

    With a tracer, every op runs twice in a row, untraced and then traced,
    so that the tracing overhead is measured on the same work at nearly
    the same moment.
    """
    ops = []
    seen = set()
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds or seen != set(workload.kinds):
        ops.append(run_op(workload, i))
        if tracer is not None:
            ops.append(run_op(workload, i, tracer))
        seen.add(ops[-1]["kind"])
        i += 1
    return ops


def _median(values):
    return statistics.median(values) if values else float("nan")


def timing_summary(values):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    out = {"median": _median(values), "n": len(values), "pct": None, "pct_value": None}
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= MIN_BEYOND:
            out["pct"], out["pct_value"] = p, float(np.percentile(values, p))
    return out


def by_kind(ops, kind):
    return [op["seconds"] for op in ops if op["kind"] == kind]


def op_s(workload, ops):
    """Seconds for one op of every kind: sum of the per-kind means.

    Means, not medians: a schedule-state reconstruction's work depends on
    the state (0.9-3.8 s here), and the mean of the few drawn in one run
    varies less from seed to seed than their median.
    """
    return sum(statistics.fmean(by_kind(ops, kind)) for kind in workload.kinds)


def named_metrics(name, ops):
    """The workload's named end-to-end metrics (value, unit, timing summary or None)."""
    def quality(key):
        return [op["quality"][key] for op in ops if key in op["quality"]]

    def timing(kind, scale, unit):
        summary = timing_summary([s * scale for s in by_kind(ops, kind)])
        return summary["median"], unit, summary

    if name == "reconstruct":
        every = timing_summary([op["seconds"] for op in ops])
        return {
            "reconstruct_s": (every["median"], "s/op", every),
            "reconstruct_pi_half_s": timing("reconstruct_pi_half", 1.0, "s/op"),
            "reconstruct_schedule_s": timing("reconstruct_schedule", 1.0, "s/op"),
            "infidelity_median": (_median(quality("infidelity")), "1-F", None),
        }
    if name == "sweep":
        per_class = {}
        for op in ops:
            if "gamma_err_hz" in op["quality"]:
                per_class.setdefault(op["quality"]["gamma_true"], []).append(op["quality"]["gamma_err_hz"])
        # class-balanced, so the mix of gamma_true values reached does not move it
        err = statistics.fmean(statistics.fmean(v) for v in per_class.values()) if per_class else float("nan")
        fixed, drift = timing("sweep_fixed", 1.0, "s/op"), timing("sweep_drift", 1.0, "s/op")
        return {
            # the stream alternates the two kinds, so weight their medians equally
            "sweep_s": ((fixed[0] + drift[0]) / 2.0, "s/op", None),
            "sweep_fixed_s": fixed,
            "sweep_drift_s": drift,
            "gamma_err_hz": (err, "Hz", None),
        }
    return {
        "synth_plain_ms": timing("synth_plain", 1e3, "ms/op"),
        "synth_drift_s": timing("synth_drift", 1.0, "s/op"),
        "record_io_ms": timing("record_io", 1e3, "ms/op"),
        "cli_roundtrip_s": timing("cli_roundtrip", 1.0, "s/op"),
        "cli_infidelity_median": (_median(quality("infidelity")), "1-F", None),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _format(name, value, unit, summary):
    line = f"  {name:<28} {value:>12.6g} {unit:<6}"
    if summary is not None:
        line += f" n={summary['n']}"
        if summary["pct"] is not None:
            line += f"  p{summary['pct']:g}={summary['pct_value']:.6g}"
        else:
            line += "  (no percentile has >=10 samples beyond it)"
    return line


def run_workload(name, pt, mods, args, root, outdir):
    cls = workloads.WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.dirname(outdir))
    try:
        workload, setup_times = setup(cls, pt, mods, args, root, workdir)
        setup_s = _median(setup_times)
        fp = fingerprint(root, args, name)
        fp["setup_record_sha256"] = list(workload.digests)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(mods)
            try:
                ops = measure(workload, args.seconds, tracer)
            finally:
                tracer.uninstall()
        else:
            ops = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    named = named_metrics(name, [op for op in ops if not op["traced"]])
    named["setup_s"] = (setup_s, "s", None)
    named["fail_rate"] = (failed / attempted, "ratio", None)
    named["peak_rss_mb"] = (peak_rss_mb(), "MB", None)

    print(f"poptomo benchmark: workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} sizes={fp['sizes']}")
    for metric, (value, unit, summary) in named.items():
        print(_format(metric, value, unit, summary))
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED op {op['index']} ({op['kind']}): {op['reason']}")

    result = {
        "fingerprint": fp,
        "setup_seconds": setup_times,
        "named_metrics": {k: {"value": v, "unit": u, "timing": s} for k, (v, u, s) in named.items()},
        "ops": ops,
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s(workload, ops), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        traced = [op["seconds"] for op in ops if op["traced"]]
        untraced = [op["seconds"] for op in ops if not op["traced"]]
        metrics = tracing.layer_metrics(tracer, traced, sum(traced) / sum(untraced) - 1.0)
        result["self_times"] = tracer.self_times()
        spans_path = os.path.join(outdir, f"spans-{name}-seed{args.seed}.json")
        tracer.write(spans_path)
        print("  per-layer (traced runs):")
        for metric, entry in metrics.items():
            print(_format(metric, entry["value"], entry["unit"], None))
        print("  self time by span (s): " + ", ".join(
            f"{k}={v['self_s']:.3f}" for k, v in result["self_times"].items()))
    result["metrics"] = metrics
    raw_path = os.path.join(outdir, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(raw_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)
    print(f"  raw results: {os.path.relpath(raw_path, root)}")
    return attempted, failed, metrics, named


def run(pt, mods, names, args, root):
    outdir = os.path.join(root, ".perfbench", "out")
    os.makedirs(outdir, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m, named = run_workload(name, pt, mods, args, root, outdir)
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        elif args.trace:
            metrics.update({f"{name}:{k}": v for k, v in m.items()})
        else:
            for k, (value, unit, _) in named.items():
                metrics[f"{name}:{k}" if k in ("setup_s", "fail_rate", "peak_rss_mb") else k] = {
                    "value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0
