"""poptomo benchmark: closed-loop workloads, end-to-end metrics, optional trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 30 --trace 0

``--workload`` is one of reconstruct, sweep, synthesize_io, or ``all``
(every workload in turn, in one process).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` installs the outside-in tracer, runs
every op twice in a row (untraced, then traced) and reports per-layer
metrics plus the tracing overhead.  ``--tiny`` shrinks every problem so
that the plumbing can be tested in seconds.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Raw per-op results
(with quality next to time and a run fingerprint) and the span dump are
written under ``.perfbench/out/`` in the checkout.
"""

import argparse
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("reconstruct", "sweep", "synthesize_io")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes for smoke tests")
    return parser.parse_args(argv)


def load_poptomo():
    """Import poptomo from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "poptomo", "__init__.py")):
        raise SystemExit(f"error: no poptomo sources under {SRC}")
    sys.path.insert(0, SRC)
    import poptomo
    from poptomo import cli, experiment, optimize, records, tomography

    if os.path.dirname(os.path.dirname(os.path.abspath(poptomo.__file__))) != SRC:
        raise SystemExit(f"error: poptomo imported from {poptomo.__file__}, not {SRC}")
    mods = SimpleNamespace(cli=cli, experiment=experiment, optimize=optimize,
                           records=records, tomography=tomography)
    return poptomo, mods


def main(argv=None):
    args = parse_args(argv)
    # Pin BLAS to one thread before numpy loads: OpenBLAS reads it from the
    # process environment once, at load time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pt, mods = load_poptomo()
    import harness  # numpy-dependent, so only after poptomo has loaded

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return harness.run(pt, mods, names, args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
