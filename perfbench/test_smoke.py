"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload once, traced and untraced, and checks the output
contract: the last stdout line is the result object, it carries exactly
the metrics BENCHMARK.json declares, and the human-readable lines name
every end-to-end metric with its unit.  Lives outside the test suite's
``testpaths``; run it explicitly:

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reconstruct", "sweep", "synthesize_io")
NAMED = {
    "reconstruct": ("reconstruct_s", "infidelity_median"),
    "sweep": ("sweep_s", "gamma_err_hz"),
    "synthesize_io": ("synth_plain_ms", "synth_drift_s", "record_io_ms", "cli_roundtrip_s"),
}
COMMON = ("setup_s", "fail_rate", "peak_rss_mb")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return lines[:-1], result


def check_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = parse(run_bench("--workload", workload, "--seed", "3",
                                    "--seconds", "0.2", "--trace", "0", "--tiny"))
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(entry["value"] > 0.0 for entry in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")
               and len(line.split()) >= 3}
    for name in NAMED[workload] + COMMON:
        assert name in printed, f"{name} not printed"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers(workload):
    _, result = parse(run_bench("--workload", workload, "--seed", "3",
                                "--seconds", "0.4", "--trace", "1", "--tiny"))
    check_metrics(result["metrics"], SPEC["per_layer"])
    assert result["metrics"]["optimize.evals"]["value"] > 0.0


def test_all_prints_every_named_metric():
    lines, result = parse(run_bench("--workload", "all", "--seed", "3",
                                    "--seconds", "0.2", "--trace", "0", "--tiny"))
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    for names in NAMED.values():
        assert set(names) <= printed
    assert set(COMMON) <= printed
    assert result["attempted"] >= 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "reconstruct", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
