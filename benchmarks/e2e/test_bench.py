"""Smoke test of the end-to-end benchmark: a quick run of every workload.

    python3 -m pytest benchmarks/e2e/test_bench.py -q

The quick run measures a few seconds per workload and must finish in
90 s.  It checks the benchmark's promises rather than any number:
every metric is reported with its unit, no operation failed, no ``max``
model under-estimated, and ``BENCHMARK.json`` describes the metrics the
code reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _run(*args: str, timeout: float) -> tuple:
    output = os.path.join(HERE, ".work", f"test-{os.getpid()}-{time.monotonic_ns()}.json")
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "1",
         "--output", output, *args],
        capture_output=True, text=True, timeout=timeout,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(output) as handle:
        results = json.load(handle)["results"]
    os.unlink(output)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    return summary, results, elapsed


def test_quick_run_reports_every_metric_without_failures():
    summary, results, elapsed = _run("--quick", timeout=180)
    assert elapsed < 90, f"quick run took {elapsed:.0f}s"
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    for workload in WORKLOADS:
        for metric, (unit, _, _) in metrics.END_TO_END.items():
            entry = summary["metrics"][f"{workload}.{metric}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0, (workload, metric)
    for result in results:
        assert result["attempted"] > 0
        assert result["failed"] / result["attempted"] == 0.0  # error rate
    build = next(r for r in results if r["workload"] == "build")
    assert build["checks"]["bound_violations"] == 0


def test_traced_run_reports_every_layer_and_the_unaccounted_stage():
    summary, results, _ = _run("--quick", "--workload", "point", "--trace", "1",
                               timeout=120)
    assert summary["failed"] == 0
    assert set(summary["metrics"]) == set(metrics.PER_LAYER)
    layers = results[0]["per_layer"]
    stages = [name for name in layers if name.startswith("serve.breakdown.")
              and name not in ("serve.breakdown.total_ms",)]
    assert "serve.breakdown.unaccounted_ms" in stages
    assert abs(sum(layers[name] for name in stages)
               - layers["serve.breakdown.total_ms"]) < 1e-6


def test_benchmark_json_describes_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == {name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()}
    assert spec["run_seconds"] == metrics.RUN_SECONDS
