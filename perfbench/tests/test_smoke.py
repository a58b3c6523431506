"""Smoke tests for the scan benchmark.

Run from the repository root:  python3 -m pytest perfbench/tests -q

Each workload runs briefly in both modes; every metric name it prints must
be one that BENCHMARK.json declares for that mode. A copy of the benchmark
without the program next to it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import Span, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_only_declared_metrics(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name

    every_name = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = {line.split()[1] for line in lines
               if line.startswith(("metric ", "tail "))}
    assert printed <= every_name, printed - every_name


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, "engine.run_audit", 0.0, 10.0),
        Span(2, "netprobe.check_zones", 1.0, 4.0, parent=1),
        Span(3, "jwtkit.run_jwt_battery", 2.0, 6.0, parent=1),
        Span(4, "wire.request", 8.0, 12.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 26)]
    value, percentile = run.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * 15 / 25)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0)
