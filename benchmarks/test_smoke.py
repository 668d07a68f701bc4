"""Smoke test of the benchmark: every workload at its tiny ladder, traced and not.

    python -m pytest -q benchmarks/test_smoke.py

Checks that every op agrees with its oracle, that the result line carries
exactly the metrics BENCHMARK.json names, that the spans nest, that traced
passes are not faster than untraced ones beyond the noise between untraced
passes, and that the layers' self times add up to no more than the untraced
run_s plus that noise and trace.overhead_s (spans times the measured cost of
one wrapper call).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# BENCHMARK.json lists the steady workloads; the other two run on demand
WORKLOADS = ["bulk-certify", "spectra-lifts", "sweep-small", "cli-session"]


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    # a traced run gets more time: its noise estimate needs several pass pairs
    seconds = "5" if trace else "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_complete(workload):
    detail, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failure_examples"]
    assert result["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert detail["fail_share"]["value"] == 0
    if workload == "cli-session":
        # every command also ran once as its own twoeig process
        assert detail["peak_rss_source"] == "children"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_nests_and_accounts_for_its_time(workload):
    detail, result = run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0, detail["failure_examples"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert detail["spans"] > 0 and detail["span_problems"] == []
    assert detail["pairs"] >= 5 and detail["wrapper_cost_s"] > 0
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    assert overhead > 0
    noise = detail["untraced_noise_s"]
    assert detail["pair_difference_s"] >= -noise - 1e-9
    allowed = detail["run_s_untraced"] + overhead + noise
    assert detail["layer_self_sum_s"] <= allowed + 1e-9
    assert (ROOT / detail["spans_file"]).is_file()


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
