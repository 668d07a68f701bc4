"""Run the benchmark over many seeds and record how steady each metric is.

    python3 benchmarks/steadiness.py --out benchmarks/results/BENCH_baseline.json \
        --seeds 1-10 [--workloads bulk-certify,...] [--traced]

Each call appends one set of runs (every workload, every seed, untraced, at
BENCHMARK.json's run_seconds) to the record in --out. For each end-to-end
metric a set stores the values, the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, next to
the metric's bound. With two or more sets, the record also compares the
median of the last set with the first. --traced adds one traced run per
workload (first seed) with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_bound": spread <= bound, "spread_below_third": spread < bound / 3}


def compare(first: dict, last: dict, spec: dict) -> dict:
    """How much worse the last set's median is than the first's, per metric."""
    out = {}
    for workload, w_last in last["workloads"].items():
        w_first = first["workloads"].get(workload)
        if w_first is None:
            continue
        out[workload] = {}
        for m in spec["end_to_end"]:
            a = w_first["summary"][m["name"]]["median"]
            b = w_last["summary"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            out[workload][m["name"]] = {"first": a, "last": b, "worse_by": worse,
                                        "bound": m["bound"], "within_bound": worse <= m["bound"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {
        "benchmark": {k: spec[k] for k in ("command", "run_seconds")}, "sets": []}

    now = datetime.datetime.now(datetime.timezone.utc)
    current = {"started": now.isoformat(timespec="seconds"), "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in seeds]
        summary = {m["name"]: summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs],
                                        m["bound"])
                   for m in spec["end_to_end"]}
        current["workloads"][name] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "summary": summary,
            "runs": [{"seed": r["seed"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                      "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                      "passes": r["detail"]["passes"],
                      "op_tail_percentile": r["detail"]["op_tail_percentile"],
                      "op_tail_ops": r["detail"]["op_tail_ops"]} for r in runs],
            "generator": runs[0]["detail"]["generator"],
            "op_counts": runs[0]["detail"]["op_counts"],
        }
        record.setdefault("environment", {}).update(runs[0]["detail"]["environment"])
        for metric, s in summary.items():
            print(f"{name:14s} {metric:12s} median {s['median']:12.4f} spread {s['spread']:.3f}"
                  f" (bound {s['bound']})", flush=True)
    record["sets"].append(current)
    if len(record["sets"]) >= 2:
        record["comparison_last_vs_first"] = compare(record["sets"][0], record["sets"][-1], spec)
    if args.traced:
        record["traced"] = {}
        for name in names:
            r = run_once(name, seeds[0], spec["run_seconds"], 1)
            record["traced"][name] = {
                "seed": seeds[0], "correct": r["result"]["correct"],
                "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                **{k: r["detail"][k] for k in (
                    "pairs", "run_s_untraced", "run_s_traced", "untraced_pass_totals_s",
                    "traced_pass_totals_s", "untraced_noise_s", "pair_difference_s",
                    "wrapper_cost_s", "layer_self_sum_s", "spans")}}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
