"""twoeig benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload bulk-certify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that has ``src/twoeig``; the package is
imported from source. One process and one client drive the ops in a closed
loop: the next op starts only when the previous one returns. The op list of
the workload runs twice, and again while another pass still fits in
``--seconds``.

``--trace 0`` prints the end-to-end metrics: setup_s (median over fresh
interpreters that import twoeig and run one warm-up op), run_s, op_p50_ms,
op_tail_ms and peak_rss_mb. The op latencies behind run_s (their sum),
op_p50_ms and op_tail_ms are each op's fastest time over the passes.
cli-session times its commands as in-process twoeig.cli.main calls; before
those passes, inside the same ``--seconds``, each command runs once as its
own ``python -m twoeig.cli`` process, checked like the others, and the
largest peak RSS of these processes is peak_rss_mb.
``--trace 1`` alternates untraced and traced passes (one pair, more while
another pair fits in ``--seconds``) and reports each per-layer time as its
median over the traced passes. ``trace.overhead_s`` is the time the wrappers
add to a traced pass: its spans times the cost of one wrapper call, measured
as the median traced-minus-untraced time of a wrapped no-op. Whole passes
differ by far more than that on a shared host, so the pairs' traced-minus-
untraced difference and the untraced passes' own range go to the detail
record only. One more traced pass under tracemalloc gives allocation peaks
over the largest chain of each group (see workloads.Chain). Every op result
is checked against an oracle outside the timed region; an op that raises or
disagrees counts as failed. The line before the result is a JSON detail
record: generator output, fail_share, the tail percentile and its op count,
and the environment. ``--scale smoke`` runs tiny ladders with two set-up
probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_PROBES = 9
SMOKE_SETUP_PROBES = 2
MAX_THREADS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
# every op runs at least twice, so that one execution can be warm and clear
# of host pauses; a bulk-certify pass takes 11 to 13 s on a 2-vCPU host, so
# BENCHMARK.json's run_seconds (60) holds four of them
MIN_PASSES = 2


def _configure_env() -> int:
    """Cap BLAS threads at min(2, nproc) and put src/ on the import path."""
    nproc = os.cpu_count() or 1
    threads = min(MAX_THREADS, nproc)
    for var in BLAS_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    sys.path.insert(0, src)
    return threads


def measure_setup(workload: str, probes: int) -> list[float]:
    """Wall time from starting a fresh interpreter until its warm-up op returns."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        p = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        line = p.stdout.readline()
        elapsed = time.perf_counter() - start
        p.stdout.close()
        if p.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed with exit {p.returncode}")
        times.append(elapsed)
    return times


class PassResult:
    def __init__(self, n_ops: int):
        # op_latencies[i] holds one latency of op i per pass
        self.op_latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.pass_totals: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.examples: list[str] = []

    def fail(self, kind: str, why: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {why}")


def run_passes(chains, seconds: float | None, tracer=None) -> PassResult:
    """Repeat the op list MIN_PASSES times and then while another pass fits in
    `seconds`; with `seconds` None, run it once."""
    res = PassResult(sum(len(chain.ops) for chain in chains))
    started = time.perf_counter()
    while True:
        total = 0.0
        index = -1
        for chain in chains:
            state: dict = {}
            for op in chain.ops:
                index += 1
                res.attempted += 1
                try:
                    if op.prepare is not None:
                        op.prepare(state)
                except Exception as exc:
                    res.fail(op.kind, f"input not ready: {exc!r}")
                    continue
                if tracer is not None:
                    tracer.op_id = res.attempted - 1
                t0 = time.perf_counter()
                try:
                    value = op.run(state)
                except Exception as exc:
                    dt = time.perf_counter() - t0
                    res.op_latencies[index].append(dt)
                    total += dt
                    res.fail(op.kind, f"raised {exc!r}")
                    continue
                dt = time.perf_counter() - t0
                res.op_latencies[index].append(dt)
                total += dt
                if op.store is not None:
                    state[op.store] = value
                try:
                    ok = bool(op.check(value, state))
                except Exception as exc:
                    ok = False
                    value = exc
                if not ok:
                    res.fail(op.kind, f"oracle disagrees: {str(value)[:120]}")
        res.pass_totals.append(total)
        elapsed = time.perf_counter() - started
        if seconds is None:
            return res
        passes = len(res.pass_totals)
        if passes >= MIN_PASSES and elapsed * (1 + 1 / passes) > seconds:
            return res


def run_traced(chains, seconds: float):
    """Alternate an untraced and a traced pass, once and again while another
    pair fits in `seconds`.

    Returns the untraced and traced PassResults, the per-layer metrics of each
    traced pass, the span nesting problems of all of them, and the tracer of
    the first traced pass, which keeps its spans; later tracers drop theirs
    once they are measured and checked.
    """
    import tracing

    plain, traced, per_pass, problems = [], [], [], []
    first = None
    started = time.perf_counter()
    while True:
        plain.append(run_passes(chains, None))
        with tracing.Tracer() as tracer:
            traced.append(run_passes(chains, None, tracer))
        per_pass.append(tracer.metrics())
        problems += tracer.check_nesting()
        if first is None:
            first = tracer
        else:
            tracer.spans.clear()
        pairs = len(plain)
        if (time.perf_counter() - started) * (1 + 1 / pairs) > seconds:
            return plain, traced, per_pass, problems, first


def per_op_latencies(res: PassResult) -> list[float]:
    """Each op's fastest latency over the passes of a run.

    A shared host adds pauses of tens of percent to single executions. They
    only ever add time, so the fastest execution is the steadiest estimate of
    what the op costs.
    """
    return [min(v) for v in res.op_latencies if v]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def environment(threads: int, workload) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass

    def sysconf(code):
        # glibc's _SC_LEVEL2_CACHE_SIZE (191) and _SC_LEVEL3_CACHE_SIZE (194)
        try:
            value = os.sysconf(code)
        except (OSError, ValueError):
            return None
        return value if value > 0 else None

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        "machine": platform.machine(),
    }
    top = workload.record.get("top_star_order")
    if top:
        # int8 adjacency, its int64 copy, two float64 operands, the float64
        # product and its int64 rounding: the arrays certify_two_eigenvalues
        # holds at the top rung of bulk-certify
        env["top_rung_certificate_bytes"] = 41 * top * top
        if env["l3_bytes"]:
            env["top_rung_over_l3"] = env["top_rung_certificate_bytes"] / env["l3_bytes"]
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twoeig" / "__init__.py").is_file():
        print(f"error: no twoeig sources at {ROOT / 'src' / 'twoeig'}", file=sys.stderr)
        return 2
    threads = _configure_env()
    import probe
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    probes = SMOKE_SETUP_PROBES if args.scale == "smoke" else SETUP_PROBES
    setup = [] if traced else measure_setup(args.workload, probes)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed, args.scale, ROOT, workdir, dict(os.environ))
    try:
        probe.warmup(args.workload)
        # the op list holds many objects (59,048 graphs in sweep-small); keep
        # the collector from rescanning them inside the program's calls
        gc.collect()
        gc.freeze()
        detail = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                  "trace": args.trace, "op_counts": wl.op_counts(), "generator": wl.record,
                  "environment": environment(threads, wl)}
        if traced:
            plain, traced_passes, per_pass, problems, tracer = run_traced(wl.chains, args.seconds)
            mem_chains = wl.largest_per_group()
            with tracing.Tracer(memory=True) as mem_tracer:
                mem_res = run_passes(mem_chains, None, mem_tracer)
            plain_totals = [r.pass_totals[0] for r in plain]
            traced_totals = [r.pass_totals[0] for r in traced_passes]
            metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
            metrics.update(mem_tracer.peak_alloc_mb())
            wrapper_s = tracing.wrapper_cost_s()
            metrics["trace.overhead_s"] = len(tracer.spans) * wrapper_s
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            tracer.write(spans_path)
            detail.update({
                "pairs": len(plain),
                "run_s_untraced": statistics.median(plain_totals),
                "run_s_traced": statistics.median(traced_totals),
                "untraced_pass_totals_s": plain_totals, "traced_pass_totals_s": traced_totals,
                # how far apart untraced passes of the same op list lie: the
                # noise any traced-minus-untraced difference has to be read against
                "untraced_noise_s": max(plain_totals) - min(plain_totals),
                "pair_difference_s": statistics.median(
                    t - p for p, t in zip(plain_totals, traced_totals)),
                "wrapper_cost_s": wrapper_s,
                "run_s_memory_pass": sum(mem_res.pass_totals),
                "memory_pass_chains": len(mem_chains),
                "layer_self_sum_s": statistics.median(
                    sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) for m in per_pass),
                "spans": len(tracer.spans), "span_problems": problems[:5],
                "spans_file": str(spans_path.relative_to(ROOT)),
            })
            results = (*plain, *traced_passes, mem_res)
            out_metrics = {name: {"value": metrics[name], "unit": tracing.metric_unit(name)}
                           for name in tracing.per_layer_metric_names()}
        else:
            # each cli-session command once as its own process: exit code,
            # output and peak RSS of a real twoeig process, outside the timing
            started = time.perf_counter()
            once = run_passes(wl.process_chains, None) if wl.process_chains else None
            res = run_passes(wl.chains, args.seconds - (time.perf_counter() - started))
            if wl.child_rss_kb:
                rss_kb = max(wl.child_rss_kb)
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            per_op = per_op_latencies(res)
            tail_s, tail_pct, n_ops = tail(per_op)
            detail.update({"passes": len(res.pass_totals), "pass_totals_s": res.pass_totals,
                           "setup_probes_s": setup, "op_tail_percentile": tail_pct,
                           "op_tail_ops": n_ops,
                           "peak_rss_source": "children" if wl.child_rss_kb else "self"})
            results = (res,) if once is None else (once, res)
            out_metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "run_s": {"value": sum(per_op), "unit": "s"},
                "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
                "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": rss_kb * 1024 / 1e6, "unit": "MB"},
            }
    finally:
        if wl.cleanup is not None:
            wl.cleanup()
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    detail["fail_share"] = {"value": failed / attempted, "unit": "share",
                            "failed": failed, "attempted": attempted}
    detail["failures"] = dict(sum((Counter(r.failures) for r in results), Counter()))
    detail["failure_examples"] = [e for r in results for e in r.examples][:5]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
