"""Benchmark of the entrobound CLI experiments, end to end and per layer.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in its own process (worker.py), a closed loop with one
caller that issues ``entrobound.cli.main(argv)`` calls in-process, each
after the previous one returns.  Workers get BLAS threads pinned to 1
through their environment.  Every call's output is checked, and a few small
calls at a fixed seed are compared with reference.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(interpreter start to ready: import, input generation, one warm-up call) of
fresh processes, then S seconds of summed call time (on classify, a fixed
number of passes over its files that take about S seconds, so its count of
failed calls does not depend on the host's speed).  Each set-up and each
call is paired with the same on the frozen baseline/ copy of the program,
to take the host's contention out of the timings (see end_to_end).  --trace 1
runs a fixed amount of work twice, untraced and traced, and reports the
per-layer metrics, including the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  A results file with the
run manifest goes to perfbench/results/.  ``correct`` is false when an
operation failed, except for failures on non-finite input files, a known
defect that is still counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
# Pairs of set-up-only processes (program, baseline) started before, and
# again after, the measured one.
SETUP_PAIRS = 4
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Metrics of the baseline program (a frozen copy of entrobound, see
# baseline/) on each workload: medians of ten runs on a 2-core x86-64 host
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).  Each call runs on the program
# and on the baseline back to back, so both see the same contention from
# other tenants of the host; a timing metric is reported as this nominal
# value times the program's value over the baseline's.
BASELINE_NOMINAL = {
    "qc-scatter": {"items_per_s": 580.0, "call_p50_ms": 112.0, "call_p99_ms": 179.0,
                   "setup_s": 0.28},
    "fixed-angle": {"items_per_s": 6940.0, "call_p50_ms": 443.0, "call_p99_ms": 509.0,
                    "setup_s": 0.28},
    "dense-family": {"items_per_s": 358.0, "call_p50_ms": 91.0, "call_p99_ms": 800.0,
                     "setup_s": 0.28},
    "classify": {"items_per_s": 290.0, "call_p50_ms": 3.2, "call_p99_ms": 6.0,
                 "setup_s": 0.45},
}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result (None in setup mode)."""
    env = dict(os.environ, **THREADS)
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if not ready.strip() or json.loads(ready).get("event") != "ready":
            raise WorkerError(f"{mode} worker for {workload} did not get ready")
        result = None if mode.startswith("setup") else json.loads(proc.stdout.readline() or "null")
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or (not mode.startswith("setup") and result is None):
        raise WorkerError(f"{mode} worker for {workload} exited with code {code}")
    return setup_s, result


def percentile_ms(latencies_s: list[float], pct: int) -> float:
    if len(latencies_s) == 1:
        return 1e3 * latencies_s[0]
    return 1e3 * statistics.quantiles(latencies_s, n=100, method="inclusive")[pct - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def setup_samples(workload: str, seed: int, seconds: float) -> dict[str, list[float]]:
    """Set-up times of SETUP_PAIRS program and baseline processes, alternating;
    entry i of each list comes from the i-th pair, started back to back."""
    times: dict[str, list[float]] = {"setup": [], "setup-baseline": []}
    for i in range(SETUP_PAIRS):
        for mode in ("setup", "setup-baseline") if i % 2 == 0 else ("setup-baseline", "setup"):
            times[mode].append(run_worker(workload, seed, seconds, mode)[0])
    return times


def end_to_end(workload: str, setups: dict[str, list[float]], result: dict) -> dict[str, dict]:
    """Timing metrics scaled to nominal host speed by the paired baseline calls.

    Each is reported as the baseline's nominal value times the ratio of the
    program's statistic to the baseline's, over the same calls of this run;
    b_j is the baseline's time on call j, run back to back with the
    program's c_j.  Each shape (a call without its seed) has a time ratio
    m_s, the median of its c_j / b_j, which one slow call cannot move.  The
    throughput ratio is sum(b_j) / sum(m_s b_j): the baseline's time over
    the program's, shape by shape.  For the median, each shape has a
    typical time: on the baseline the median of its b_j, on the program m_s
    times that; the median is then taken over calls of their shape's typical
    time.  Taking it over single calls would pick the extremes of two shapes
    when the median falls between them.  The 99th percentile ratio is that
    of each cycle's 99th percentiles, median over cycles: most runs hold too
    few calls for a steady tail of the whole run.  The set-up ratio is the
    median, over pairs of processes started back to back, of the program's
    set-up time over the baseline's.
    """
    calls = result["calls"]
    c, b, shapes = calls["seconds"], calls["baseline_s"], calls["shape"]
    pairs: dict[str, list[tuple[float, float]]] = {}
    cycles: dict[int, tuple[list[float], list[float]]] = {}
    for cycle, shape, ci, bi in zip(calls["cycle"], shapes, c, b):
        pairs.setdefault(shape, []).append((ci, bi))
        cycles.setdefault(cycle, ([], []))
        cycles[cycle][0].append(ci)
        cycles[cycle][1].append(bi)
    m = {s: statistics.median(ci / bi for ci, bi in p) for s, p in pairs.items()}
    base_typical = {s: statistics.median(bi for _, bi in p) for s, p in pairs.items()}
    prog_typical = {s: base_typical[s] * m[s] for s in pairs}
    ratio = {
        "items_per_s": sum(b) / sum(m[s] * bi for s, bi in zip(shapes, b)),
        "call_p50_ms": statistics.median(prog_typical[s] for s in shapes)
        / statistics.median(base_typical[s] for s in shapes),
        "call_p99_ms": statistics.median(
            percentile_ms(cc, 99) / percentile_ms(cb, 99) for cc, cb in cycles.values()),
        "setup_s": statistics.median(
            p / q for p, q in zip(setups["setup"], setups["setup-baseline"])),
    }
    nominal = BASELINE_NOMINAL[workload]
    common = {"peak_rss_mb": result["peak_rss_mb"]}
    return {
        "scaled": {**{name: nominal[name] * r for name, r in ratio.items()}, **common},
        "ratio_to_baseline": ratio,
        "raw": {"items_per_s": result["items"] / sum(c), "call_p50_ms": 1e3 * statistics.median(c),
                "call_p99_ms": percentile_ms(c, 99),
                "setup_s": statistics.median(setups["setup"]), **common},
        "baseline": {"items_per_s": result["items"] / sum(b),
                     "call_p50_ms": 1e3 * statistics.median(b), "call_p99_ms": percentile_ms(b, 99),
                     "setup_s": statistics.median(setups["setup-baseline"])},
    }


def per_layer(traced: dict) -> dict[str, float]:
    return {**traced["layers"],
            "output.sha256_match": traced["output"]["sha256_match"],
            "output.max_abs_dev": traced["output"]["max_abs_dev"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entrobound benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "entrobound", "__init__.py")):
        print(f"error: no entrobound sources under {ROOT}/src", file=sys.stderr)
        return 2

    try:
        if args.trace == 0:
            # Set-up samples before and after the measured loop, so that a
            # change in contention on the host during the run reaches both.
            setups = setup_samples(args.workload, args.seed, args.seconds)
            _, result = run_worker(args.workload, args.seed, args.seconds, "timed")
            for mode, times in setup_samples(args.workload, args.seed, args.seconds).items():
                setups[mode] += times
            measured = end_to_end(args.workload, setups, result)
            metrics = measured["scaled"]
            spec_metrics = spec["end_to_end"]
        else:
            _, result = run_worker(args.workload, args.seed, args.seconds, "traced")
            metrics = per_layer(result)
            spec_metrics = spec["per_layer"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace == 0:
        work = {"items": result["items"], "cycles": result["cycles"],
                "calls": len(result["calls"]["seconds"]),
                "busy_s": sum(result["calls"]["seconds"]),
                "baseline_busy_s": sum(result["calls"]["baseline_s"]),
                "setup_samples_s": setups, **measured, "per_call": result["calls"]}
    else:
        work = {k: result[k] for k in ("items", "cycles", "busy_s", "untraced_busy_s", "spans")}
    attempted, failed = result["attempted"], result["failed"]
    known = result["known_defect_failed"]
    units = {m["name"]: m["unit"] for m in spec_metrics}
    summary = {
        "manifest": {
            "argv": sys.argv,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            **result["manifest"],
            "workload": args.workload,
            "why": whys[args.workload],
        },
        "work": work,
        "error_rate": failed / attempted,
        "known_defect_failed": known,
        "failure_reasons": result["failure_reasons"],
        "output": result["output"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {whys[args.workload]}")
    print(f"  items {work['items']} in {work['cycles']} cycles, {work['busy_s']:.3f} s of calls")
    for name, m in summary["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {summary['error_rate']:.6g} ratio "
          f"({failed} of {attempted} operations failed, {known} on non-finite input files)")
    for reason in summary["failure_reasons"]:
        print(f"  failed: {reason}")
    print(f"  results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
