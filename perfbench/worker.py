"""One benchmark process: import, input generation and a warm-up call, then
one workload's closed loop.

run.py starts this file once per set-up sample and once per measured loop,
with BLAS threads pinned through the process environment:

  python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (stop when ready), ``setup-baseline`` (the same with the
baseline copy in place of the program), ``timed`` (whole cycles until their
summed call time reaches S, or for classify a fixed number of cycles that
depends only on S) or ``traced`` (a fixed number of cycles that depends only
on S, each run untraced and traced).  The worker prints one
JSON line when it is ready and one result line.

  python3 perfbench/worker.py --record-reference

rewrites reference.json from the program in this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys

from workloads import WORKLOADS, Tally, compare_to_reference, run_call

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(HERE, "baseline")
REFERENCE = os.path.join(HERE, "reference.json")
RESULTS = os.path.join(HERE, "results")


def import_cli():
    """Import entrobound from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "entrobound", "__init__.py")):
        raise SystemExit(f"error: no entrobound sources under {SRC}")
    sys.path.insert(0, SRC)
    import entrobound
    from entrobound import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(entrobound.__file__))) != SRC:
        raise SystemExit(f"error: entrobound imported from {entrobound.__file__}, not {SRC}")
    return cli


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def manifest() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def check_reference(main, workload, reference: dict, tally) -> dict:
    """Run the reference calls; each is an operation that fails when its own
    check fails or its output leaves REF_TOL of the recorded output."""
    calls = workload.reference_calls()
    entries = reference.get(workload.name, [])
    identical, max_dev = len(calls) == len(entries), 0.0
    for call, ref in zip(calls, entries):
        got = run_call(main, call)
        failure = got.failure
        if [os.path.basename(a) for a in call.argv] != ref["argv"]:
            failure = f"reference recorded for {ref['argv']}"
        elif failure is None and got.exit_code != ref["exit_code"]:
            failure = f"exit code {got.exit_code}, reference {ref['exit_code']}"
        if failure is None:
            ok, dev = compare_to_reference(got.stdout, ref["output"])
            if math.isfinite(dev):
                max_dev = max(max_dev, dev)
            if not ok:
                failure = f"output deviates from the reference by {dev:.3e}"
        # byte identity, which is what comparing sha256 digests would test
        identical = identical and got.stdout == ref["output"]
        tally.record(call, failure)
    if len(calls) != len(entries):
        tally.record(calls[0], f"{len(entries)} reference outputs for {len(calls)} calls")
    return {"sha256_match": int(identical), "max_abs_dev": max_dev}


def run_cycle(main, workload, index: int, tally) -> tuple[int, list[float]]:
    items, latencies = 0, []
    for call in workload.cycle(index):
        got = run_call(main, call)
        tally.record(call, got.failure)
        latencies.append(got.seconds)
        items += call.items
    return items, latencies


def import_baseline_cli():
    """The frozen copy of the program that the host's speed is measured with."""
    sys.path.insert(0, BASELINE)
    from entrobound_baseline import cli

    return cli


def run_timed(cli, baseline, workload, tally, seconds: float) -> dict:
    """The workload's fixed number of cycles, or else whole cycles until
    their summed call time reaches ``seconds``.

    Each call also runs on the baseline, right before or right after
    (alternating), so the two see the same contention on the host.  The
    baseline's outputs are not checked and its calls are not operations.
    """
    calls = {"cycle": [], "shape": [], "seconds": [], "baseline_s": []}
    items = cycles = 0
    wanted = workload.timed_cycles(seconds)
    while cycles == 0 or (cycles < wanted if wanted is not None
                          else sum(calls["seconds"]) < seconds):
        for call in workload.cycle(cycles):
            calls["cycle"].append(cycles)
            for on_baseline in (False, True) if len(calls["seconds"]) % 2 == 0 else (True, False):
                if on_baseline:
                    calls["baseline_s"].append(run_call(baseline.main, call).seconds)
                else:
                    got = run_call(cli.main, call)
                    tally.record(call, got.failure)
                    calls["seconds"].append(got.seconds)
                    items += call.items
            calls["shape"].append(call.shape)
        cycles += 1
    return {"items": items, "cycles": cycles, "calls": calls}


def run_traced(cli, workload, tally, cycles: int) -> dict:
    """Each cycle twice, untraced and traced, alternating which goes first."""
    from tracing import Tracer

    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}
    items = 0
    for index in range(cycles):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                # cli.main is looked up after install, so it is the wrapper.
                n, lat = run_cycle(cli.main, workload, index, tally)
            finally:
                tracer.uninstall()
            busy[traced] += sum(lat)
            items += n if traced else 0
    layers = tracer.layer_metrics()
    layers["trace.coverage"] = (
        sum(v for k, v in layers.items() if k.endswith(".self_s")) / busy[True])
    layers["trace_overhead_frac"] = 1.0 - busy[False] / busy[True]
    return {"cycles": cycles, "items": items, "busy_s": busy[True],
            "untraced_busy_s": busy[False], "spans": len(tracer.start),
            "layers": layers, "tracer": tracer}


def run(args) -> int:
    # In setup-baseline mode the baseline stands in for the program, so its
    # set-up time can be set against the program's.
    cli = import_baseline_cli() if args.mode == "setup-baseline" else import_cli()
    baseline = import_baseline_cli() if args.mode == "timed" else None

    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        for program in (cli, baseline) if baseline else (cli,):
            run_call(program.main, workload.warmup_call())
        emit({"event": "ready"})
        if args.mode.startswith("setup"):
            return 0

        tally = Tally()
        with open(REFERENCE, encoding="utf-8") as fh:
            output = check_reference(cli.main, workload, json.load(fh), tally)
        if args.mode == "timed":
            result = run_timed(cli, baseline, workload, tally, args.seconds)
        else:
            result = run_traced(cli, workload, tally, workload.fixed_cycles(args.seconds))
            os.makedirs(RESULTS, exist_ok=True)
            result.pop("tracer").save(
                os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.npz"))
        emit({
            "event": "result",
            **result,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "known_defect_failed": tally.known_defect_failed,
            "failure_reasons": tally.reasons,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output": output,
            "manifest": manifest(),
        })
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_reference() -> int:
    cli = import_cli()
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    reference = {}
    try:
        for name, cls in WORKLOADS.items():
            entries = []
            for call in cls(0, workdir).reference_calls():
                got = run_call(cli.main, call)
                if got.failure is not None:
                    raise SystemExit(f"error: reference call {call.argv} fails: {got.failure}")
                entries.append({"argv": [os.path.basename(a) for a in call.argv],
                                "exit_code": got.exit_code, "output": got.stdout})
            reference[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=["setup", "setup-baseline", "timed", "traced"],
                        default="timed")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
