"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from entrobound import cli  # noqa: E402
from run import end_to_end  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import (  # noqa: E402
    REFERENCE,
    check_reference,
    import_baseline_cli,
    run_cycle,
    run_timed,
    run_traced,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    Call,
    Classify,
    QcScatter,
    Tally,
    classify_check,
    compare_to_reference,
    run_call,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from the non-finite input files
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    workload = WORKLOADS[name](7, str(tmp_path), tiny=True)
    workload.setup()
    assert run_call(cli.main, workload.warmup_call()).failure is None
    tally = Tally()
    with open(REFERENCE, encoding="utf-8") as fh:
        output = check_reference(cli.main, workload, json.load(fh), tally)
    items, latencies = run_cycle(cli.main, workload, 0, tally)
    assert latencies and items >= 0
    assert output["max_abs_dev"] <= 1e-9
    # Only the known defect (non-finite input accepted) may fail.
    assert tally.failed == tally.known_defect_failed, tally.reasons


def test_timed_run_pairs_every_call_with_the_baseline(tmp_path):
    workload = QcScatter(5, str(tmp_path), tiny=True)
    result = run_timed(cli, import_baseline_cli(), workload, Tally(), seconds=0.0)
    calls = result["calls"]
    assert result["cycles"] == 1
    assert len(calls["seconds"]) == len(calls["baseline_s"]) == len(calls["shape"]) == 4
    setups = {"setup": [0.1, 0.2], "setup-baseline": [0.15, 0.15]}
    metrics = end_to_end("qc-scatter", setups, {**result, "peak_rss_mb": 40.0})["scaled"]
    assert set(metrics) == {"items_per_s", "call_p50_ms", "call_p99_ms", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value in metrics.values())


def test_corrupted_output_counts_as_failed(tmp_path):
    call = QcScatter(3, str(tmp_path), tiny=True).cycle(0)[0]
    got = run_call(cli.main, call)
    assert got.failure is None
    lines = got.stdout.splitlines()
    angular, diff, bound = lines[1].split(",")
    lines[1] = ",".join([angular, repr(float(bound) + 1e-3), bound])
    tally = Tally()
    tally.record(call, call.check(got.exit_code, "\n".join(lines) + "\n"))
    tally.record(call, call.check(1, got.stdout))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_wrong_verdict_and_exit_code_fail():
    report = json.dumps({"class": "Equal"})
    assert classify_check("Equal")(0, report) is None
    assert classify_check("UpperSaturated")(0, report) is not None
    assert classify_check(None)(2, "") is None
    assert classify_check(None)(0, report) is not None


def test_reference_deviation_is_measured():
    ref = "angular,entropy_diff,bound\n0.5,0.25,1\n"
    assert compare_to_reference(ref, ref) == (True, 0.0)
    ok, dev = compare_to_reference("angular,entropy_diff,bound\n0.5,0.2500001,1\n", ref)
    assert not ok and dev == pytest.approx(1e-7)


def test_self_times_add_up_to_root_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("linalg.as_hermitian", leaf)
    root = tracer.wrap("cli.main", tracer.wrap("states.make_density", inner))
    root()
    root()
    self_s = tracer.self_times()
    assert len(self_s) == 8
    roots = [end - start for start, end, parent in zip(tracer.start, tracer.end, tracer.parent)
             if parent < 0]
    assert len(roots) == 2
    assert float(self_s.sum()) == pytest.approx(sum(roots), rel=1e-9)
    layers = tracer.layer_metrics()
    assert layers["linalg.as_hermitian.calls"] == 4
    assert layers["linalg.as_hermitian.self_s"] >= 4 * 0.002


def test_traced_cycles_cover_the_call_time(tmp_path):
    result = run_traced(cli, QcScatter(5, str(tmp_path), tiny=True), Tally(), cycles=2)
    layers = result["layers"]
    assert layers["sampling.sample_qc_pair.calls"] == 2 * 2 * (4 + 2)
    assert 0.99 < layers["trace.coverage"] <= 1.0
    assert layers["trace_overhead_frac"] < 1.0
    assert cli.main.__module__ == "entrobound.cli" and not hasattr(cli.main, "__wrapped__")


def test_install_rebinds_imported_names_and_uninstall_restores():
    original = cli.fig1_scatter
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.fig1_scatter is not original
        got = run_call(cli.main, Call(["fig1", "--n", "2"], 2, lambda code, text: None))
        assert got.exit_code == 0
    finally:
        tracer.uninstall()
    assert cli.fig1_scatter is original
    layers = tracer.layer_metrics()
    assert layers["sampling.sample_qc_pair.calls"] == 2
    assert layers["states.make_density.calls"] * 2 == layers["linalg.as_hermitian.calls"]


def test_classify_timed_run_is_a_fixed_number_of_passes(tmp_path):
    # The known-defect failures scale with the number of calls, so that
    # number must depend neither on the seed nor on the host's speed.
    passes = []
    for seed in (1, 2):
        workload = Classify(seed, str(tmp_path / str(seed)), tiny=True)
        workload.setup()
        passes.append((workload.timed_cycles(12.0), workload.timed_cycles(0.1)))
    assert passes[0] == passes[1]
    assert passes[0][1] * len(workload.files) >= Classify.MIN_CALLS
