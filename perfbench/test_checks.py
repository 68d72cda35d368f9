"""Self-test of the benchmark: the checker flags corrupted outputs, the
closed forms agree with brute force, and the tracer times re-exported
functions.  Run with  python3 -m pytest perfbench  from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle  # noqa: E402
from perfbench.checks import Checker, subgroup_count, zn_product_ideal_count  # noqa: E402
from perfbench.trace import METRICS, Recorder  # noqa: E402
from perfbench.workloads import WORKLOADS, Request  # noqa: E402

LEDGER_TEXT = (ROOT / "src" / "srings" / "ledger" / "book_claims.txt").read_text("utf-8")


def run_cli(argv) -> str:
    import srings.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert srings.cli.main(list(argv)) == 0
    return buf.getvalue()


def find(workload: str, *argv: str) -> Request:
    return next(r for r in WORKLOADS[workload] if r.argv[: len(argv)] == argv)


@pytest.fixture(scope="module")
def checker() -> Checker:
    return Checker(LEDGER_TEXT)


def ledger_output(checker: Checker, flip: str | None = None) -> str:
    results = [
        {"id": i, "status": ("REFUTED" if s == "CONFIRMED" else "CONFIRMED") if i == flip else s}
        for i, s in checker.ledger.items()
    ]
    return json.dumps({"schema": "srings-report/1", "ledger": "builtin", "results": results})


def test_closed_forms_match_brute_force():
    assert subgroup_count([4] * 4) == 1983
    assert subgroup_count([2] * 6) == 2825
    assert subgroup_count([3] * 4) == 212
    for spec, orders in (("Z4 x Z4 x Z4", [4, 4, 4]), ("Z4 x Z4 x Z4 x Z2", [4, 4, 4, 2]),
                         ("Z3 x Z12 x Z7", [3, 12, 7]), ("Z2 x Z8", [2, 8])):
        assert subgroup_count(orders) == len(oracle.additive_subgroups(oracle.ring(spec)))
    assert zn_product_ideal_count([3, 12, 7]) == len(oracle.ideals(oracle.ring("Z3 x Z12 x Z7")))
    assert zn_product_ideal_count([2] * 6) == 64


def test_ledger_flip_is_flagged(checker):
    req = WORKLOADS["ledger"][0]
    assert len(checker.ledger) == 125
    assert checker.check(req, 0, ledger_output(checker), None) is None
    assert "status differs" in checker.check(req, 0, ledger_output(checker, "grp-s3-order"), None)


def test_wrong_subgroup_count_is_flagged(checker):
    req = find("families", "substructures", "Z4 x Z4 x Z4")
    doc = json.loads(run_cli(req.argv))
    assert checker.check(req, 0, json.dumps(doc), None) is None
    doc["families"][0]["members"].pop()
    doc["families"][0]["count"] -= 1
    assert "expected 129" in checker.check(req, 0, json.dumps(doc), None)


def test_wrong_census_and_lattice_verdicts_are_flagged(checker):
    req = find("census", "classify", "Z105")
    doc = json.loads(run_cli(req.argv))
    assert checker.check(req, 0, json.dumps(doc), None) is None
    doc["censuses"]["units"] = doc["censuses"]["units"][1:]
    assert "units differs" in checker.check(req, 0, json.dumps(doc), None)

    req = find("lattice", "lattice", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2")
    doc = json.loads(run_cli(req.argv))
    assert checker.check(req, 0, json.dumps(doc), None) is None
    doc["lattices"][0]["identities"]["distributive"]["holds"] = False
    assert "distributive should hold" in checker.check(req, 0, json.dumps(doc), None)


def test_failures_raise_failed_ratio(checker):
    req = WORKLOADS["ledger"][0]
    good = [0, ledger_output(checker), None]
    outcomes = {
        "exit": [3, "", None],
        "raised": [None, "", "ValueError: boom"],
        "not json": [0, "{", None],
        "flip": [0, ledger_output(checker, "sgrp-s2-order"), None],
    }
    assert checker.judge([req], [{"outcomes": [good]}]) == (1, [])
    for bad in outcomes.values():
        attempted, failures = checker.judge([req], [{"outcomes": [good]}, {"outcomes": [bad]}])
        assert (attempted, len(failures)) == (2, 1)


def test_tracer_times_reexported_functions_and_restores():
    import srings.elements as el
    import srings.specparse as sp
    import srings.substructures as sub

    original = sub.ideal_generated
    recorder = Recorder()
    restore = recorder.install()
    try:
        assert el.ideal_generated is sub.ideal_generated is not original
        R = sp.ring_from_text("Z12")
        el.semi_idempotents(R)
        recorder.end_request()
    finally:
        restore()
    assert el.ideal_generated is sub.ideal_generated is original
    cost = Recorder.span_cost_s()
    assert 0 < cost < 1e-3
    metrics = recorder.summary(1.0, cost)
    assert set(metrics) == set(METRICS)
    assert metrics["trace.overhead_s"] == pytest.approx(len(recorder.spans) * cost)
    assert metrics["substructures.ideal_generated_calls"] == 11
    assert metrics["elements.semi_idempotents_calls"] == 1
    assert metrics["rings.construct_calls"] == 3  # ring_from_text, build_ring, zn
    assert 0 < metrics["substructures.ideal_generated_distinct_ratio"] <= 1
    roots = sum(t1 - t0 for _, parent, t0, t1 in recorder.spans if parent < 0)
    shares = sum(v for k, v in metrics.items() if k.endswith(".share_pct"))
    assert shares == pytest.approx(100.0 * roots)  # a 1 s pass: every span's time counted once


def test_benchmark_json_names_every_metric():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["per_layer"]] == list(METRICS)
    assert {m["name"] for m in config["end_to_end"]} == {"pass_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ledger", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_samples_only_inside_its_block():
    import signal
    from time import perf_counter

    from perfbench.speed import REF_PERIOD_S, SpeedProbe, reference_kernel

    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            reference_kernel()

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    try:
        with probe:
            busy(10 * REF_PERIOD_S)
        taken = len(probe.samples)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        busy(3 * REF_PERIOD_S)
    finally:
        probe.close()
    assert taken >= 3
    assert len(probe.samples) == taken
    assert all(t > 0 for t in probe.samples)
    assert signal.getsignal(signal.SIGALRM) == before
