"""Tests of the benchmark itself: tiny runs, span nesting, trace invariance,
kernel agreement, and the refusal rules.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from tracing import Tracer, check_nesting

ROOT = Path(__file__).resolve().parents[2]

# requests per tiny run: every CLI command twice, one certification
TINY = {"scan": 3, "long-label": 2, "certify": 1, "queries": 16}


def tiny(workload, *extra):
    args = ["--workload", workload, "--seed", 7, "--requests", TINY[workload], *extra]
    return run.run_worker(args, timeout=170)[1]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_has_no_failures(workload):
    res = tiny(workload)
    assert len(res["latencies_ms"]) == TINY[workload]
    assert res["failed"] == 0, res["errors"]
    assert res["hashseed"] == run.HASHSEED
    metrics = run.end_to_end(res, [0.5])
    assert metrics["failed_ratio"]["value"] == 0
    assert all(m["value"] > 0 for k, m in metrics.items() if k != "failed_ratio")


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_spans_nest_and_outputs_match_untraced(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    traced = tiny(workload, "--trace", 1, "--spans", spans)
    plain = tiny(workload)
    assert traced["summaries"] == plain["summaries"]
    assert traced["trace"]["problems"] == []
    raw = [json.loads(line) for line in spans.read_text().splitlines()]
    raw = [(r, s, p, 0, a, b) for r, s, p, _name, a, b in raw]
    assert raw and check_nesting(raw) == []
    metrics = traced["trace"]["metrics"]
    shares = [m["value"] for k, m in metrics.items() if k.endswith("self_share")]
    assert all(s >= 0 for s in shares)
    assert sum(shares) == pytest.approx(100.0, abs=1e-6)


def test_check_nesting_reports_a_child_longer_than_its_parent():
    raw = [(0, 0, -1, 0, 0.0, 1.0), (0, 1, 0, 0, 0.0, 0.6), (0, 2, 0, 0, 0.5, 1.0)]
    problems = check_nesting(raw)
    assert any("negative self time" in p for p in problems)


def test_kernel_agreement_check_counts_mismatches(monkeypatch):
    from freefactor import _kernel, _reduce_py

    def broken(seq):
        return list(seq)  # no cancellation

    monkeypatch.setattr(_kernel, "reduce_word", broken)
    tr = Tracer(check_kernel=True)
    tr.install()
    try:
        with tr.request():
            _kernel.reduce_word([1, -1, 2])
            _kernel.concat((1, 2), (-2, 3))
    finally:
        tr.uninstall()
    assert tr.counters["kernel.checked"] == 2
    assert tr.counters["kernel.mismatches"] == 1
    assert _kernel.concat is _reduce_py.concat


def test_tail_is_the_highest_percentile_with_ten_beyond():
    lat = list(range(1, 101))
    value, pct = run.tail(lat)
    assert value == 90 and pct == 90.0
    assert sum(1 for x in lat if x > value) == 10


def test_compare_refuses_different_kernels(tmp_path):
    base = {"workload": "scan", "trace": 0, "kernel_implementation": "python",
            "correct": True, "metrics": {}}
    paths = []
    for i, kernel in enumerate(("python", "cython")):
        p = tmp_path / f"{i}.txt"
        p.write_text("record: " + json.dumps(dict(base, kernel_implementation=kernel)) + "\n")
        paths.append(str(p))
    assert compare.main(["--base", paths[0], "--change", paths[1]]) == 2


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
