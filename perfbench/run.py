"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
run starts fresh interpreters with a fixed PYTHONHASHSEED:

* ``--trace 0``: nine set-up probes (interpreter start to first request
  ready), then the closed loop for ``--seconds``.  Prints the end-to-end
  metrics.  Times are scaled to a reference interpreter speed (see
  ``calibrate.py``); the raw ones are printed too.
* ``--trace 1``: the closed loop with every layer wrapped in spans for 60% of
  ``--seconds``, then the same requests untraced in another interpreter, for
  the tracing overhead and to check that outputs do not change.  Prints the
  per-layer metrics.

Every request's output is checked.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a ``record:`` line before it holds the full result for
``compare.py``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASHSEED = "0"
SETUP_PROBES = 9
TRACED_SHARE = 0.6
TAIL_BEYOND = 10
# printed, but left out of the result line: failed_ratio is 0 on a correct
# run (the line carries attempted and failed instead), the raw times and the
# calibration explain the scaled ones, and trace.request_s is the base of the
# self_share metrics
PRINT_ONLY = ("failed_ratio", "raw.latency_p50_ms", "raw.setup_s", "calibration_ms",
              "trace.request_s")


class WorkerError(RuntimeError):
    pass


def run_worker(args, timeout: float):
    """Start a worker; return (seconds from start to ``ready``, its result)."""
    env = dict(os.environ, PYTHONHASHSEED=HASHSEED)
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    lines, ready_at = [], []

    def read(stream):
        # drains the pipe as the worker writes, so a large result cannot block it
        for line in stream:
            if not ready_at:
                ready_at.append(time.perf_counter())
            lines.append(line)

    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    reader = threading.Thread(target=read, args=(proc.stdout,), daemon=True)
    reader.start()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s: {cmd}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=10)
        proc.stdout.close()
    if proc.returncode != 0 or len(lines) < 2 or lines[0].strip() != "ready":
        raise WorkerError(f"worker exited {proc.returncode} without a result: {cmd}")
    return ready_at[0] - t0, json.loads(lines[-1])


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND requests
    beyond it; with too few requests, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(res, setups):
    lat = res["latencies_ms"]
    value, pct = tail(lat)
    return {
        "throughput_rps": {"value": len(lat) / (sum(lat) / 1000.0), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_tail_ms": {"value": value, "unit": "ms", "percentile": pct,
                            "requests": len(lat), "beyond": min(TAIL_BEYOND, len(lat) - 1)},
        "failed_ratio": {"value": res["failed"] / len(lat), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def meta(res):
    keys = ("workload", "seed", "kernel_implementation", "python", "nproc", "hashseed",
            "inputs_digest", "cache_currsize")
    return {k: res[k] for k in keys}


def setup_times(workload):
    """Scaled set-up time of SETUP_PROBES fresh interpreters, and the raw times."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        ready, cal = run_worker(["--workload", workload, "--setup-only"], 60)
        # the probe calibrates itself before importing and after set-up
        ready -= cal["calibration_s"]
        raw.append(ready)
        scaled.append(ready * calibrate.REF_MS / cal["calibration_ms"])
    return scaled, raw


def measure(workload, seed, seconds):
    setups, raw_setups = setup_times(workload)
    _, res = run_worker(
        ["--workload", workload, "--seed", seed, "--seconds", seconds], seconds * 1.5 + 60)
    metrics = end_to_end(res, setups)
    metrics["raw.latency_p50_ms"] = {
        "value": statistics.median(res["raw_latencies_ms"]), "unit": "ms"}
    metrics["raw.setup_s"] = {"value": statistics.median(raw_setups), "unit": "s"}
    metrics["calibration_ms"] = {"value": res["calibration_ms"], "unit": "ms"}
    return res, metrics, res["errors"]


def measure_traced(workload, seed, seconds):
    spans = ROOT / "perfbench" / "out" / f"spans-{workload}-seed{seed}.jsonl"
    _, traced = run_worker(
        ["--workload", workload, "--seed", seed, "--seconds", seconds * TRACED_SHARE,
         "--trace", 1, "--spans", spans], seconds + 40)
    n = len(traced["latencies_ms"])
    _, plain = run_worker(
        ["--workload", workload, "--seed", seed, "--requests", n, "--seconds", seconds],
        seconds + 40)
    m = len(plain["latencies_ms"])
    problems = traced["errors"] + traced["trace"]["problems"]
    problems += [f"untraced replay {e}" for e in plain["errors"]]
    if m != n:
        problems.append(f"untraced replay stopped after {m} of {n} requests")
    diff = [k for k in range(min(n, m)) if traced["summaries"][k] != plain["summaries"][k]]
    if diff:
        problems.append(f"traced and untraced outputs differ at requests {diff[:5]}")
    metrics = dict(traced["trace"]["metrics"])
    k = min(n, m)
    metrics["trace.overhead_ratio"] = {
        "value": sum(traced["latencies_ms"][:k]) / sum(plain["latencies_ms"][:k]),
        "unit": "ratio",
    }
    return traced, metrics, problems


def _fmt(name, m):
    line = f"{name:<40} {m['value']:>14.6g} {m['unit']}"
    if "percentile" in m:
        line += (f"  (p{m['percentile']:.2f} of {m['requests']} requests,"
                 f" {m['beyond']} beyond)")
    if "samples" in m:
        line += f"  (median of {m['samples']} fresh interpreters)"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "freefactor" / "__init__.py").is_file():
        print(f"error: no freefactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = measure_traced if args.trace else measure
    try:
        res, metrics, problems = run(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    info = meta(res)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"kernel {info['kernel_implementation']}  python {info['python']}  "
          f"nproc {info['nproc']}  PYTHONHASHSEED {info['hashseed']}  "
          f"inputs {info['inputs_digest']}")
    for name, m in metrics.items():
        print(_fmt(name, m))
    print("lru currsize: " + ", ".join(f"{k} {v}" for k, v in info["cache_currsize"].items()))
    for p in problems:
        print(f"WRONG: {p}")

    attempted = len(res["latencies_ms"])
    correct = not problems and res["failed"] == 0
    record = {**info, "trace": args.trace, "seconds": args.seconds, "correct": correct,
              "attempted": attempted, "failed": res["failed"], "metrics": metrics}
    print("record: " + json.dumps(record, sort_keys=True))
    wanted = {k: v for k, v in metrics.items() if k not in PRINT_ONLY}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
