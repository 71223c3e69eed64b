"""One workload run in a fresh interpreter: set up, then a closed loop with a
single client that sends the next request when the previous one returns.

Prints ``ready`` once set-up is done (the parent times interpreter start to
this line) and, as its last line, a JSON object with the raw per-request
results.  Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parents[1]
DIGEST_INPUTS = 16
REQUEST_SHARE = 0.8   # of --seconds spent in (scaled) requests
WALL_CAP = 1.4        # stop after this many times --seconds of wall time


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import freefactor

    if Path(freefactor.__file__).resolve().parent != src / "freefactor":
        raise SystemExit(f"freefactor imported from {freefactor.__file__}, not {src}")
    return freefactor


def _caches():
    """The three process-wide lru caches, captured before any wrapping."""
    from freefactor import farey, projections

    return {
        "project_tree": projections.project_tree,
        "marking_inverse": projections._marking_inverse,
        "farey_dist": farey._dist_to_infinity,
    }


def _inputs_digest(wl, state, seed) -> str:
    h = hashlib.sha256()
    for k in range(DIGEST_INPUTS):
        h.update(json.dumps(wl.make_input(state, seed, k), sort_keys=True).encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0, help="0: no time limit")
    ap.add_argument("--requests", type=int, default=0, help="0: no count limit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the recorded spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # calibrate around set-up, so the parent can scale set-up time too
    t0 = time.perf_counter()
    cal_before = calibrate.measure_ms()
    calibrated_s = time.perf_counter() - t0
    freefactor = _import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    state = wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        cal = statistics.fmean((cal_before, calibrate.measure_ms()))
        print(json.dumps({"calibration_s": calibrated_s, "calibration_ms": cal}))
        return 0

    caches = _caches()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(check_kernel=freefactor.kernel_implementation != "python")
        tracer.install(getattr(wl, "trace_targets", lambda state: [])(state))

    speed = calibrate.Speed()
    # traced runs sample only between requests, so no sample lands in a span
    sampler = speed if tracer is None else contextlib.nullcontext()

    def excluded_s():
        """Time in calibration samples and kernel checks: not request time."""
        return speed.sampling_s + (tracer.stat("bench.kernel_check")[1] if tracer else 0.0)

    spans, summaries, errors = [], [], []
    failed = 0
    delta = {name: [0, 0] for name in caches}
    # stop on scaled request time, so the number of requests (and with it the
    # cache sizes and memory) does not follow the machine's speed phases
    budget = args.seconds * REQUEST_SHARE
    max_requests = args.requests or getattr(wl, "max_requests", 0)
    scaled_total = 0.0
    k = 0
    with sampler:
        begin = time.perf_counter()
        while True:
            if args.seconds and (scaled_total >= budget
                                 or time.perf_counter() - begin >= args.seconds * WALL_CAP):
                break
            if max_requests and k >= max_requests:
                break
            inp = wl.make_input(state, args.seed, k)
            if tracer is not None:
                speed.sample_if_due()
            before = {n: c.cache_info() for n, c in caches.items()}
            err = None
            excluded = excluded_s()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.request(state, inp)
                else:
                    with tracer.request():
                        out = wl.request(state, inp)
            except Exception as exc:  # a failed request is counted, not fatal
                err = f"raised {exc!r}"
            t1 = time.perf_counter()
            excluded = excluded_s() - excluded
            for n, c in caches.items():
                info = c.cache_info()
                delta[n][0] += info.hits - before[n].hits
                delta[n][1] += info.misses - before[n].misses
            spans.append((t0, t1, excluded))
            scaled_total += (t1 - t0 - excluded) * speed.scale(t0, t1)
            if err is None:
                err = wl.check(state, inp, out)
                summaries.append(wl.summary(out))
            else:
                summaries.append("error")
            if err is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"request {k}: {err}")
            out = None  # free the output (long-label's trees) before the next request
            k += 1
        speed.sample()
    raw = [(t1 - t0 - ex) * 1000.0 for t0, t1, ex in spans]
    scaled = [ms * speed.scale(t0, t1) for ms, (t0, t1, _) in zip(raw, spans)]

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "kernel_implementation": freefactor.kernel_implementation,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "inputs_digest": _inputs_digest(wl, state, args.seed),
        "latencies_ms": scaled,
        "raw_latencies_ms": raw,
        "calibration_ms": statistics.median(speed.cal_ms),
        "summaries": summaries,
        "failed": failed,
        "errors": errors,
        "cache_currsize": {n: c.cache_info().currsize for n, c in caches.items()},
        "cache_delta": delta,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import check_nesting, per_layer_metrics

        tracer.uninstall()
        problems = check_nesting(tracer.raw)
        if tracer.nesting_errors:
            problems.append(f"{tracer.nesting_errors} spans failed the online nesting check")
        kc = tracer.counters
        if kc["kernel.mismatches"]:
            problems.append(f"compiled kernel disagrees with _reduce_py on "
                            f"{int(kc['kernel.mismatches'])} of {int(kc['kernel.checked'])} inputs")
        result["trace"] = {
            "metrics": per_layer_metrics(tracer, delta, result["cache_currsize"]),
            "problems": problems,
            "kernel_checked": int(kc["kernel.checked"]),
        }
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as fh:
                for req, sid, parent, key, start, end in tracer.raw:
                    fh.write(json.dumps([req, sid, parent, tracer.names[key], start, end]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
