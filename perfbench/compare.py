"""Compare saved runs of two versions of the program on one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 > base-1.txt
    ...
    python3 perfbench/compare.py --base base-*.txt --change change-*.txt

Reads the ``record:`` line of each saved output.  Refuses to compare runs
whose kernel implementation, workload or trace mode differ: the compiled
kernel alone is several times faster on reduction than the pure-Python one,
so such a comparison would credit a build difference to a code change.
Prints each metric's median and quartiles per side and, for the end-to-end
metrics, whether the change is worse than the parent by more than the bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    for line in Path(path).read_text().splitlines():
        if line.startswith("record: "):
            return json.loads(line[len("record: "):])
    raise SystemExit(f"{path}: no record line")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    base = [load(p) for p in args.base]
    change = [load(p) for p in args.change]
    for key in ("kernel_implementation", "workload", "trace"):
        seen = {r[key] for r in base + change}
        if len(seen) > 1:
            print(f"refusing to compare: runs differ in {key}: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    worse = []
    print(f"workload {base[0]['workload']}  kernel {base[0]['kernel_implementation']}  "
          f"base {len(base)} runs  change {len(change)} runs")
    for name in base[0]["metrics"]:
        if name not in better:
            continue
        b = quartiles([r["metrics"][name]["value"] for r in base])
        c = quartiles([r["metrics"][name]["value"] for r in change])
        line = (f"{name:<40} base {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
                f"change {c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]")
        if name in bounds and b[1]:
            rel = (c[1] - b[1]) / b[1]
            loss = rel if better[name] == "lower" else -rel
            line += f"  {rel:+.1%}"
            if loss > bounds[name]["bound"]:
                line += f"  WORSE than bound {bounds[name]['bound']:.0%}"
                worse.append(name)
        print(line)
    failed = [r for r in base + change if not r["correct"]]
    if failed:
        print(f"{len(failed)} runs had wrong outputs")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
