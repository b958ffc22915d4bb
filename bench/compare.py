"""Compare benchmark results of a base and a new version.

    python3 bench/compare.py --base A1.json [A2.json ...] --new B1.json [B2.json ...]

Each file is a result written by `bench/run.py --out`, all of one workload.
For every metric the script prints its unit, the median of each side, the
ratio new/base (base is the denominator) and the run-to-run spread: the
interquartile range over the median, the larger of the two sides (it
needs at least two files on a side).  End-to-end metrics are judged
against their bound in BENCHMARK.json:

    unresolved   the spread exceeds the bound, and not every new run is
                 better than every base run
    regressed    the new median is worse than the base by more than the bound
    within       otherwise
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths) -> list:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def relative_spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def side(results, name):
    values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
    return values, relative_spread(values)


def verdict(spec, base, new, ratio, spread) -> str:
    if spec is None or "bound" not in spec or not math.isfinite(ratio):
        return ""
    lower = spec["better"] == "lower"
    worse = ratio - 1.0 if lower else (1.0 / ratio - 1.0 if ratio > 0 else math.inf)
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if math.isfinite(spread) and spread > spec["bound"] and not all_better:
        return "unresolved"
    return "regressed" if worse > spec["bound"] else "within"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two sets of benchmark results")
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    workloads = {r["workload"] for r in base + new}
    if len(workloads) != 1:
        sys.exit(f"compare: results mix workloads {sorted(workloads)}")
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    print(f"workload {workloads.pop()}: base seeds {[r['seed'] for r in base]}, "
          f"new seeds {[r['seed'] for r in new]}")
    print(f"{'metric':44} {'unit':6} {'base':>14} {'new':>14} {'new/base':>9} {'spread':>7}  verdict")
    regressed = False
    names = list(dict.fromkeys(k for r in base + new for k in r["metrics"]))
    for name in names:
        b_vals, b_spread = side(base, name)
        n_vals, n_spread = side(new, name)
        if not b_vals or not n_vals:
            print(f"{name:44} only in {'new' if n_vals else 'base'}")
            continue
        b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
        ratio = n_med / b_med if b_med else float("nan")
        finite = [x for x in (b_spread, n_spread) if math.isfinite(x)]
        spread = max(finite) if finite else float("nan")
        unit = (base[0]["metrics"].get(name) or new[0]["metrics"][name])["unit"]
        v = verdict(specs.get(name), b_vals, n_vals, ratio, spread)
        regressed |= v == "regressed"
        print(f"{name:44} {unit:6} {b_med:14.6g} {n_med:14.6g} {ratio:9.4f} {spread:7.3f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
