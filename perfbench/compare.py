#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py results/a results/b [--trace 0|1]

A result set is a directory written by series.py: <set>/<workload>/
t<trace>-seed<n>.json, one result line per run. For every workload and
metric, prints the median and quartiles of each set, the spread
(IQR / median) and the change of the median. A change is flagged only when
it is worse than the metric's bound in BENCHMARK.json (end-to-end metrics),
or, for metrics without a bound, when it is larger than the combined spread
of the two sets. Also flagged: a spread above the bound, an incorrect run,
and a failed-operation share that differs between the sets. Exits 1 when
anything is flagged.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path, trace):
    runs = {}
    for workload_dir in sorted(glob.glob(os.path.join(path, "*"))):
        files = sorted(glob.glob(os.path.join(workload_dir, f"t{trace}-seed*.json")))
        if files:
            runs[os.path.basename(workload_dir)] = [
                json.load(open(f)) for f in files]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_set(args.base, args.trace), load_set(args.new, args.trace)
    flagged = 0
    for workload in sorted(set(base) & set(new)):
        a_runs, b_runs = base[workload], new[workload]
        print(f"== {workload}: {len(a_runs)} vs {len(b_runs)} runs")
        for label, runs in (("base", a_runs), ("new", b_runs)):
            bad = [i for i, r in enumerate(runs) if not r["correct"]]
            if bad:
                print(f"  FLAG {label}: incorrect runs {bad}")
                flagged += 1
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (a_runs, b_runs)]
        if shares[0] != shares[1]:
            print(f"  FLAG failed share {shares[0]:.6f} vs {shares[1]:.6f}")
            flagged += 1
        print(f"  {'metric':34} {'base median [q1, q3]':>30} "
              f"{'new median [q1, q3]':>30} {'spread':>13} {'change':>8}")
        names = [n for n in a_runs[0]["metrics"] if n in b_runs[0]["metrics"]]
        for name in names:
            va = [r["metrics"][name]["value"] for r in a_runs]
            vb = [r["metrics"][name]["value"] for r in b_runs]
            qa, qb = quartiles(va), quartiles(vb)
            sa = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            sb = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            meta = declared.get(name, {})
            bound = meta.get("bound")
            worse = -change if meta.get("better") == "higher" else change
            notes = []
            if bound is not None:
                if worse > bound:
                    notes.append(f"worse than bound {bound}")
                for label, s in (("base", sa), ("new", sb)):
                    if s > bound and name != "setup_s":
                        notes.append(f"{label} spread above bound {bound}")
            elif abs(change) > (sa + sb) / 2:
                notes.append("outside combined spread")
            unit = a_runs[0]["metrics"][name]["unit"]
            print(f"  {name + ' (' + unit + ')':34} "
                  f"{qa[1]:>11.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(66) +
                  f"{qb[1]:>11.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(32) +
                  f"{sa:6.3f}/{sb:6.3f} {change:+8.3f}"
                  + ("  FLAG " + "; ".join(notes) if notes else ""))
            flagged += bool(notes) and bound is not None
    if not set(base) & set(new):
        print("no workload in common", file=sys.stderr)
        sys.exit(1)
    print("DIFFER" if flagged else "AGREE")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
