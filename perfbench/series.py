#!/usr/bin/env python3
"""Runs a set of benchmark runs and stores each result for compare.py.

    python3 perfbench/series.py --out results/a --runs 10 [--first-seed 1]
        [--workloads zoo_1t,serve_multires] [--trace 0] [--seconds N]

Run from the root of a source tree. Seeds are first-seed .. first-seed+runs-1,
run in order, one process at a time; workload w's run with seed s lands in
<out>/<w>/t<trace>-seed<s>.json (the result line) and .log (the rest of
stdout). --seconds defaults to run_seconds from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spec_path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()

    for workload in args.workloads.split(","):
        out_dir = os.path.join(args.out, workload)
        os.makedirs(out_dir, exist_ok=True)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            stem = os.path.join(out_dir, f"t{args.trace}-seed{seed}")
            lines = proc.stdout.strip().splitlines()
            with open(stem + ".log", "w") as f:
                f.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                sys.exit(1)
            with open(stem + ".json", "w") as f:
                f.write(lines[-1] + "\n")
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)


if __name__ == "__main__":
    main()
