#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload zoo_1t --seed 1 --seconds 45 --trace 0

Run from the root of a source tree. The driver is built (CMake, Release)
under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. A run has two processes: `prep` converts the models and runs the
oracle, `measure` loads the model files and measures. The last line of
stdout is the JSON result of `measure`. Any failure exits non-zero without
printing a result.
"""
import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("zoo_1t", "serve_multires")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s once the driver is built: prep takes 6-8 s and
# measure about --seconds plus 15 s, so these leave room for a slow host.
PREP_TIMEOUT_S = 50
MEASURE_EXTRA_S = 70


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(src_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no driver binary")
    return binary


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    src_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(src_dir, build_dir)

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--dir", run_dir]
    try:
        prep = subprocess.run([binary, "prep"] + common, stdout=sys.stderr,
                              timeout=PREP_TIMEOUT_S)
        if prep.returncode != 0:
            fail(f"prep exited with {prep.returncode}")
        measure = subprocess.run(
            [binary, "measure"] + common + ["--seconds", str(args.seconds)],
            stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + MEASURE_EXTRA_S)
    except subprocess.TimeoutExpired as e:
        fail(f"timed out: {e.cmd[:2]}")
    finally:
        # Model files are large and seed-specific; logs and layers.tsv stay.
        for path in glob.glob(os.path.join(run_dir, "*.lcem")) + \
                glob.glob(os.path.join(run_dir, "*.oracle")):
            os.remove(path)
    if measure.returncode != 0:
        sys.stderr.write(measure.stdout)
        fail(f"measure exited with {measure.returncode}")
    lines = measure.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(measure.stdout)
        fail("measure printed no result")
    if not isinstance(result, dict) or "metrics" not in result:
        fail("measure printed no result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
