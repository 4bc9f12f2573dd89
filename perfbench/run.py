#!/usr/bin/env python3
"""Build and run one workload of the fsbb repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload prove-m20 --seed 1 --seconds 20 --trace 0

Builds fsbb_perfbench and fsbb_serve from source (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the workload. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error. The
exit code is non-zero when the build fails, when an answer fails its
correctness check, or when the run overstays its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["prove-m20", "prove-m5", "frozen-gpu", "serve-mix"]
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "fsbb_perfbench", "fsbb_serve"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "fsbb_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--serve-bin", os.path.join(build_dir, "fsbb_serve")]
    if args.trace == "1":
        cmd += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-s{args.seed}.json")]
    # Own process group, so a timeout also stops the fsbb_serve child.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
