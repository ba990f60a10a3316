#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 repobench/run.py --selftest

Run from the root of a checkout. The binary is built with CMake into
$CARGO_TARGET_DIR/repobench (default .bench_build/repobench); the traced
run writes its spans to $CARGO_TARGET_DIR/spans. The benchmark's own output
goes to standard output, and its last line is the JSON result. Any other
flag is refused, and FPGADP_ENGINE is removed from the benchmark's
environment: the benchmark measures the shipped default scheduler.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["serve_mix", "anns_topk", "kvs_failover", "farview_scan"]
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("repobench: build failed (%s):\n%s" %
                                 (" ".join(step), "".join(tail)))
                return None
    return os.path.join(build_dir, "repobench")


def main():
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--selftest", action="store_true",
                        help="short traced-vs-untraced check of every workload")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.selftest:
        if any(v is not None for v in (args.workload, args.seed, args.seconds, args.trace)):
            parser.error("--selftest takes no other flag")
        bench_args = ["--selftest"]
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")
        spans_dir = os.path.join(build_root(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans-dir", spans_dir]

    binary = build(os.path.join(build_root(), "repobench"))
    if binary is None:
        return 1
    env = dict(os.environ)
    if env.pop("FPGADP_ENGINE", None) is not None:
        sys.stderr.write("repobench: ignoring FPGADP_ENGINE; the benchmark "
                         "runs the shipped default scheduler\n")
    sys.stdout.flush()
    try:
        proc = subprocess.run([binary] + bench_args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("repobench: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
