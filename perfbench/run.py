#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of the repository. The benchmark binary is built from
source (`cargo build --release`, honouring CARGO_TARGET_DIR), the
workload's inputs are generated for the seed in one process, and they
are measured in a second process, so the peak RSS reported is the
workload's own. The last line printed is the JSON result. Generated
inputs live under `.bench_work/` and are removed afterwards; span
traces of `--trace 1` runs are kept in `.bench_work/traces/`.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["scale", "rbc-sweep", "serve-warm", "serve-ingest", "figures"]
# Generation, measurement and checks share the 180 s a run gets after
# the build.
RUN_BUDGET_S = 175


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, stdout=sys.stderr, timeout=890)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "bftbcast-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(HERE, "..", "crates")):
        sys.exit("perfbench: run from a full checkout of the repository")

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.abspath(".bench_work")
    data = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--data", data]
    try:
        gen = subprocess.run([binary, "gen", *common], stdout=sys.stderr, timeout=deadline - time.monotonic())
        if gen.returncode != 0:
            sys.exit("perfbench: input generation failed")
        cmd = [binary, "run", *common, "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(work, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic())
        if run.returncode != 0:
            sys.exit("perfbench: workload run failed")
        print(run.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    main()
