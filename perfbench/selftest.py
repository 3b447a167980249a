#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

Run from the root of the repository. For each workload (default: all):

1. generates the inputs twice for the same seed and checks that both
   trees are byte-identical (file names, sizes and FNV-1a digests);
2. makes two traced runs with the same seed and checks that the exact
   per-layer counts repeat exactly and that every check passed.

Minor page faults (`proc.minflt_per_point`) are the exception: on Linux
they vary by a few percent between same-seed runs of the same
single-threaded code, with or without address-space randomization, so
they are held to agree within MINFLT_TOLERANCE instead.

Exits 1 if any workload fails one of these.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

EXACT_COUNTS = [
    "sim.waves",
    "rbc.messages",
    "rbc.wire_bits",
    "rbc.waves",
    "store.records",
    "store.bytes_per_record",
]
MINFLT = "proc.minflt_per_point"
MINFLT_TOLERANCE = 0.15


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("workloads", nargs="*", default=bench.WORKLOADS)
    args = ap.parse_args()

    binary = bench.build()
    work = os.path.abspath(os.path.join(".bench_work", f"selftest-{os.getpid()}"))
    failures = 0
    try:
        for workload in args.workloads:
            common = ["--workload", workload, "--seed", str(args.seed)]
            digests = []
            for copy in ("a", "b"):
                data = os.path.join(work, f"{workload}-{copy}")
                subprocess.run([binary, "gen", *common, "--data", data], check=True, stdout=sys.stderr)
                out = subprocess.run(
                    [binary, "digest", *common, "--data", data], check=True, stdout=subprocess.PIPE, text=True
                )
                digests.append(out.stdout)
            same_inputs = digests[0] == digests[1]

            counts = []
            correct = True
            for copy in ("a", "b"):
                # A fresh copy of the inputs for each run: serve-ingest
                # appends to its store.
                data = os.path.join(work, f"{workload}-{copy}")
                shutil.rmtree(data)
                subprocess.run([binary, "gen", *common, "--data", data], check=True, stdout=sys.stderr)
                cmd = [binary, "run", *common, "--data", data, "--seconds", str(args.seconds), "--trace", "1"]
                out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                correct &= result["correct"] and result["failed"] == 0
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS + [MINFLT]})
            a, b = counts[0].pop(MINFLT), counts[1].pop(MINFLT)
            close_minflt = abs(a - b) <= MINFLT_TOLERANCE * max(a, b)
            same_counts = counts[0] == counts[1]
            ok = same_inputs and same_counts and close_minflt and correct
            failures += not ok
            print(
                f"{workload:<13} inputs {'identical' if same_inputs else 'DIFFER'}; "
                f"counts {'repeat' if same_counts else 'DIFFER'}; "
                f"minflt {a:.1f} vs {b:.1f} ({'close' if close_minflt else 'FAR'}); "
                f"checks {'pass' if correct else 'FAIL'}"
            )
            if not same_counts:
                for k in EXACT_COUNTS:
                    if counts[0][k] != counts[1][k]:
                        print(f"  {k}: {counts[0][k]} vs {counts[1][k]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
