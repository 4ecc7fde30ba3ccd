#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep each result.

    python3 perfbench/sweep.py --out results/base --seeds 1-10 \
        [--workloads boot-matrix,error-study]

Writes <out>/<workload>-<seed>.json, the last stdout line of each
`perfbench/run.py --trace 0` run (end-to-end metrics, run_seconds from
BENCHMARK.json), for perfbench/compare.py. Runs are made one at a
time, workload by workload.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for w in args.workloads.split(","):
        for s in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(s), "--trace", "0"]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if res.returncode:
                sys.exit("run failed: " + " ".join(cmd))
            last = res.stdout.strip().splitlines()[-1]
            with open(os.path.join(args.out, "%s-%d.json" % (w, s)), "w") as f:
                f.write(last + "\n")
            print("%s seed %d: %s" % (w, s, last[:160]), flush=True)


if __name__ == "__main__":
    main()
