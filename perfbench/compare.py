#!/usr/bin/env python3
"""Summarize or compare result sets of the repository benchmark.

A result set is a directory of <workload>-<seed>.json files, each the
last stdout line of one `perfbench/run.py` run (perfbench/sweep.py
writes them).

    python3 perfbench/compare.py RESULTS            # one set: spreads
    python3 perfbench/compare.py BASE NEW           # two sets: moves

For every workload and end-to-end metric it prints the median and the
first and third quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the share of failed operations. With one set,
a spread wider than the metric's bound is flagged. With two sets, a median that moved
the wrong way by more than the bound is flagged WORSE, one that moved
the right way by more than the bound and by more than the base set's
spread is flagged better, and a metric whose base spread exceeds its
bound is reported unresolved. Bounds and directions come from
BENCHMARK.json. Exit status 1 when anything is flagged.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    """{workload: [result, ...]} from <workload>-<seed>.json files."""
    out = {}
    for f in sorted(glob.glob(os.path.join(path, "*.json"))):
        m = re.match(r"(.+)-(\d+)\.json$", os.path.basename(f))
        if not m:
            continue
        with open(f) as fh:
            lines = fh.read().strip().splitlines()
        out.setdefault(m.group(1), []).append(json.loads(lines[-1]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(results, name):
    vals = [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]
    if not vals:
        return None
    q1, med, q3 = quartiles(vals)
    spread = (q3 - q1) / med if med else float("inf")
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def failed_shares(results):
    return sorted({r["failed"] / r["attempted"] for r in results})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="one or two result directories")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two result directories")
    with open(args.spec) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    sets = [load_set(p) for p in args.sets]
    flagged = False

    for workload in sorted(set().union(*[s.keys() for s in sets])):
        print("== %s" % workload)
        for i, s in enumerate(sets):
            rs = s.get(workload, [])
            bad = [r for r in rs if not r.get("correct")]
            print("  set %d: %d runs, failed share %s%s"
                  % (i + 1, len(rs), failed_shares(rs) if rs else "-",
                     ", %d INCORRECT" % len(bad) if bad else ""))
            flagged |= bool(bad)
        if len(sets) == 2:
            a = set(failed_shares(sets[0].get(workload, [])))
            b = set(failed_shares(sets[1].get(workload, [])))
            if a != b:
                print("  failed share DIFFERS between the sets")
                flagged = True
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [summarize(s.get(workload, []), name) for s in sets]
            if stats[0] is None:
                continue
            line = "  %-16s" % name
            for st in stats:
                if st is None:
                    line += "  %-44s" % "-"
                    continue
                line += "  med %-11.5g q1 %-11.5g q3 %-11.5g spr %5.3f" % (
                    st["median"], st["q1"], st["q3"], st["spread"])
            note = ""
            base = stats[0]
            if len(stats) == 1:
                if base["spread"] > bound:
                    note = "SPREAD > bound %.3g" % bound
                elif base["spread"] > bound / 3:
                    note = "spread > bound/3"
            elif stats[1] is not None:
                change = (stats[1]["median"] - base["median"]) / base["median"]
                worse = change > 0 if lower else change < 0
                note = "%+.1f%%" % (100 * change)
                if worse and abs(change) > bound:
                    note += " WORSE beyond bound %.3g" % bound
                elif (not worse and abs(change) > bound
                      and abs(change) > base["spread"]):
                    note += " better beyond bound"
                elif base["spread"] > bound:
                    note += " unresolved (spread > bound)"
            flagged |= "WORSE" in note or "SPREAD" in note
            print(line + "  " + note)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
