#!/usr/bin/env python3
"""Compare two result sets of the TierScape benchmark.

A result set is a JSON-lines file the benchmark appends to with
`--out FILE`, one record per invocation. Run both sides with the same
seeds, alternating which side goes first, for at least ten pairs:

    python3 crates/bench/perfbench/compare.py base.jsonl change.jsonl

For every workload x end-to-end metric it prints each side's median and
quartiles, the pairs the change won and lost (the i-th run of one side
against the i-th run of the other, ties counting for neither), and a
verdict: "better" when there are at least ten pairs, the change wins at
least nine tenths of them and the medians differ by more than the base's
quartile spread, "worse" under the mirror-image rule, and "unresolved"
otherwise. Per-layer metrics
(from `--trace 1` records) get their median change printed beside, never a
verdict. Exits 1 when any end-to-end verdict is "worse".
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "..", "BENCHMARK.json")
# Fewer pairs than this never give a verdict other than "unresolved".
MIN_PAIRS = 10


def load(path):
    """{(trace, workload, metric): [values in file order]}"""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                key = (rec["trace"], rec["workload"], name)
                out.setdefault(key, []).append(m["value"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(base, change, higher_is_better):
    """(wins, losses, pairs, verdict) for `change` against `base`."""
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if (c > b if higher_is_better else c < b))
    losses = sum(1 for b, c in pairs if (c < b if higher_is_better else c > b))
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    clear = abs(med_c - med_b) > (q3 - q1)
    need = 0.9 * len(pairs)
    if len(pairs) >= MIN_PAIRS and wins >= need and clear:
        return wins, losses, len(pairs), "better"
    if len(pairs) >= MIN_PAIRS and losses >= need and clear:
        return wins, losses, len(pairs), "worse"
    return wins, losses, len(pairs), "unresolved"


def pct(base, change):
    return (change - base) / base * 100.0 if base else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    base, change = load(args.base), load(args.change)
    # Every workload both sides ran, listed in BENCHMARK.json or not.
    workloads = sorted({k[1] for k in base} & {k[1] for k in change})
    worse = False

    print(f"{'workload':<20} {'metric':<16} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'delta':>8} {'won/lost/pairs':>15}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            key = (0, w, m["name"])
            if key not in base or key not in change:
                continue
            b, c = base[key], change[key]
            wins, losses, n, v = verdict(b, c, m["better"] == "higher")
            worse |= v == "worse"
            bq, cq = quartiles(b), quartiles(c)
            print(f"{w:<20} {m['name']:<16} "
                  f"{'/'.join(f'{x:.4g}' for x in bq):>32} "
                  f"{'/'.join(f'{x:.4g}' for x in cq):>32} "
                  f"{pct(bq[1], cq[1]):>7.2f}% {f'{wins}/{losses}/{n}':>15}  {v}")

    print(f"\nper-layer medians (not gated)\n{'workload':<20} {'metric':<32} "
          f"{'base':>12} {'change':>12} {'delta':>8}")
    for w in workloads:
        for m in bench["per_layer"]:
            key = (1, w, m["name"])
            if key not in base or key not in change:
                continue
            mb, mc = statistics.median(base[key]), statistics.median(change[key])
            print(f"{w:<20} {m['name']:<32} {mb:>12.5g} {mc:>12.5g} {pct(mb, mc):>7.2f}%")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
