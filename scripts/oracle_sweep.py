#!/usr/bin/env python3
"""Agreement sweeps between the fiber-based analysis and the dense oracle.

Runs exhaustive sweeps for small n and a randomized sweep at a larger n,
printing the worst norm error and any classification disagreements per n.
"""

import argparse
import time

import numpy as np

from genshift import IndexMap, IndexSet, exhaustive_maps, random_tables, sweep


def report(label, maps):
    t0 = time.monotonic()
    checked, worst, bad = sweep(maps)
    dt = time.monotonic() - t0
    print(f"{label}: {checked} maps, worst norm error {worst:.3e}, "
          f"{len(bad)} disagreements, {dt:.2f}s")
    for res in bad:
        print(f"  disagreement: {list(res.table)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-exhaustive", type=int, default=5)
    parser.add_argument("--random-n", type=int, default=12)
    parser.add_argument("--random-count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    for n in range(2, args.max_exhaustive + 1):
        report(f"n={n} exhaustive", exhaustive_maps(n))

    dom = IndexSet.finite(args.random_n)
    rng = np.random.default_rng(args.seed)
    tables = random_tables(args.random_n, args.random_count, rng)
    report(f"n={args.random_n} random", (IndexMap(dom, table=t) for t in tables))


if __name__ == "__main__":
    main()
