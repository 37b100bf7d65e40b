#!/usr/bin/env python3
"""Benchmark the embedding search.

Runs a few representative enumerations and prints a timing table.  Each case
gets an untimed warmup pass, so the first call's one-off costs (imports,
caches) do not land in the best-of-N time.

    python benchmarks/bench_search.py [--repeats N]
"""

import argparse
import time

from ballobs.lattice import (direct_sum, linear_lattice,
                             search_embedding_classes)

CASES = [
    ("chain (3,2,2,3,2) in Z^9", linear_lattice((3, 2, 2, 3, 2)), 9),
    ("chain (3,3,2,2,3,3,2) in Z^12", linear_lattice((3, 3, 2, 2, 3, 3, 2)), 12),
    ("pair lattice (2,2,2)+(2,3,2,2,3) in Z^9",
     direct_sum(linear_lattice((2, 2, 2)), linear_lattice((2, 3, 2, 2, 3))), 9),
    ("pair lattice (2,3,2,2,3)+(2,3,3,2,2,3,3) in Z^13",
     direct_sum(linear_lattice((2, 3, 2, 2, 3)),
                linear_lattice((2, 3, 3, 2, 2, 3, 3))), 13),
]


def time_case(lat, m, repeats):
    search_embedding_classes(lat, m)  # warmup
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = search_embedding_classes(lat, m)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"{'case':<50} {'best (ms)':>10} {'nodes':>8} {'classes':>8}")
    for label, lat, m in CASES:
        best, result = time_case(lat, m, args.repeats)
        print(f"{label:<50} {best * 1e3:>10.2f} "
              f"{result.stats.nodes:>8} {len(result.classes):>8}")


if __name__ == "__main__":
    main()
