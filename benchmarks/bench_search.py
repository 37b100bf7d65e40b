#!/usr/bin/env python3
"""The search ladder: a fixed set of problems, growing in lattice rank, that is
both a timing benchmark and a correctness gate.

Rungs, each searched to completion (no budget):

* Fibonacci pairs (1,2) ... (6,6): B(F(2k+1), F(2k-1)) + B(F(2n+1), F(2n-1)).
  Theorem 2 makes every one OBSTRUCTED.
* Markov triples with maximum <= 200: the ball set of each triple, including
  the two rank-33 sets.  They embed disjointly (the P(a^2, b^2, c^2)
  degeneration), so each is NOT_OBSTRUCTED.
* Chains n = 2..5: the chain lattice (3^(n-1), 2, 2, 3^(n-1), 2) in Z^(4n),
  with 3, 5, 12 and 37 classes (docs/decisions.md).
* Single Markov balls up to B(610, 89): the ball of the largest entry of each
  Markov triple with maximum <= 610.  NOT_OBSTRUCTED.

Each rung asserts its verdict and its class count; the script runs the whole
ladder, then exits 1 if any rung missed.  It prints best-of-N wall time with
the deterministic counts (nodes, leaves, classes) and, with ``--json``, writes
them to a file.  The first of the N runs pays the one-off costs (imports,
caches), so N >= 2 keeps them out of the best time.

    python benchmarks/bench_search.py [--repeats N] [--json PATH]

``BENCH_<n>.json`` files at the root of the repository pair two such runs, the
parent commit's as "before" and the change's as "after".
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from ballobs import markov, obstruction

FIB_PAIRS = ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6))
TRIPLE_MAX = 200
# Markov triple -> class count of its ball set
TRIPLE_CLASSES = {(1, 1, 2): 2, (1, 2, 5): 5, (1, 5, 13): 5, (1, 13, 34): 5, (1, 34, 89): 5,
                  (2, 5, 29): 14, (2, 29, 169): 14, (5, 13, 194): 14}
CHAIN_CLASSES = {2: 3, 3: 5, 4: 12, 5: 37}
SINGLE_BALL_MAX = 610
SINGLE_BALL_CLASSES = 2


def obstruction_rung(label, balls, verdict, classes):
    problem = obstruction.build_problem(balls)

    def run():
        report = obstruction.check_obstruction(problem)
        return report.verdict, report.statistics
    return label, run, (verdict, classes)


def chain_rung(n):
    def run():
        report = obstruction.lemma_cemb_report(n, 4 * n)
        return ("COMPLETE" if not report.statistics.limit_hit else "LIMIT"), report.statistics
    return f"chain n={n} in Z^{4 * n}", run, ("COMPLETE", CHAIN_CLASSES[n])


def ladder():
    rungs = []
    for k, n in FIB_PAIRS:
        rungs.append(obstruction_rung(f"Fibonacci pair ({k},{n})",
                                      [markov.fibonacci_ball(k), markov.fibonacci_ball(n)],
                                      obstruction.OBSTRUCTED, 3))
    for t in markov.enumerate_triples(TRIPLE_MAX):
        balls = markov.ball_params(t)
        if balls:
            rungs.append(obstruction_rung(f"Markov triple {t}", balls,
                                          obstruction.NOT_OBSTRUCTED,
                                          TRIPLE_CLASSES[t.entries]))
    rungs.extend(chain_rung(n) for n in CHAIN_CLASSES)
    singles = []
    for t in markov.enumerate_triples(SINGLE_BALL_MAX):
        if t.c >= 2 and t.b < t.c:
            singles.append(next(b for b in markov.ball_params(t) if b.p == t.c))
    for ball in sorted(singles, key=lambda b: b.p):
        rungs.append(obstruction_rung(f"single ball {ball}", [ball],
                                      obstruction.NOT_OBSTRUCTED, SINGLE_BALL_CLASSES))
    return rungs


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    args = parser.parse_args()

    results, missed = [], []
    print(f"{'rung':<34} {'best (s)':>9} {'nodes':>7} {'leaves':>7} {'classes':>8}  verdict")
    for label, run, expected in ladder():
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            verdict, stats = run()
            best = min(best, time.perf_counter() - t0)
        print(f"{label:<34} {best:>9.4f} {stats.nodes:>7} {stats.leaves:>7} "
              f"{stats.classes:>8}  {verdict}", flush=True)
        if (verdict, stats.classes) != expected:
            missed.append(f"{label}: {verdict} with {stats.classes} classes, "
                          f"expected {expected[0]} with {expected[1]}")
        results.append({"rung": label, "verdict": verdict, "best_s": round(best, 4),
                        "nodes": stats.nodes, "leaves": stats.leaves,
                        "classes": stats.classes})
    if args.json:
        doc = {"repeats": args.repeats, "python": platform.python_version(),
               "numpy": np.__version__, "machine": platform.machine(),
               "cpus": len(os.sched_getaffinity(0)), "rungs": results}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    for line in missed:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
