#!/usr/bin/env python3
"""The search ladder: a fixed set of problems, growing in lattice rank, that is
both a timing benchmark and a correctness gate.

Rungs, each searched to completion (no budget):

* Fibonacci pairs (1,2) ... (6,6) and (7,7): B(F(2k+1), F(2k-1)) +
  B(F(2n+1), F(2n-1)).  Theorem 2 makes every one OBSTRUCTED.
* Markov triples up to the rank cap: the ball set of each of the 23 triples
  with maximum <= 28,657, which are exactly those of ambient rank <= 64.
  They embed disjointly (the P(a^2, b^2, c^2) degeneration), so each is
  NOT_OBSTRUCTED, with 14 classes for three balls, 5 for two and 2 for
  B(2,1) alone.
* Chains n = 2..5: the chain lattice (3^(n-1), 2, 2, 3^(n-1), 2) in Z^(4n),
  with 3, 5, 12 and 37 classes (docs/decisions.md).
* Single Markov balls up to B(610, 89): the ball of the largest entry of each
  Markov triple with maximum <= 610.  NOT_OBSTRUCTED.
* Cold CLI, two rungs: a fresh ``python -m ballobs.cli --format json``
  process for ``markov list --max 1000``, which never searches, and one for
  ``obstruct 3,1``, which loads numpy and searches; each is timed from start
  to exit.  Both must exit 0, ``markov list`` must list the triples that
  ``markov.enumerate_triples`` gives, and ``obstruct`` must write a report
  document that ``obstruction.report_from_doc`` reads back as OBSTRUCTED
  with 1 class.  The children run the ballobs source that this script
  imports.  Apart, the rungs show a change to the cold start of the commands
  that never search separately from the numpy import.

Each rung asserts its verdict and its class count; the script runs the whole
ladder, then exits 1 if any rung missed.  It prints best-of-N wall time with
the deterministic counts (nodes, leaves, classes) and, with ``--json``, writes
them to a file.  The first of the N runs pays the one-off costs (imports,
caches), so N >= 2 keeps them out of the best time.

The machine's speed swings by 1.4x and more between and within runs, so raw
wall times of identical code differ by tens of percent.  So a fixed
pure-Python loop (``reference_loop``, the same load as ``perfbench``'s) is
also timed before the first run, between every two runs and after the last.
Each run's reference is the mean of the loop times on either side of it,
and the rung's scaled time is ``REFERENCE_S``, the loop's time on a quiet
machine, times the runs' summed wall time over their summed reference: a
ratio of sums, over every run but the first when N >= 2.  A best-of-N of
per-run ratios, by contrast, picks the luckiest loop.

    python benchmarks/bench_search.py [--repeats N] [--json PATH] [--baseline PATH]

With ``--baseline PATH`` (the root of another checkout, with its own
``src/ballobs``), every rung runs in two worker processes, one importing
ballobs from PATH and one from this tree, each ``N`` times, alternately: the
baseline first in odd repeats, this tree first in even ones.  The reference
loop is timed between every two runs, so both trees see the same spells of a
slow machine, and each side's scaled time is its ratio of sums over its runs
but the first.  The table then shows both scaled times, their ratio, and
whether the two trees gave the same verdict, nodes, leaves and classes.  The
ladder and its expectations are this script's, whatever PATH holds.

``BENCH_<n>.json`` files at the root of the repository pair two such runs, the
parent commit's as "before" and the change's as "after", or hold one
``--baseline`` run with the parent as the baseline.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

from ballobs import markov, obstruction
from ballobs.errors import UsageError
from ballobs.lattice import SearchStats

FIB_PAIRS = ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6),
             (7, 7))
# Every Markov triple whose ball set fits the rank cap; the next triple on the
# slowest-growing branch, (1, 28657, 75025), has ambient rank 70.
TRIPLE_MAX = 28657
# number of balls of a Markov triple -> class count of its ball set
TRIPLE_CLASSES = {1: 2, 2: 5, 3: 14}
CHAIN_CLASSES = {2: 3, 3: 5, 4: 12, 5: 37}
SINGLE_BALL_MAX = 610
SINGLE_BALL_CLASSES = 2
COLD_MARKOV_MAX = 1000
# Wall seconds of reference_loop() on a quiet 2-core KVM guest (Intel Xeon
# host) with Python 3.11, as in perfbench/run.py.
REFERENCE_S = 0.0027


def reference_loop() -> int:
    """A fixed pure-Python load (integer arithmetic, a dict, a sort) whose
    wall time gauges how fast the machine runs this process right now."""
    total, buckets = 0, {}
    for i in range(20000):
        total += i * i % 7
        buckets[i % 97] = buckets.get(i % 97, 0) + total
    return total + len(sorted(buckets.values()))


def _reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


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


def cold_cli_rung(argv, outcome, expected):
    """One fresh CLI process on ``argv``; ``outcome`` reads (verdict, stats)
    off its JSON document."""
    src = os.path.dirname(os.path.dirname(obstruction.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run():
        proc = subprocess.run([sys.executable, "-m", "ballobs.cli", "--format", "json", *argv],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            return f"EXIT {proc.returncode}", SearchStats(0, 0, 0)
        return outcome(json.loads(proc.stdout))
    return f"cold CLI {' '.join(argv)}", run, expected


def cold_cli_rungs():
    triples = [[str(x) for x in t.entries] for t in markov.enumerate_triples(COLD_MARKOV_MAX)]

    def listed(doc):
        return ("COMPLETE" if doc["triples"] == triples else "WRONG TRIPLES"), SearchStats(0, 0, 0)

    def reported(doc):
        try:
            report = obstruction.report_from_doc(doc)
        except UsageError as exc:
            return f"BAD DOCUMENT ({exc})", SearchStats(0, 0, 0)
        return report.verdict, report.statistics
    return [cold_cli_rung(("markov", "list", "--max", str(COLD_MARKOV_MAX)), listed,
                          ("COMPLETE", 0)),
            cold_cli_rung(("obstruct", "3,1"), reported, (obstruction.OBSTRUCTED, 1))]


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
                                          TRIPLE_CLASSES[len(balls)]))
    rungs.extend(chain_rung(n) for n in CHAIN_CLASSES)
    singles = []
    for t in markov.enumerate_triples(SINGLE_BALL_MAX):
        if t.c >= 2 and t.b < t.c:
            singles.append(next(b for b in markov.ball_params(t) if b.p == t.c))
    for ball in sorted(singles, key=lambda b: b.p):
        rungs.append(obstruction_rung(f"single ball {ball}", [ball],
                                      obstruction.NOT_OBSTRUCTED, SINGLE_BALL_CLASSES))
    rungs.extend(cold_cli_rungs())
    return rungs


def write_json(args, fields):
    """Write the results with the run's settings to ``--json``, if given."""
    if args.json:
        doc = {"repeats": args.repeats, "reference_s": REFERENCE_S,
               "python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)), **fields}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def run_once(run):
    """One run of a rung: its wall seconds, verdict and counts."""
    t0 = time.perf_counter()
    verdict, stats = run()
    return {"wall": time.perf_counter() - t0, "verdict": verdict, "nodes": stats.nodes,
            "leaves": stats.leaves, "classes": stats.classes}


def serve():
    """Worker of a ``--baseline`` run: list the ladder's labels, then for
    each rung index read from stdin run that rung once; one JSON line each."""
    rungs = ladder()
    print(json.dumps([label for label, _, _ in rungs]), flush=True)
    for line in sys.stdin:
        print(json.dumps(run_once(rungs[int(line)][1])), flush=True)


class Worker:
    """A ``serve`` process importing ballobs from the ``src`` of one tree."""

    def __init__(self, root):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                          env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--serve"],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.labels = json.loads(self.proc.stdout.readline())

    def run(self, index):
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def time_rung(sides, index, repeats):
    """Run rung ``index`` ``repeats`` times on each side, the sides taking
    turns at going first, with the reference loop timed before the first run
    and after every run; each side's counts, best and scaled seconds."""
    names = list(sides)
    samples = {name: [] for name in names}
    loop = _reference_seconds()
    for r in range(repeats):
        for name in (names if r % 2 == 0 else names[::-1]):
            out = sides[name](index)
            after = _reference_seconds()
            samples[name].append((out, (loop + after) / 2))
            loop = after
    timed = slice(1 if repeats > 1 else 0, None)
    result = {}
    for name, runs in samples.items():
        walls = [out["wall"] for out, _ in runs]
        result[name] = {key: runs[-1][0][key] for key in ("verdict", "nodes", "leaves", "classes")}
        result[name]["best_s"] = round(min(walls), 4)
        result[name]["scaled_s"] = round(REFERENCE_S * sum(walls[timed])
                                         / sum(ref for _, ref in runs[timed]), 4)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    parser.add_argument("--baseline", metavar="PATH",
                        help="root of another checkout to run every rung against, alternately")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve:
        serve()
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.baseline is not None and not os.path.isfile(
            os.path.join(args.baseline, "src", "ballobs", "__init__.py")):
        parser.error(f"--baseline: no src/ballobs under {args.baseline}")

    rungs = ladder()
    workers = {}
    if args.baseline is None:
        sides = {"this": lambda index: run_once(rungs[index][1])}
        print(f"{'rung':<34} {'best (s)':>9} {'scaled':>9} {'nodes':>7} {'leaves':>7} "
              f"{'classes':>8}  verdict")
    else:
        this_root = os.path.dirname(os.path.dirname(os.path.dirname(obstruction.__file__)))
        workers = {"before": Worker(args.baseline), "after": Worker(this_root)}
        if any(worker.labels != [label for label, _, _ in rungs] for worker in workers.values()):
            sys.exit("error: the two trees build different ladders")
        sides = {side: worker.run for side, worker in workers.items()}
        print(f"{'rung':<34} {'before':>9} {'after':>9} {'ratio':>6} {'nodes':>7} {'leaves':>7} "
              f"{'classes':>8}  verdict")
    results, missed = [], []
    try:
        for index, (label, _, expected) in enumerate(rungs):
            result = time_rung(sides, index, args.repeats)
            for side, r in result.items():
                if (r["verdict"], r["classes"]) != expected:
                    where = "" if args.baseline is None else f" ({side})"
                    missed.append(f"{label}{where}: {r['verdict']} with {r['classes']} classes, "
                                  f"expected {expected[0]} with {expected[1]}")
            if args.baseline is None:
                r = result["this"]
                results.append({"rung": label, **r})
                print(f"{label:<34} {r['best_s']:>9.4f} {r['scaled_s']:>9.4f} {r['nodes']:>7} "
                      f"{r['leaves']:>7} {r['classes']:>8}  {r['verdict']}", flush=True)
                continue
            b, a = result["before"], result["after"]
            same = all(a[key] == b[key] for key in ("verdict", "nodes", "leaves", "classes"))
            results.append({"rung": label, **result, "counts_equal": same})
            print(f"{label:<34} {b['scaled_s']:>9.4f} {a['scaled_s']:>9.4f} "
                  f"{a['scaled_s'] / b['scaled_s']:>6.3f} {a['nodes']:>7} {a['leaves']:>7} "
                  f"{a['classes']:>8}  {a['verdict']}"
                  + ("" if same else f"  (before: {b['nodes']} nodes, {b['leaves']} leaves, "
                     f"{b['classes']} classes, {b['verdict']})"), flush=True)
    finally:
        for worker in workers.values():
            worker.close()
    fields = {"rungs": results}
    if args.baseline is not None:
        fields = {"baseline": os.path.abspath(args.baseline), **fields}
    write_json(args, fields)
    for line in missed:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
