"""The benchmark's workloads: generated problems and their correctness checks.

Each workload is a fixed list of operations, run one at a time (a closed loop
with one client) in an order shuffled from the seed.  Operations call only
public ballobs entry points, looked up on their modules at call time so that
a tracer installed later sees them.  All budgets are node budgets: time
budgets would make verdicts depend on the machine.

* ``obstructed``: every problem has no witness, so each search is a pure
  exhaustive walk that no early exit can shorten.  Consecutive odd-Fibonacci
  pairs (the paper's Theorem 2), the three-ball set B(5,2)+B(13,5)+B(34,13)
  (it contains the obstructed pair B(5,2)+B(13,5)) and the chain-lattice
  classification at n = 2, 3, 4.  (4,4) and the three-ball set run out of
  budget at the time of writing, so a pruning that saves nodes shows as a
  higher decided share.
* ``witness``: the Markov positive control.  The ball sets of the Markov
  triples with maximum <= 200 and the single balls B(p, q) of the Markov
  numbers 2 <= p <= 610 all embed disjointly (the P(a^2, b^2, c^2)
  degeneration), so a verdict is never OBSTRUCTED and the witness path
  (orthogonal complement, witness verification) runs.
* ``cli-cold``: fresh ``python -m ballobs.cli`` processes on small inputs.
  Search is negligible; interpreter start, imports, argument parsing and JSON
  output dominate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

OBSTRUCTED_BUDGET = 3000
WITNESS_BUDGET = 1000
# Consecutive odd-Fibonacci pairs (k, n): B(F(2k+1), F(2k-1)) + B(F(2n+1), F(2n-1)).
FIBONACCI_PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (4, 4))
THREE_BALLS = ((5, 2), (13, 5), (34, 13))
# Class counts of the chain lattice (3^(n-1), 2, 2, 3^(n-1), 2) in Z^(4n) found
# by the exhaustive search; a regression gate, not a claim about the lemma
# (the n = 3 count is disputed).
CHAIN_CLASS_COUNTS = {2: 3, 3: 5, 4: 12}
TRIPLE_MAX = 200
SINGLE_BALL_MAX = 610
CLI_COMMANDS = (
    ("markov_list", ("markov", "list", "--max", "1000")),
    ("ball_classify", ("ball", "classify", "5", "2")),
    ("cf_expand", ("cf", "expand", "9", "7")),
    ("plumbing_certify", ("plumbing", "certify", "5")),
    ("obstruct", ("obstruct", "3,1")),
    ("verify_theorem2", ("verify", "theorem2", "1", "2")),
)


@dataclass
class Outcome:
    """What one operation produced.

    ``signature`` holds the deterministic part (verdict and counts, or the
    CLI's stdout) that must repeat exactly across passes and seeds.
    """

    decided: bool
    signature: tuple
    error: str | None = None
    spans: list = field(default_factory=list)


@dataclass
class Op:
    id: str
    run: Callable[[bool], Outcome]   # argument: trace the call


@dataclass
class Workload:
    name: str
    budget: int | None
    build: Callable[[], list[Op]]


# ---------------------------------------------------------------------------
# Search workloads


def _witness_error(problem, witness) -> str | None:
    """Check a witness against the problem from scratch, in plain integers."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    gram = problem.c_lattice.gram
    rows, gen = witness.embedding, witness.generator
    k = len(rows)
    if any(dot(rows[i], rows[j]) != gram[i][j] for i in range(k) for j in range(k)):
        return "witness rows do not realise the lattice"
    if any(dot(gen, row) for row in rows):
        return "witness generator is not orthogonal to the embedding"
    if dot(gen, gen) != problem.m_norm:
        return "witness generator norm differs from prod(p^2)"
    if not all(gen) or not all(any(row[j] for row in rows) for j in range(len(gen))):
        return "witness misses an ambient unit vector"
    return None


def _obstruction_op(op_id, problem, limits, expect_obstructed: bool) -> Op:
    from ballobs import obstruction

    def run(_traced: bool) -> Outcome:
        report = obstruction.check_obstruction(problem, limits=limits)
        s = report.statistics
        verdict = report.verdict
        error = None
        if expect_obstructed and verdict == obstruction.NOT_OBSTRUCTED:
            error = f"{op_id}: NOT_OBSTRUCTED contradicts Theorem 2"
        elif not expect_obstructed and verdict == obstruction.OBSTRUCTED:
            error = f"{op_id}: OBSTRUCTED contradicts the Markov degeneration"
        elif verdict == obstruction.OBSTRUCTED and s.limit_hit:
            error = f"{op_id}: OBSTRUCTED after an incomplete enumeration"
        elif verdict == obstruction.NOT_OBSTRUCTED:
            if not report.witnesses:
                error = f"{op_id}: NOT_OBSTRUCTED without a witness"
            for w in report.witnesses:
                error = error or _witness_error(problem, w)
        return Outcome(decided=verdict != obstruction.INCONCLUSIVE,
                       signature=(verdict, s.nodes, s.leaves, s.classes,
                                  len(report.witnesses)),
                       error=error)
    return Op(op_id, run)


def _chain_op(n, limits) -> Op:
    from ballobs import obstruction
    from ballobs.errors import LimitExceeded
    op_id = f"chain{n}"

    def run(_traced: bool) -> Outcome:
        try:
            report = obstruction.lemma_cemb_report(n, 4 * n, limits=limits)
        except LimitExceeded as exc:
            s = exc.stats
            return Outcome(False, ("LIMIT", s.nodes, s.leaves, s.classes))
        s = report.statistics
        error = None
        if report.class_count != CHAIN_CLASS_COUNTS[n]:
            error = (f"{op_id}: {report.class_count} classes, "
                     f"expected {CHAIN_CLASS_COUNTS[n]}")
        return Outcome(True, ("COMPLETE", s.nodes, s.leaves, s.classes), error)
    return Op(op_id, run)


def build_obstructed() -> list[Op]:
    from ballobs import lattice, markov, obstruction
    limits = lattice.SearchLimits(node_budget=OBSTRUCTED_BUDGET)
    ops = []
    for k, n in FIBONACCI_PAIRS:
        problem = obstruction.build_problem([markov.fibonacci_ball(k), markov.fibonacci_ball(n)])
        ops.append(_obstruction_op(f"fib{k},{n}", problem, limits, True))
    problem = obstruction.build_problem([markov.BallSpec(p, q) for p, q in THREE_BALLS])
    ops.append(_obstruction_op("three-ball", problem, limits, True))
    ops.extend(_chain_op(n, limits) for n in CHAIN_CLASS_COUNTS)
    return ops


def build_witness() -> list[Op]:
    from ballobs import lattice, markov, obstruction
    limits = lattice.SearchLimits(node_budget=WITNESS_BUDGET)
    ops = []
    for t in markov.enumerate_triples(TRIPLE_MAX):
        balls = markov.ball_params(t)
        if balls:
            problem = obstruction.build_problem(balls)
            ops.append(_obstruction_op(f"triple{t}", problem, limits, False))
    for t in markov.enumerate_triples(SINGLE_BALL_MAX):
        # One ball per Markov number p >= 2: the ball of the triple's maximum.
        if t.c >= 2 and t.b < t.c:
            ball = next(b for b in markov.ball_params(t) if b.p == t.c)
            problem = obstruction.build_problem([ball])
            ops.append(_obstruction_op(str(ball), problem, limits, False))
    return ops


# ---------------------------------------------------------------------------
# CLI workload


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _markov_triples(bound: int) -> set:
    """Markov triples with maximum <= bound, by an independent Vieta walk."""
    seen, todo = set(), [(1, 1, 1)]
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        for i in range(3):
            y, z = (t[j] for j in range(3) if j != i)
            n = tuple(sorted((y, z, 3 * y * z - t[i])))
            if n[2] <= bound:
                todo.append(n)
    return seen


def _ints(xs) -> list[int]:
    return [int(x) for x in xs]


def _check_cli(name: str, doc: dict) -> str | None:
    if name == "markov_list":
        got = [tuple(_ints(t)) for t in doc["triples"]]
        if got != sorted(_markov_triples(1000)):
            return "markov list differs from the Markov triples below 1000"
    elif name == "ball_classify":
        # p = 5 has the single triple (1, 2, 5) with u = 2, so only q = +-3u = +-1
        # embeds symplectically.
        if doc["symplectic"] is not False:
            return "B(5,2) reported symplectic"
    elif name == "cf_expand":
        coeffs = _ints(doc["coefficients"])
        value = Fraction(coeffs[-1])
        for a in reversed(coeffs[:-1]):
            value = a - 1 / value
        if value != Fraction(9, 7) or min(coeffs) < 2:
            return f"expansion {coeffs} does not evaluate to 9/7"
    elif name == "plumbing_certify":
        start, final = _ints(doc["start"]), _ints(doc["final"])
        if int(doc["blowdowns"]) != len(start) - len(final) or int(doc["b2"]) != len(start):
            return "blow-down certificate counts are inconsistent"
    elif doc.get("verdict") != "OBSTRUCTED":
        return f"{name}: verdict {doc.get('verdict')}, expected OBSTRUCTED"
    return None


def _cli_op(name: str, argv: tuple) -> Op:
    env = child_env()
    cli_args = ("--format", "json") + argv

    def run(traced: bool) -> Outcome:
        spans = []
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"child-{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(spans_path), *cli_args]
        else:
            cmd = [sys.executable, "-m", "ballobs.cli", *cli_args]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        error = None
        if proc.returncode != 0:
            error = f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        else:
            try:
                error = _check_cli(name, json.loads(proc.stdout))
            except (ValueError, KeyError, TypeError) as exc:
                error = f"{name}: unreadable output ({exc})"
        return Outcome(proc.returncode == 0, (proc.returncode, proc.stdout), error, spans)
    return Op(name, run)


def build_cli() -> list[Op]:
    import ballobs.cli  # noqa: F401  (set-up cost the CLI user pays on every call)
    return [_cli_op(name, argv) for name, argv in CLI_COMMANDS]


WORKLOADS = {
    "obstructed": Workload("obstructed", OBSTRUCTED_BUDGET, build_obstructed),
    "witness": Workload("witness", WITNESS_BUDGET, build_witness),
    "cli-cold": Workload("cli-cold", None, build_cli),
}
