"""Command-line interface.

Subcommands mirror the library: Markov-tree queries, continued fractions,
plumbing reduction, lattice class enumeration, and obstruction reports.
Each handler returns (document, text lines, exit code), the document built
from plain values: ints, tuples, bools, None and strings.  ``main`` alone
writes stdout: the document through :func:`ballobs.errors.document_values`,
which writes every integer as a decimal string, or the lines, as
``--format`` asks.  Diagnostics go to stderr.

Search budgets come from ``--node-budget`` and ``--time-budget`` alone.
``main`` turns them into one ``SearchLimits``, stored as ``args.limits``,
before any handler runs, so a bad budget is a usage error for every command.

Exit codes: 0 computed, 1 usage error, 2 budget exhausted (INCONCLUSIVE),
3 internal consistency failure.

The search modules, ``lattice`` and ``obstruction``, are imported inside the
handlers that use them, so the commands that never search do not pay for
loading them.  Records, such as a ``ClassSummary`` or a
``BlowdownCertificate``, enter a document through ``_asdict()``.

Under ``--timings`` every handler that searches (``obstruct``, ``verify`` and
``lattice classes``) times its whole check, search, complements and witness
re-verification, but not the loading of numpy, and writes it as
``elapsed_ms``: in a report's statistics, else as the document's last key.

``main`` limits OpenBLAS to one thread before any handler can load numpy,
and restores the variable on return for the caller's children and later
readers.  numpy loaded during an in-process ``main`` call keeps one BLAS
thread for the rest of that process; the library functions, called
directly, leave numpy's default.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import contfrac, markov, plumbing
from .errors import (DEFAULT_NODE_BUDGET, InternalCheckError, LimitExceeded, SearchLimits,
                     UsageError, document_values)

_NEGATIVE_NUMBER = re.compile(r"^-\d")
_BUDGET_OPTIONS = ("--node-budget", "--time-budget")


def _int(text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _int_list(text: str, what: str) -> tuple[int, ...]:
    items = text.split(",")
    if "" in items:
        raise UsageError(f"{what} must be a comma-separated integer list, got {text!r}")
    return tuple(_int(s, what) for s in items)


def _fmt_ints(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_markov_list(args) -> tuple[dict, list[str], int]:
    triples = markov.enumerate_triples(args.max)
    doc = {"schema": "markov-list@1", "bound": args.max,
           "triples": [t.entries for t in triples]}
    return doc, [str(t) for t in triples], 0


def cmd_markov_char(args) -> tuple[dict, list[str], int]:
    t = markov.triple(args.p, args.a, args.b)
    u = markov.characteristic_number(t)
    doc = {"schema": "markov-char@1", "triple": t.entries, "u": u}
    return doc, [str(u)], 0


def cmd_ball_classify(args) -> tuple[dict, list[str], int]:
    ball = markov.BallSpec(args.p, args.q)
    verdict = markov.classify_symplectic(ball)
    w = verdict.witness
    doc = {"schema": "ball-classify@1", "p": ball.p, "q": ball.q,
           "symplectic": verdict.symplectic,
           "witness": None if w is None else w.entries}
    text = f"symplectic, witness {w}" if verdict.symplectic else "not symplectic"
    return doc, [f"{ball}: {text}"], 0


def cmd_ball_boundary(args) -> tuple[dict, list[str], int]:
    big_p, big_q = contfrac.ball_boundary(markov.BallSpec(args.p, args.q))
    doc = {"schema": "lens-space@1", "p": big_p, "q": big_q}
    return doc, [f"L({big_p},{big_q})"], 0


def cmd_ball_plumbing(args) -> tuple[dict, list[str], int]:
    weights = contfrac.ball_plumbing(markov.BallSpec(args.p, args.q))
    doc = {"schema": "plumbing-weights@1", "weights": weights}
    return doc, [f"[{_fmt_ints(weights)}]"], 0


def cmd_cf_expand(args) -> tuple[dict, list[str], int]:
    e = contfrac.hj_expand(args.p, args.q)
    doc = {"schema": "hj-expansion@1", "coefficients": e}
    return doc, [f"[{_fmt_ints(e)}]"], 0


def cmd_cf_eval(args) -> tuple[dict, list[str], int]:
    frac = contfrac.hj_eval(_int_list(args.coefficients, "coefficients"))
    doc = {"schema": "fraction@1",
           "numerator": frac.numerator, "denominator": frac.denominator}
    return doc, [f"{frac.numerator}/{frac.denominator}"], 0


def cmd_cf_fib_identities(args) -> tuple[dict, list[str], int]:
    first, second = contfrac.fibonacci_identities(args.n)
    v1 = contfrac.hj_eval(first)
    v2 = contfrac.hj_eval(second)
    doc = {
        "schema": "fibonacci-identities@1",
        "n": args.n,
        "first": {"coefficients": first,
                  "numerator": v1.numerator, "denominator": v1.denominator},
        "second": {"coefficients": second,
                   "numerator": v2.numerator, "denominator": v2.denominator},
    }
    hi, lo = 2 * args.n + 1, 2 * args.n - 1
    lines = [f"F({hi})/F({lo}) = {v1.numerator}/{v1.denominator} = [{_fmt_ints(first)}]",
             f"F({hi})^2/(F({hi})*F({lo})-1) = {v2.numerator}/{v2.denominator} "
             f"= [{_fmt_ints(second)}]"]
    return doc, lines, 0


def cmd_lattice_classes(args) -> tuple[dict, list[str], int]:
    from . import obstruction
    weights = _int_list(args.weights, "weights")
    return _classes_output(*_timed(args, obstruction.classify_chain, weights, args.ambient))


def cmd_plumbing_reduce(args) -> tuple[dict, list[str], int]:
    chain = _int_list(args.weights, "weights")
    final, count = plumbing.reduce(chain)
    doc = {"schema": "blowdown@1", "start": chain, "final": final, "blowdowns": count}
    return doc, [f"({_fmt_ints(final)}) after {count} blowdowns"], 0


def cmd_plumbing_certify(args) -> tuple[dict, list[str], int]:
    cert = plumbing.simple_embedding_certificate(args.n)
    doc = {"schema": "blowdown-certificate@1", "n": args.n, **cert._asdict()}
    return doc, [f"chain ({_fmt_ints(cert.start)}) reduces to ({_fmt_ints(cert.final)}) "
                 f"after {cert.blowdowns} blowdowns; b2={cert.b2}"], 0


def _timed(args, check, *check_args):
    # ``check(*check_args)`` under the run's limits, and under --timings its
    # wall time in whole milliseconds, else None.  The check searches, so the
    # search kernel, and numpy with it, is loaded before the clock starts:
    # in a fresh process the time is the check's, not the import's.
    from . import kernels  # noqa: F401
    start = time.monotonic()
    result = check(*check_args, limits=args.limits)
    return result, int((time.monotonic() - start) * 1000) if args.timings else None


def _obstruction_output(report, elapsed_ms) -> tuple[dict, list[str], int]:
    from . import obstruction
    balls = " ".join(str(b) for b in report.problem.balls)
    s = report.statistics
    lines = [f"{balls}: {report.verdict} "
             f"(classes={s.classes}, leaves={s.leaves}, nodes={s.nodes})"]
    lines += [f"  class {i}: index {r.index}, generator zeros ({_fmt_ints(r.generator_zeros)}), "
              f"missed ({_fmt_ints(r.missed)})" for i, r in enumerate(report.records, 1)]
    lines += [f"  witness generator ({_fmt_ints(w.generator)})" for w in report.witnesses]
    code = 2 if report.verdict == obstruction.INCONCLUSIVE else 0
    return obstruction.report_to_doc(report, elapsed_ms), lines, code


def _classes_output(report, elapsed_ms) -> tuple[dict, list[str], int]:
    doc = {
        "schema": "lattice-classes@1",
        "weights": report.weights,
        "ambient": report.ambient,
        "class_count": report.class_count,
        "classes": [{"matrix": cls.matrix, **c._asdict()}
                    for cls, c in zip(report.classes, report.summaries)],
    }
    if elapsed_ms is not None:
        doc["elapsed_ms"] = elapsed_ms
    lines = [f"{report.class_count} classes of Lambda({_fmt_ints(report.weights)}) "
             f"in Z^{report.ambient}"]
    for i, c in enumerate(report.summaries, start=1):
        extra = "" if c.complement_norm is None else f", generator norm {c.complement_norm}"
        lines.append(f"class {i}: support {c.support}, complement rank {c.complement_rank}{extra}")
    return doc, lines, 0


def cmd_obstruct(args) -> tuple[dict, list[str], int]:
    from . import obstruction
    balls = []
    for text in args.balls:
        pq = _int_list(text, "ball")
        if len(pq) != 2:
            raise UsageError(f"ball must be two comma-separated integers, got {text!r}")
        balls.append(markov.BallSpec(*pq))
    problem = obstruction.build_problem(balls)
    return _obstruction_output(*_timed(args, obstruction.check_obstruction, problem))


def cmd_verify_example_b31(args) -> tuple[dict, list[str], int]:
    from . import obstruction
    problem = obstruction.build_problem([markov.BallSpec(3, 1)])
    report, elapsed_ms = _timed(args, obstruction.check_obstruction, problem)
    doc, lines, code = _obstruction_output(report, elapsed_ms)
    # The paper's example: one class, and both factors miss a unit vector.
    records = report.records
    if code == 0 and not (report.verdict == obstruction.OBSTRUCTED and len(records) == 1
                          and records[0].generator_zeros and records[0].missed):
        print("expected OBSTRUCTED by one class that misses both factors", file=sys.stderr)
        code = 3
    return doc, lines, code


def cmd_verify_lemma_cemb(args) -> tuple[dict, list[str], int]:
    from . import obstruction
    report, elapsed_ms = _timed(args, obstruction.lemma_cemb_report, args.n, args.m)
    doc, lines, code = _classes_output(report, elapsed_ms)
    # lemma_cemb_report's promise: the three-support family, and at n = 2
    # no other class.
    n, r, summaries = args.n, 2 * args.n + 1, report.summaries
    family = {(r, 0, None), (r + 1, 1, markov.odd_fibonacci(n + 1) ** 2)}
    if not (family <= set(summaries) and any(c.support == 4 * n for c in summaries)
            and (n > 2 or report.class_count == 3)):
        print("expected classes of supports 2n+1, 2n+2 (norm F(2n+1)^2) and 4n, "
              "and at n = 2 no other", file=sys.stderr)
        code = 3
    return doc, lines, code


def cmd_verify_theorem2(args) -> tuple[dict, list[str], int]:
    from . import obstruction
    from .lattice import MAX_AMBIENT
    # fibonacci_ball(k)'s bigint loop grows with the square of k, so each
    # index is checked before it runs.  The k-th ball's plumbing has 2k+1
    # vertices: above MAX_AMBIENT it cannot fit, and build_problem refuses
    # the rest.
    if max(args.k, args.n) > MAX_AMBIENT:
        raise UsageError(f"ambient rank exceeds the supported maximum {MAX_AMBIENT}")
    problem = obstruction.build_problem([markov.fibonacci_ball(args.k),
                                         markov.fibonacci_ball(args.n)])
    doc, lines, code = _obstruction_output(*_timed(args, obstruction.check_obstruction, problem))
    if doc["verdict"] == obstruction.NOT_OBSTRUCTED:
        print("unexpected witness for a pair of consecutive-Fibonacci balls", file=sys.stderr)
        code = 3
    return doc, lines, code


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballobs",
        description="Markov triples, continued fractions, plumbing calculus and "
                    "lattice-embedding obstructions for rational balls")
    parser.add_argument("--format", choices=("text", "json"), default=None,
                        help="output format (default: text; obstruct/verify default to json)")
    parser.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET, metavar="N",
                        help="search node budget (default: %(default)s)")
    parser.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                        help="search wall-clock budget (default: none)")
    parser.add_argument("--timings", action="store_true",
                        help="include elapsed times in JSON output (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_markov = sub.add_parser("markov", help="Markov triple arithmetic")
    markov_sub = p_markov.add_subparsers(dest="subcommand", required=True)
    p = markov_sub.add_parser("list", help="triples with maximum entry below a bound")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.set_defaults(func=cmd_markov_list)
    p = markov_sub.add_parser("char", help="characteristic number of a triple")
    p.add_argument("p", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_markov_char)

    p_ball = sub.add_parser("ball", help="rational ball B(p, q) queries")
    ball_sub = p_ball.add_subparsers(dest="subcommand", required=True)
    for name, func, text in (
            ("classify", cmd_ball_classify, "symplectic embeddability of B(p, q)"),
            ("boundary", cmd_ball_boundary, "lens-space boundary of B(p, q)"),
            ("plumbing", cmd_ball_plumbing, "positive plumbing weights for B(p, q)")):
        p = ball_sub.add_parser(name, help=text)
        p.add_argument("p", type=int)
        p.add_argument("q", type=int)
        p.set_defaults(func=func)

    p_cf = sub.add_parser("cf", help="Hirzebruch-Jung continued fractions")
    cf_sub = p_cf.add_subparsers(dest="subcommand", required=True)
    p = cf_sub.add_parser("expand", help="expansion of p/q with coefficients >= 2")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_cf_expand)
    p = cf_sub.add_parser("eval", help="evaluate a comma-separated expansion")
    p.add_argument("coefficients")
    p.set_defaults(func=cmd_cf_eval)
    p = cf_sub.add_parser("fib-identities", help="odd-Fibonacci expansion pair at n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_cf_fib_identities)

    p_lat = sub.add_parser("lattice", help="integer lattice embeddings")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    p = lat_sub.add_parser("classes", help="embedding classes of a chain lattice")
    p.add_argument("--weights", required=True, metavar="W1,W2,...")
    p.add_argument("--ambient", type=int, required=True, metavar="M")
    p.set_defaults(func=cmd_lattice_classes)

    p_pl = sub.add_parser("plumbing", help="linear plumbing blow-down calculus")
    pl_sub = p_pl.add_subparsers(dest="subcommand", required=True)
    p = pl_sub.add_parser("reduce", help="blow down all -1 vertices")
    p.add_argument("weights", metavar="W1,W2,...")
    p.set_defaults(func=cmd_plumbing_reduce)
    p = pl_sub.add_parser("certify", help="reduce the rational-blow-up chain at n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_plumbing_certify)

    p = sub.add_parser("obstruct", help="embedding obstruction for a list of balls")
    p.add_argument("balls", nargs="+", metavar="P,Q")
    p.set_defaults(func=cmd_obstruct, default_format="json")

    p_verify = sub.add_parser("verify", help="packaged verification runs")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("example-b31",
                              help="obstruct 3,1: B(3,1)'s one class misses both factors")
    p.set_defaults(func=cmd_verify_example_b31, default_format="json")
    p = verify_sub.add_parser("lemma-cemb", help="chain lattice classification at (n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_verify_lemma_cemb, default_format="json")
    p = verify_sub.add_parser("theorem2",
                              help="two consecutive-Fibonacci balls cannot embed disjointly")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_verify_theorem2, default_format="json")

    return parser


def _protect_negative_numbers(argv: list[str]) -> list[str]:
    """Insert '--' before the first negative-number-like token.

    Lets ``plumbing reduce -3,-2,-1,-2`` parse without quoting; explicit '--'
    is honoured as usual.  A negative value of a budget option is joined to
    it instead (``--time-budget=-1``), so that budget validation rejects it.
    """
    if "--" in argv:
        return argv
    out: list[str] = []
    for i, tok in enumerate(argv):
        if _NEGATIVE_NUMBER.match(tok):
            if out and out[-1] in _BUDGET_OPTIONS:
                out[-1] += "=" + tok
                continue
            return out + ["--"] + argv[i:]
        out.append(tok)
    return out


def main(argv=None) -> int:
    # ballobs makes no BLAS call (its arrays are integer arrays), but OpenBLAS
    # starts a spinning worker per extra core when numpy loads: a cold
    # `obstruct 3,1` took 243 ms with it and 168 ms without (median of 16
    # rounds, 2-core x86_64 guest).  Assigned, not defaulted: no value helps.
    # Restored on return, for the children and later readers of an in-process
    # caller; numpy loaded during the call keeps one BLAS thread for the rest
    # of that process.
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return _run(argv)
    finally:
        if saved is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def _run(argv) -> int:
    argv = _protect_negative_numbers(list(sys.argv[1:] if argv is None else argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.limits = SearchLimits(args.node_budget, args.time_budget)
        doc, lines, code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    fmt = args.format or getattr(args, "default_format", "text")
    print(json.dumps(document_values(doc), indent=2) if fmt == "json" else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
