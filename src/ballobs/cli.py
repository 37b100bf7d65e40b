"""Command-line interface.

Subcommands mirror the library: Markov-tree queries, continued fractions,
plumbing reduction, lattice class enumeration, and obstruction reports.
Structured output is a single JSON document on stdout with every integer
rendered as a decimal string; diagnostics go to stderr.

Exit codes: 0 computed, 1 usage error, 2 budget exhausted (INCONCLUSIVE),
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from . import contfrac, markov, obstruction, plumbing
from .errors import InternalCheckError, LimitExceeded, UsageError
from .lattice import (SearchLimits, enumerate_embedding_classes,
                      linear_lattice, orthogonal_complement)
from .obstruction import _s

NODE_BUDGET_ENV = "BALLOBS_NODE_BUDGET"
TIME_BUDGET_ENV = "BALLOBS_TIME_BUDGET"

_NEGATIVE_NUMBER = re.compile(r"^-\d")
_BUDGET_OPTIONS = ("--node-budget", "--time-budget")


@dataclass(frozen=True)
class RunConfig:
    """Budgets and output options resolved from flags and environment."""

    limits: SearchLimits
    fmt: str
    timings: bool


def _resolve_config(args) -> RunConfig:
    node = args.node_budget
    if node is None:
        env = os.environ.get(NODE_BUDGET_ENV)
        try:
            node = int(env) if env else SearchLimits().node_budget
        except ValueError:
            raise UsageError(f"{NODE_BUDGET_ENV} must be an integer, got {env!r}") from None
    time_budget = args.time_budget
    if time_budget is None:
        env = os.environ.get(TIME_BUDGET_ENV)
        try:
            time_budget = float(env) if env else None
        except ValueError:
            raise UsageError(f"{TIME_BUDGET_ENV} must be a number, got {env!r}") from None
    limits = SearchLimits(node_budget=node, time_budget=time_budget)
    fmt = args.format or getattr(args, "default_format", "text")
    return RunConfig(limits, fmt, args.timings)


def _int(text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _int_list(text: str, what: str) -> tuple[int, ...]:
    items = [s for s in text.split(",") if s != ""]
    if not items:
        raise UsageError(f"{what} must be a comma-separated integer list, got {text!r}")
    return tuple(_int(s, what) for s in items)


def _pair(text: str, what: str) -> tuple[int, int]:
    vals = _int_list(text, what)
    if len(vals) != 2:
        raise UsageError(f"{what} must be two comma-separated integers, got {text!r}")
    return vals


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _fmt_ints(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_markov_list(args, cfg: RunConfig) -> int:
    triples = markov.enumerate_triples(args.max)
    if cfg.fmt == "json":
        _emit_json({
            "schema": "markov-list@1",
            "bound": _s(args.max),
            "triples": [[_s(t.a), _s(t.b), _s(t.c)] for t in triples],
        })
    else:
        for t in triples:
            print(t)
    return 0


def cmd_markov_char(args, cfg: RunConfig) -> int:
    t = markov.triple(args.p, args.a, args.b)
    u = markov.characteristic_number(t)
    if cfg.fmt == "json":
        _emit_json({"schema": "markov-char@1",
                    "triple": [_s(t.a), _s(t.b), _s(t.c)], "u": _s(u)})
    else:
        print(u)
    return 0


def cmd_ball_classify(args, cfg: RunConfig) -> int:
    ball = markov.BallSpec(args.p, args.q)
    bound = args.search_bound if args.search_bound is not None else ball.p
    verdict = markov.classify_symplectic(ball, bound)
    if cfg.fmt == "json":
        doc = {"schema": "ball-classify@1", "p": _s(ball.p), "q": _s(ball.q),
               "symplectic": verdict.symplectic,
               "witness": None if verdict.witness is None else
               [_s(verdict.witness.a), _s(verdict.witness.b), _s(verdict.witness.c)]}
        _emit_json(doc)
    elif verdict.symplectic:
        print(f"{ball}: symplectic, witness {verdict.witness}")
    else:
        print(f"{ball}: not symplectic")
    return 0


def cmd_ball_boundary(args, cfg: RunConfig) -> int:
    ball = markov.BallSpec(args.p, args.q)
    big_p, big_q = obstruction.ball_boundary(ball)
    if cfg.fmt == "json":
        _emit_json({"schema": "lens-space@1", "p": _s(big_p), "q": _s(big_q)})
    else:
        print(f"L({big_p},{big_q})")
    return 0


def cmd_ball_plumbing(args, cfg: RunConfig) -> int:
    ball = markov.BallSpec(args.p, args.q)
    weights = obstruction.ball_plumbing(ball)
    if cfg.fmt == "json":
        _emit_json({"schema": "plumbing-weights@1", "weights": [_s(w) for w in weights]})
    else:
        print(f"[{_fmt_ints(weights)}]")
    return 0


def cmd_cf_expand(args, cfg: RunConfig) -> int:
    e = contfrac.hj_expand(args.p, args.q)
    if cfg.fmt == "json":
        _emit_json({"schema": "hj-expansion@1", "coefficients": [_s(a) for a in e]})
    else:
        print(f"[{_fmt_ints(e)}]")
    return 0


def cmd_cf_eval(args, cfg: RunConfig) -> int:
    frac = contfrac.hj_eval(_int_list(args.coefficients, "coefficients"))
    if cfg.fmt == "json":
        _emit_json({"schema": "fraction@1",
                    "numerator": _s(frac.numerator), "denominator": _s(frac.denominator)})
    else:
        print(f"{frac.numerator}/{frac.denominator}")
    return 0


def cmd_cf_fib_identities(args, cfg: RunConfig) -> int:
    n = args.n
    first, second = contfrac.fibonacci_identities(n)
    v1 = contfrac.hj_eval(first)
    v2 = contfrac.hj_eval(second)
    if cfg.fmt == "json":
        _emit_json({
            "schema": "fibonacci-identities@1",
            "n": _s(n),
            "first": {"coefficients": [_s(a) for a in first],
                      "numerator": _s(v1.numerator), "denominator": _s(v1.denominator)},
            "second": {"coefficients": [_s(a) for a in second],
                       "numerator": _s(v2.numerator), "denominator": _s(v2.denominator)},
        })
    else:
        hi, lo = 2 * n + 1, 2 * n - 1
        print(f"F({hi})/F({lo}) = {v1.numerator}/{v1.denominator} = [{_fmt_ints(first)}]")
        print(f"F({hi})^2/(F({hi})*F({lo})-1) = {v2.numerator}/{v2.denominator} "
              f"= [{_fmt_ints(second)}]")
    return 0


def cmd_lattice_classes(args, cfg: RunConfig) -> int:
    weights = _int_list(args.weights, "weights")
    lat = linear_lattice(weights)
    classes = enumerate_embedding_classes(lat, args.ambient, limits=cfg.limits)
    rows = []
    for cls in classes:
        sup = cls.support
        restricted = tuple(tuple(row[j] for j in sup) for row in cls.matrix)
        comp = orthogonal_complement(restricted, len(sup))
        rows.append((cls, len(sup), comp.rank,
                     comp.generator_norm if comp.rank == 1 else None))
    if cfg.fmt == "json":
        _emit_json({
            "schema": "lattice-classes@1",
            "weights": [_s(w) for w in weights],
            "ambient": _s(args.ambient),
            "class_count": _s(len(classes)),
            "classes": [
                {"matrix": [[_s(x) for x in row] for row in cls.matrix],
                 "support": _s(sup),
                 "complement_rank": _s(crank),
                 "complement_norm": None if cnorm is None else _s(cnorm)}
                for cls, sup, crank, cnorm in rows
            ],
        })
    else:
        print(f"{len(classes)} classes of Lambda({_fmt_ints(weights)}) in Z^{args.ambient}")
        for i, (cls, sup, crank, cnorm) in enumerate(rows, start=1):
            extra = f", generator norm {cnorm}" if cnorm is not None else ""
            print(f"class {i}: support {sup}, complement rank {crank}{extra}")
    return 0


def cmd_plumbing_reduce(args, cfg: RunConfig) -> int:
    chain = _int_list(args.weights, "weights")
    final, count = plumbing.reduce(chain)
    if cfg.fmt == "json":
        _emit_json({"schema": "blowdown@1",
                    "start": [_s(w) for w in chain],
                    "final": [_s(w) for w in final],
                    "blowdowns": _s(count)})
    else:
        print(f"({_fmt_ints(final)}) after {count} blowdowns")
    return 0


def cmd_plumbing_certify(args, cfg: RunConfig) -> int:
    cert = plumbing.simple_embedding_certificate(args.n)
    if cfg.fmt == "json":
        _emit_json({"schema": "blowdown-certificate@1",
                    "n": _s(args.n),
                    "start": [_s(w) for w in cert.start],
                    "final": [_s(w) for w in cert.final],
                    "blowdowns": _s(cert.blowdowns),
                    "b2": _s(cert.b2)})
    else:
        print(f"chain ({_fmt_ints(cert.start)}) reduces to ({_fmt_ints(cert.final)}) "
              f"after {cert.blowdowns} blowdowns; b2={cert.b2}")
    return 0


def _print_obstruction(report, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        _emit_json(obstruction.report_to_doc(report, include_timing=cfg.timings))
        return
    balls = " ".join(str(b) for b in report.problem.balls)
    s = report.statistics
    print(f"{balls}: {report.verdict} "
          f"(classes={s.classes}, leaves={s.leaves}, nodes={s.nodes})")
    for w in report.witnesses:
        print(f"  witness generator ({_fmt_ints(w.generator)})")


def _obstruction_exit(report) -> int:
    return 2 if report.verdict == obstruction.INCONCLUSIVE else 0


def cmd_obstruct(args, cfg: RunConfig) -> int:
    balls = [markov.BallSpec(*_pair(s, "ball")) for s in args.balls]
    problem = obstruction.build_problem(balls)
    report = obstruction.check_obstruction(problem, limits=cfg.limits)
    _print_obstruction(report, cfg)
    return _obstruction_exit(report)


def cmd_verify_example_b31(args, cfg: RunConfig) -> int:
    report = obstruction.example_b31_report(limits=cfg.limits)
    if cfg.fmt == "json":
        _emit_json(obstruction.example_b31_to_doc(report))
    else:
        print(f"direct-sum classes in Z^5: {report.class_count}")
        print(f"verdict: {report.verdict}")
        print(f"unit vectors missing the rank-one factor: "
              f"{_fmt_ints(report.m_zero_pairings)}")
        print(f"unit vectors missing the chain factor: "
              f"{_fmt_ints(report.c_zero_pairings)}")
        print("passed" if report.passed else "FAILED")
    return 0 if report.passed else 3


def cmd_verify_lemma_cemb(args, cfg: RunConfig) -> int:
    report = obstruction.lemma_cemb_report(args.n, args.m, limits=cfg.limits)
    if cfg.fmt == "json":
        _emit_json(obstruction.lemma_report_to_doc(report))
    else:
        print(f"Lambda({_fmt_ints(report.weights)}) in Z^{report.ambient}: "
              f"{report.class_count} classes")
        for c in report.classes:
            norm = "-" if c.complement_norm is None else str(c.complement_norm)
            print(f"  support {c.support}: complement rank {c.complement_rank}, "
                  f"norm {norm}, unit vectors {'yes' if c.has_unit_vectors else 'no'}")
    return 0


def cmd_verify_theorem2(args, cfg: RunConfig) -> int:
    report = obstruction.theorem2_suite([(args.k, args.n)], limits=cfg.limits)[0]
    _print_obstruction(report, cfg)
    if report.verdict == obstruction.NOT_OBSTRUCTED:
        print("unexpected witness for a pair of consecutive-Fibonacci balls",
              file=sys.stderr)
        return 3
    return _obstruction_exit(report)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballobs",
        description="Markov triples, continued fractions, plumbing calculus and "
                    "lattice-embedding obstructions for rational balls")
    parser.add_argument("--format", choices=("text", "json"), default=None,
                        help="output format (default: text; obstruct/verify default to json)")
    parser.add_argument("--node-budget", type=int, default=None, metavar="N",
                        help=f"search node budget (env {NODE_BUDGET_ENV})")
    parser.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                        help=f"search wall-clock budget (env {TIME_BUDGET_ENV})")
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
    p = ball_sub.add_parser("classify", help="symplectic embeddability of B(p, q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--search-bound", type=int, default=None)
    p.set_defaults(func=cmd_ball_classify)
    p = ball_sub.add_parser("boundary", help="lens-space boundary of B(p, q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_ball_boundary)
    p = ball_sub.add_parser("plumbing", help="positive plumbing weights for B(p, q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_ball_plumbing)

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
                              help="B(3,1) is obstructed via the unique Z^5 embedding")
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
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _protect_negative_numbers(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
