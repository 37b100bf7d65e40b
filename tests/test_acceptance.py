"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; the
disjoint-pair (6,6) search (rank 26, 6,684 nodes, about 0.6 s), the longest
search in the suite, carries the ``slow`` marker and can be skipped with
``-m 'not slow'``.
"""

import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from ballobs import contfrac, markov, obstruction, plumbing
from ballobs.lattice import linear_lattice, orthogonal_complement, search_embedding_classes
from test_obstruction import fib_pair_report, full_embedding_classes
from test_plumbing import abs_det


def _line(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def quadratic_markov_scan(bound):
    """Independent enumeration oracle: solve the Markov equation for c."""
    out = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            disc = 9 * a * a * b * b - 4 * (a * a + b * b)
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in (3 * a * b - r, 3 * a * b + r):
                if num % 2 == 0 and b <= num // 2 <= bound:
                    out.add((a, b, num // 2))
    return sorted(out)


def test_criterion_1_markov_enumeration():
    triples = markov.enumerate_triples(1000)
    maxima = {t.c for t in triples}
    expected_maxima = {1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985}
    oracle = quadratic_markov_scan(1000)
    ok = maxima == expected_maxima and [t.entries for t in triples] == oracle
    assert _line(1, "markov enumeration to 1000", ok)


def test_criterion_2_characteristic_numbers():
    start = time.monotonic()
    failures = []
    for t in markov.enumerate_triples(10 ** 4):
        if t.c <= 2:
            continue
        u = markov.characteristic_number(t)
        if (u * u + 1) % t.c != 0:
            failures.append(t)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10
    assert _line(2, "characteristic numbers to 10^4", ok), (failures, elapsed)


def test_criterion_3_symplectic_classification():
    start = time.monotonic()
    main_ok = all(markov.classify_symplectic(markov.fibonacci_ball(n)).symplectic == (n == 1)
                  for n in range(1, 9))
    companions_ok = all(
        markov.classify_symplectic(
            markov.BallSpec(markov.odd_fibonacci(n + 1), markov.odd_fibonacci(n - 1))).symplectic
        for n in range(2, 9))
    elapsed = time.monotonic() - start
    ok = main_ok and companions_ok and elapsed < 30
    assert _line(3, "symplectic classification n=1..8", ok), elapsed


def test_criterion_4_continued_fraction_identities():
    pairs_ok = True
    for n in range(2, 13):
        first, second = contfrac.fibonacci_identities(n)
        lo, hi = markov.odd_fibonacci(n), markov.odd_fibonacci(n + 1)
        pairs_ok &= contfrac.hj_eval(first) == Fraction(hi, lo)
        pairs_ok &= contfrac.hj_eval(second) == Fraction(hi * hi, hi * lo - 1)
    with pytest.raises(Exception):
        contfrac.fibonacci_identities(1)
    round_trip_ok = True
    for p in range(2, 501):
        for q in range(1, p):
            if gcd(p, q) == 1:
                round_trip_ok &= contfrac.hj_eval(contfrac.hj_expand(p, q)) == Fraction(p, q)
    assert _line(4, "continued fraction identities", pairs_ok and round_trip_ok)


def test_criterion_5_single_ball_b31():
    start = time.monotonic()
    lat = linear_lattice((9,), (2, 2, 2, 3))
    classes = search_embedding_classes(lat, 5).classes
    report = obstruction.check_obstruction(
        obstruction.build_problem([markov.BallSpec(3, 1)]))
    elapsed = time.monotonic() - start
    ok = len(classes) == 1 and report.verdict == obstruction.OBSTRUCTED and elapsed < 5
    assert _line(5, "single ball B(3,1)", ok), elapsed


def test_criterion_6_chain_classification():
    l222 = linear_lattice((2, 2, 2))
    ok = True
    for m in (4, 5, 6, 7):
        classes = search_embedding_classes(l222, m).classes
        ok &= len(classes) == 2
        rank4 = [c for c in classes if len(c.support) == 4]
        ok &= len(rank4) == 1
        sup = rank4[0].support
        gen = orthogonal_complement(
            tuple(tuple(row[j] for j in sup) for row in rank4[0].matrix), len(sup))
        ok &= sum(x * x for x in gen) == 4
    for m in (8, 9):
        rep = obstruction.lemma_cemb_report(2, m)
        ok &= rep.class_count == 3
        ok &= rep.summaries == ((6, 1, 25), (5, 0, None), (8, 3, None))
    assert _line(6, "chain classification n=2", ok)


def test_criterion_6_chain_classification_n3_slow():
    # At n = 3 the chain lattice has five classes: the three-support family
    # (supports r, r+1 and 4n, as at n = 2) and two more with supports 9 and 11
    # (hand-checked in tests/test_lattice.py).  Support size is invariant under
    # signed permutations, so five is a lower bound whether or not the search
    # is complete.  docs/decisions.md has the matrices and the analysis.
    # Per support: complement (rank, rank-one norm).
    rep = obstruction.lemma_cemb_report(3, 12)
    family = {7: (0, None), 8: (1, 169), 12: (5, None)}
    extras = {9: (2, None), 11: (4, None)}
    expected = {obstruction.ClassSummary(sup, rank, norm)
                for sup, (rank, norm) in {**family, **extras}.items()}
    ok = (not rep.statistics.limit_hit and rep.class_count == 5
          and set(rep.summaries) == expected
          and rep.statistics.leaves == rep.statistics.classes)
    assert _line("6-slow", "chain classification n=3", ok), (
        f"{rep.class_count} classes {rep.summaries}, {rep.statistics}")


def test_criterion_7_disjoint_pairs():
    reports = [fib_pair_report(*pair) for pair in ((1, 2), (1, 3), (2, 2))]
    ok = all(r.verdict == obstruction.OBSTRUCTED and not r.statistics.limit_hit
             and r.statistics.leaves > 0 for r in reports)
    for balls in ([markov.BallSpec(2, 1)], [markov.BallSpec(5, 2)]):
        rep = obstruction.check_obstruction(obstruction.build_problem(balls))
        ok &= rep.verdict == obstruction.NOT_OBSTRUCTED and len(rep.witnesses) >= 1
        for w in rep.witnesses:
            obstruction.verify_witness(rep.problem, w)
    assert _line(7, "disjoint pairs and positive controls", ok)


def test_criterion_7_disjoint_pair_23_slow():
    rep = fib_pair_report(2, 3)
    ok = (rep.verdict == obstruction.OBSTRUCTED and not rep.statistics.limit_hit
          and rep.statistics.leaves > 0)
    assert _line("7-slow", "disjoint pair (2,3)", ok)


def test_criterion_7_disjoint_pair_55_slow():
    rep = fib_pair_report(5, 5)
    ok = (rep.problem.ambient == 23 and rep.verdict == obstruction.OBSTRUCTED
          and not rep.statistics.limit_hit and rep.statistics.leaves > 0)
    assert _line("7-slow", "disjoint pair (5,5)", ok)


@pytest.mark.slow
def test_criterion_7_disjoint_pair_66_slow():
    rep = fib_pair_report(6, 6)
    s = rep.statistics
    ok = (rep.problem.ambient == 27 and rep.verdict == obstruction.OBSTRUCTED
          and not s.limit_hit and s.nodes == 6684 and s.leaves == s.classes > 0)
    assert _line("7-slow", "disjoint pair (6,6)", ok)


def test_criterion_8_plumbing_certificates():
    ok = True
    for n in range(2, 13):
        cert = plumbing.simple_embedding_certificate(n)
        ok &= cert.final == (-3, 0) and cert.blowdowns == 2 * n - 2
    # reduce keeps |det| on random chains.
    rng = random.Random(8128)
    for _ in range(1000):
        chain = tuple(rng.randrange(-5, 3) for _ in range(rng.randrange(1, 9)))
        ok &= abs_det(plumbing.reduce(chain)[0]) == abs_det(chain)
    assert _line(8, "plumbing certificates and determinant fuzz", ok)


def test_criterion_9_strategy_equivalence():
    ok = True
    for balls in ([markov.BallSpec(3, 1)], [markov.BallSpec(2, 1)]):
        pr = obstruction.build_problem(balls)
        lat_full = linear_lattice((pr.m_norm,), *pr.components)
        by_direct = search_embedding_classes(lat_full, pr.ambient).classes
        ok &= (full_embedding_classes(pr)
               == tuple(cls.matrix for cls in by_direct))
    assert _line(9, "complement route vs direct-sum enumeration", ok)
