import contextlib
import copy
import functools
import itertools
import json
import math
import operator
import random
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ballobs import kernels, lattice, obstruction
from ballobs.errors import InternalCheckError, UsageError
from ballobs.contfrac import ball_boundary, ball_plumbing
from ballobs.lattice import (MAX_AMBIENT, SearchLimits, canonical_form,
                             integer_kernel, is_isometric_embedding, is_positive_definite,
                             linear_lattice, orthogonal_complement, search_embedding_classes)
from ballobs.markov import BallSpec, ball_params, enumerate_triples, fibonacci_ball
from ballobs.obstruction import (INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED, REPORT_SCHEMA,
                                 ClassRecord, ObstructionProblem, Witness, build_problem,
                                 check_obstruction, classify_chain, lemma_cemb_report,
                                 report_from_doc,
                                 report_to_doc, verify_witness)
from test_exact_oracles import matrix_determinant
from test_lattice import support


def fib_pair_report(k, n, limits=None):
    """The report on the Fibonacci balls of indices k and n, the pair that
    ``verify theorem2 k n`` checks."""
    return check_obstruction(build_problem([fibonacci_ball(k), fibonacci_ball(n)]), limits)


def direct_sum_classes(problem):
    """Oracle: enumerate Lambda_M (+) Lambda_C in Z^m wholesale.

    Production never does this; it enumerates Lambda_C alone and reads
    Lambda_M off the rank-one complement.  Cost grows fast with m_norm
    (B(5,1)+B(13,2) exhausts memory), so keep the oracle to small problems.
    """
    lat_full = linear_lattice((problem.m_norm,), *problem.c_lattice.chains)
    return search_embedding_classes(lat_full, problem.ambient).classes


def full_embedding_classes(problem, limits=None):
    """Canonical classes of full Lambda_M (+) Lambda_C embeddings in Z^m,
    stacked on the classes of one Lambda_C search and their complement
    generators w: +c w and -c w, for c^2 w.w = m_norm, each on the rows of
    w's class (the two signs can canonicalise to different classes).  The
    bridge from the complement route to :func:`direct_sum_classes`."""
    m = problem.ambient
    fulls = set()
    for cls in search_embedding_classes(problem.c_lattice, m, limits=limits).classes:
        w = orthogonal_complement(cls, m)
        norm = sum(x * x for x in w)
        c = math.isqrt(problem.m_norm // norm)
        if c * c * norm == problem.m_norm:
            fulls.update(canonical_form((tuple(sign * c * x for x in w),) + cls)
                         for sign in (1, -1))
    return tuple(sorted(fulls))


def canonical_with_vector(rows, w):
    """Canonical form of ``rows`` with ``w`` carried through the same column
    signs and permutation.  The sort is stable, so identical columns keep
    their order."""
    cols = []
    for col, x in zip(zip(*rows), w):
        if next((y for y in col if y), 0) < 0:
            col, x = tuple(-y for y in col), -x
        cols.append((col, x))
    cols.sort(key=lambda c: c[0], reverse=True)
    canon = tuple(tuple(col[i] for col, _ in cols) for i in range(len(rows)))
    return canon, tuple(x for _, x in cols)


def direct_sum_witnesses(problem):
    """Oracle: the witnesses among the direct-sum classes, in the form
    ``check_obstruction`` reports them (canonical Lambda_C rows, generator
    carried into the same coordinates, first nonzero entry positive)."""
    m = problem.ambient
    witnesses = set()
    for cls in direct_sum_classes(problem):
        w = cls[0]
        c_rows = cls[1:]
        if not all(w):
            continue
        if not all(any(row[j] for row in c_rows) for j in range(m)):
            continue
        if math.gcd(*w) != 1:
            continue
        canon, gen = canonical_with_vector(c_rows, w)
        if next(x for x in gen if x) < 0:
            gen = tuple(-x for x in gen)
        witnesses.add(Witness(canon, gen))
    return tuple(sorted(witnesses, key=lambda wit: (wit.embedding, wit.generator)))


# (p, q) of each ball -> (verdict, witness count); all within the oracle's reach
ORACLE_PROBLEMS = {
    ((3, 1),): (OBSTRUCTED, 0),
    ((2, 1),): (NOT_OBSTRUCTED, 1),
    ((5, 2),): (NOT_OBSTRUCTED, 1),
    ((2, 1), (5, 2)): (OBSTRUCTED, 0),     # Fibonacci pair (1, 2)
    ((2, 1), (5, 1)): (NOT_OBSTRUCTED, 2),  # Markov triple (1, 2, 5)
}
ORACLE_BALLS = [[BallSpec(p, q) for p, q in key] for key in ORACLE_PROBLEMS]


def assert_index_fact(rep):
    """docs/decisions.md, "A witness is exactly a class of index 1": a
    record has s = 1 exactly when it is a witness's, and it misses at most
    one coordinate j, and then s^2 = m_norm and w = +-e_j is zero everywhere
    else."""
    m = rep.problem.ambient
    for r in rep.records:
        assert r.is_witness == (r.index == 1), r
        assert len(r.missed) <= 1, r
        if r.missed:
            assert r.index ** 2 == rep.problem.m_norm, r
            assert r.generator_zeros == tuple(j for j in range(1, m + 1) if j != r.missed[0]), r


class TestBallBoundary:
    @pytest.mark.parametrize("p, q, expected", [
        (3, 1, (9, 2)),
        (2, 1, (4, 1)),
        (5, 2, (25, 9)),
    ])
    def test_known_values(self, p, q, expected):
        assert ball_boundary(BallSpec(p, q)) == expected


class TestBallPlumbing:
    @pytest.mark.parametrize("p, q, expected", [
        (3, 1, (2, 2, 2, 3)),
        (2, 1, (2, 2, 2)),
        (5, 2, (2, 3, 2, 2, 3)),
        (13, 5, (2, 3, 3, 2, 2, 3, 3)),
    ])
    def test_known_values(self, p, q, expected):
        assert ball_plumbing(BallSpec(p, q)) == expected

    def test_weights_at_least_two(self):
        for p, q in [(3, 1), (7, 2), (11, 3), (13, 5)]:
            assert all(w >= 2 for w in ball_plumbing(BallSpec(p, q)))


class TestBuildProblem:
    def test_single_b31(self):
        pr = build_problem([BallSpec(3, 1)])
        assert pr.m_norm == 9
        assert pr.ambient == 5
        assert pr.c_lattice.chains == ((2, 2, 2, 3),)

    def test_pair(self):
        pr = build_problem([BallSpec(2, 1), BallSpec(5, 2)])
        assert pr.m_norm == 100
        assert pr.c_lattice.chains == ((2, 2, 2), (2, 3, 2, 2, 3))
        assert pr.ambient == 9
        assert pr.c_lattice.gram == (
            (2, -1, 0, 0, 0, 0, 0, 0),
            (-1, 2, -1, 0, 0, 0, 0, 0),
            (0, -1, 2, 0, 0, 0, 0, 0),
            (0, 0, 0, 2, -1, 0, 0, 0),
            (0, 0, 0, -1, 3, -1, 0, 0),
            (0, 0, 0, 0, -1, 2, -1, 0),
            (0, 0, 0, 0, 0, -1, 2, -1),
            (0, 0, 0, 0, 0, 0, -1, 3))
        assert pr.c_lattice is pr.c_lattice  # built once, not on every read

    def test_single_b21(self):
        pr = build_problem([BallSpec(2, 1)])
        assert pr.m_norm == 4
        assert pr.c_lattice.chains == ((2, 2, 2),)
        assert pr.ambient == 4

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            build_problem([])

    def test_plumbing_read_through_lens_plumbing(self, monkeypatch):
        # perfbench/tracer.py times the contfrac layer by wrapping this name.
        calls = []
        lens_plumbing = obstruction.lens_plumbing
        monkeypatch.setattr(obstruction, "lens_plumbing",
                            lambda *a, **k: calls.append(a) or lens_plumbing(*a, **k))
        pr = build_problem([BallSpec(2, 1), BallSpec(5, 2)])
        assert calls == [(4, 1), (25, 9)]
        assert [len(c) for c in pr.c_lattice.chains] == [3, 5]


class TestCheckObstruction:
    def test_b31_obstructed(self):
        rep = check_obstruction(build_problem([BallSpec(3, 1)]))
        assert rep.verdict == OBSTRUCTED
        assert rep.witnesses == ()
        assert not rep.statistics.limit_hit
        assert rep.statistics.leaves > 0  # exhaustion certificate

    def test_fibonacci_triple_obstructed(self):
        rep = check_obstruction(build_problem(
            [BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)]))
        assert rep.verdict == OBSTRUCTED
        assert not rep.statistics.limit_hit
        assert rep.statistics.leaves == rep.statistics.classes > 0

    def test_b21_not_obstructed(self):
        rep = check_obstruction(build_problem([BallSpec(2, 1)]))
        assert rep.verdict == NOT_OBSTRUCTED
        assert len(rep.witnesses) == 1
        gen = rep.witnesses[0].generator
        assert sum(x * x for x in gen) == 4
        assert sorted(abs(x) for x in gen) == [1, 1, 1, 1]

    def test_b52_not_obstructed(self):
        rep = check_obstruction(build_problem([BallSpec(5, 2)]))
        assert rep.verdict == NOT_OBSTRUCTED
        assert len(rep.witnesses) >= 1
        for w in rep.witnesses:
            assert sum(x * x for x in w.generator) == 25

    def test_witness_soundness(self):
        # Assemble the full matrix and re-derive every condition from scratch,
        # including the finite-index identity that verify_witness leaves to
        # its Gram check.
        for balls in ([BallSpec(5, 2)], [BallSpec(2, 1), BallSpec(5, 1)]):
            pr = build_problem(balls)
            rep = check_obstruction(pr)
            lat_c = pr.c_lattice
            lat_full = linear_lattice((pr.m_norm,), *pr.c_lattice.chains)
            assert rep.witnesses
            for w in rep.witnesses:
                verify_witness(pr, w)
                full = (w.generator,) + w.embedding
                assert is_isometric_embedding(lat_full.gram, full)
                det = matrix_determinant(full)
                assert det * det == pr.m_norm * matrix_determinant(lat_c.gram)
                # every ambient unit vector pairs nonzero with both factors
                assert 0 not in w.generator and all(map(any, zip(*w.embedding)))

    def test_inconclusive_on_tiny_budget(self):
        rep = check_obstruction(build_problem([BallSpec(3, 1)]),
                                limits=SearchLimits(node_budget=1))
        assert rep.verdict == INCONCLUSIVE
        assert rep.statistics.limit_hit

    def test_monotone_consistency(self):
        # Raising budgets never flips a definite verdict.
        pr = build_problem([BallSpec(5, 2)])
        small = check_obstruction(pr, limits=SearchLimits(node_budget=10 ** 4))
        large = check_obstruction(pr, limits=SearchLimits(node_budget=10 ** 8))
        assert small.verdict == large.verdict == NOT_OBSTRUCTED
        assert small.witnesses == large.witnesses

    def test_inconclusive_refines_to_definite_verdict(self):
        pr = build_problem([BallSpec(3, 1)])
        starved = check_obstruction(pr, limits=SearchLimits(node_budget=1))
        assert starved.verdict == INCONCLUSIVE
        assert check_obstruction(pr).verdict == OBSTRUCTED


def _ball_problem(*balls):
    pr = build_problem(list(balls))
    return pr.c_lattice, pr.ambient


CHUNK_PROBLEMS = [
    pytest.param(*_ball_problem(fibonacci_ball(4), fibonacci_ball(4)), id="fib44"),
    pytest.param(*_ball_problem(BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)),
                 id="three-balls"),
    pytest.param(*_ball_problem(BallSpec(2, 1), BallSpec(5, 1), BallSpec(29, 7)),
                 id="triple-2-5-29"),
    pytest.param(linear_lattice((3, 3, 3, 2, 2, 3, 3, 3, 2)), 16, id="chain4"),
]


class TestWalkCounts:
    """Node and leaf counts of completed searches, which the chunk size of
    the walk cannot change, and the node count at which a budget stops it.
    ``check_obstruction`` places the weight-2 vertices first; the other
    counts are of basis-order searches."""

    @pytest.mark.parametrize("balls, nodes, leaves", [
        ([fibonacci_ball(4), fibonacci_ball(4)], 118, 3),
        ([BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)], 220, 4),
        ([BallSpec(2, 1), BallSpec(5, 1), BallSpec(29, 7)], 102, 14),  # triple (2,5,29)
    ])
    def test_completed_counts(self, balls, nodes, leaves):
        stats = check_obstruction(build_problem(balls)).statistics
        assert not stats.limit_hit
        assert (stats.nodes, stats.leaves, stats.classes) == (nodes, leaves, leaves)

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("lat, m", CHUNK_PROBLEMS)
    def test_node_set_independent_of_chunk(self, monkeypatch, lat, m, chunk):
        # wider chunks save kernel calls only because the node set, and with
        # it the classes, does not depend on the chunk size
        default = search_embedding_classes(lat, m)
        monkeypatch.setattr(lattice, "_CHUNK", chunk)
        chunked = search_embedding_classes(lat, m)
        assert chunked.classes == default.classes
        assert chunked.stats == default.stats  # nodes, leaves, classes, limit_hit

    def test_kernel_calls(self, monkeypatch):
        # triple (2,5,29): 578 nodes answered by 51 calls of 32-node chunks
        # (82 with 16-node chunks)
        calls = []
        constrained_vectors = kernels.constrained_vectors

        def counted(*args):
            calls.append(args)
            return constrained_vectors(*args)

        monkeypatch.setattr(kernels, "constrained_vectors", counted)
        pr = build_problem([BallSpec(2, 1), BallSpec(5, 1), BallSpec(29, 7)])
        stats = search_embedding_classes(pr.c_lattice, pr.ambient).stats
        assert (stats.nodes, stats.limit_hit) == (578, False)
        assert len(calls) == 51

    def test_budget_stops_at_one_past_it(self):
        # triple (2,29,169): every frontier node is a counted node, so the
        # walk holds no more than the node budget
        pr = build_problem([BallSpec(2, 1), BallSpec(29, 7), BallSpec(169, 41)])
        stats = search_embedding_classes(pr.c_lattice, pr.ambient,
                                         limits=SearchLimits(node_budget=1000)).stats
        assert (stats.nodes, stats.limit_hit) == (1001, True)


class TestStrategyEquivalence:
    """The complement route against the direct-sum oracle above."""

    @pytest.mark.parametrize("balls", ORACLE_BALLS)
    def test_full_class_sets_match(self, balls):
        pr = build_problem(balls)
        by_oracle = direct_sum_classes(pr)
        assert full_embedding_classes(pr) == by_oracle
        assert len(by_oracle) >= 1

    @pytest.mark.parametrize("m_norm, count", [(8, 0), (16, 3)])
    def test_other_m_norm(self, m_norm, count):
        # B(2,1)'s complement generators have norms 4 and 1: m_norm 16 admits
        # c = 2 and c = 4, m_norm 8 no c at all.
        pr = build_problem([BallSpec(2, 1)])._replace(m_norm=m_norm)
        by_oracle = direct_sum_classes(pr)
        assert full_embedding_classes(pr) == by_oracle
        assert len(by_oracle) == count

    @pytest.mark.parametrize("balls", ORACLE_BALLS)
    def test_verdicts_match(self, balls):
        pr = build_problem(balls)
        rep = check_obstruction(pr)
        oracle = direct_sum_witnesses(pr)
        assert rep.witnesses == oracle
        assert rep.verdict == (NOT_OBSTRUCTED if oracle else OBSTRUCTED)
        key = tuple((b.p, b.q) for b in balls)
        assert (rep.verdict, len(rep.witnesses)) == ORACLE_PROBLEMS[key]


# The p <= 13 census: the 29 balls B(p, q) with 2 <= p <= 13 and 2q <= p, one
# at a time and in pairs of ambient rank at most 24, 455 sets in all.
CENSUS_BALLS = [BallSpec(p, q) for p in range(2, 14) for q in range(1, p // 2 + 1)
                if math.gcd(p, q) == 1]
CENSUS_SETS = [[b] for b in CENSUS_BALLS] + [
    list(pair) for pair in itertools.combinations_with_replacement(CENSUS_BALLS, 2)
    if build_problem(pair).ambient <= 24]


class TestFailFirstOrder:
    """``check_obstruction`` searches with the weight-2 vertices of Lambda_C
    placed first (docs/decisions.md, "Fail-first vertex order").  Its classes
    are those of the basis-order search, and so are its verdict, witnesses
    and class records, in the same order."""

    @staticmethod
    def assert_order_free(problem, monkeypatch):
        basis = search_embedding_classes(problem.c_lattice, problem.ambient)
        searched = []
        fail_first = obstruction._search_fail_first

        def spy(pr, limits):
            searched.append(fail_first(pr, limits))
            return searched[-1]

        with monkeypatch.context() as patch:
            patch.setattr(obstruction, "_search_fail_first", spy)
            rep = check_obstruction(problem)
        (got,) = searched
        assert not got.stats.limit_hit and not basis.stats.limit_hit
        assert set(got.classes) == set(basis.classes)
        assert got.classes == basis.classes  # sorted canonical matrices
        for mat in got.classes:
            assert canonical_form(mat) == mat
            assert is_isometric_embedding(problem.c_lattice.gram, mat)
        with monkeypatch.context() as patch:
            patch.setattr(obstruction, "_search_fail_first", lambda pr, limits: basis)
            in_basis_order = check_obstruction(problem)
        assert rep == in_basis_order._replace(statistics=rep.statistics)
        assert_index_fact(rep)

    @pytest.mark.parametrize("balls", ORACLE_BALLS + [
        [fibonacci_ball(k), fibonacci_ball(n)] for k in range(1, 6) for n in range(k, 6)] + [
        [BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)]])
    def test_classes_match_basis_order(self, balls, monkeypatch):
        self.assert_order_free(build_problem(balls), monkeypatch)

    def test_census_matches_basis_order(self, monkeypatch):
        assert len(CENSUS_SETS) == 455
        for balls in CENSUS_SETS:
            self.assert_order_free(build_problem(balls), monkeypatch)

    def test_weight_two_vertices_first(self, monkeypatch):
        # B(5,2) has the chain (2, 3, 2, 2, 3): the search sees vertices 1, 3
        # and 4, of weight 2, first, then 2 and 5, each group in basis order.
        seen = []

        def spy(l, m, limits=None):
            seen.append(l.gram)
            return search_embedding_classes(l, m, limits=limits)

        pr = build_problem([BallSpec(5, 2)])
        monkeypatch.setattr(obstruction, "search_embedding_classes", spy)
        check_obstruction(pr)
        assert pr.c_lattice.chains == ((2, 3, 2, 2, 3),)
        order = (0, 2, 3, 1, 4)
        assert seen == [tuple(tuple(pr.c_lattice.gram[i][j] for j in order) for i in order)]


class TestMarkovReach:
    """The ball set of every Markov triple up to ambient rank 46 embeds
    disjointly (the P(a^2, b^2, c^2) degeneration), and its search completes
    without a budget: three balls give 14 classes and 4 witnesses, two balls
    (the triples (1, b, c), b >= 2) give 5 and 2, and B(2,1) alone 2 and 1."""

    CLASSES_AND_WITNESSES = {1: (2, 1), 2: (5, 2), 3: (14, 4)}
    TRIPLES = [t for t in enumerate_triples(1597) if ball_params(t)
               and build_problem(ball_params(t)).ambient <= 46]

    def test_fourteen_triples(self):
        assert len(self.TRIPLES) == 14

    @pytest.mark.parametrize("t", TRIPLES, ids=str)
    def test_not_obstructed(self, t):
        balls = ball_params(t)
        rep = check_obstruction(build_problem(balls))
        assert rep.verdict == NOT_OBSTRUCTED and not rep.statistics.limit_hit
        assert ((rep.statistics.classes, len(rep.witnesses))
                == self.CLASSES_AND_WITNESSES[len(balls)])
        assert_index_fact(rep)


class TestPrimitivity:
    """Each class record's index is the index of the Lambda_C image in its
    saturation, checked against the gcd of its maximal minors, and the
    witnesses are exactly the classes whose record says so."""

    @pytest.mark.parametrize("balls", ORACLE_BALLS + [
        [BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)],
        [BallSpec(2, 1), BallSpec(5, 1), BallSpec(29, 7)],  # triple (2,5,29)
    ])
    def test_norm_matches_maximal_minors(self, balls):
        pr = build_problem(balls)
        m = pr.ambient
        rep = check_obstruction(pr)
        classes = search_embedding_classes(pr.c_lattice, m).classes
        assert classes and len(rep.records) == len(classes)
        witnesses = []
        for cls, record in zip(classes, rep.records):
            # k x (k+1) matrix: its maximal minors delete one column each
            minors = [matrix_determinant([row[:j] + row[j + 1:] for row in cls])
                      for j in range(m)]
            index = math.gcd(*minors)
            w = orthogonal_complement(cls, m)
            norm = sum(x * x for x in w)
            assert (index == 1) == (norm == pr.m_norm), cls
            assert norm * index * index == pr.m_norm, cls
            assert record == ClassRecord(
                index, tuple(j + 1 for j in range(m) if not w[j]),
                tuple(j + 1 for j in range(m) if j not in support(cls))), cls
            if index == 1 and all(w) and len(support(cls)) == m:
                witnesses.append(Witness(cls, w))
        assert rep.witnesses == tuple(witnesses)
        assert len(witnesses) == sum(r.index == 1 and r.generator_zeros == r.missed == ()
                                     for r in rep.records)


class TestTheorem2:
    @pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4),
                                      (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 7)])
    def test_desk_scale_pairs_obstructed(self, pair):
        rep = fib_pair_report(*pair)
        assert rep.verdict == OBSTRUCTED
        assert not rep.statistics.limit_hit
        # the search is orderly: every leaf is a distinct class
        assert rep.statistics.leaves == rep.statistics.classes > 0

    def test_pair_problem_shape(self):
        rep = fib_pair_report(1, 2)
        assert [b.p for b in rep.problem.balls] == [2, 5]
        assert rep.problem.ambient == 9
        assert rep.problem.m_norm == 100

    def test_rejects_out_of_scale(self):
        with pytest.raises(UsageError, match="need n >= 1"):
            fib_pair_report(0, 1)
        with pytest.raises(UsageError, match="exceeds the supported maximum 64"):
            fib_pair_report(16, 15)  # ambient 1 + 33 + 31 = 65

    @pytest.mark.parametrize("k", range(1, 30))
    def test_plumbing_has_2k_plus_1_vertices(self, k):
        # The fact the CLI's index check rests on: a pair (k, n) has ambient
        # rank 2k + 2n + 3, within MAX_AMBIENT exactly when k + n <= 30.
        weights = ball_plumbing(fibonacci_ball(k))
        assert len(weights) == 2 * k + 1 and set(weights) <= {2, 3}

    def test_projection_orthogonality(self):
        # For the (2, 2) pair, the two factor images project orthogonally to
        # their shared coordinates in every enumerated class (the pairing of
        # the full images localises to the common support).
        from ballobs.lattice import search_embedding_classes
        pr = build_problem([BallSpec(5, 2), BallSpec(5, 2)])
        r1 = len(pr.c_lattice.chains[0])
        result = search_embedding_classes(pr.c_lattice, pr.ambient)
        assert result.classes
        for cls in result.classes:
            first = cls[:r1]
            second = cls[r1:]
            sup1 = {j for j in range(pr.ambient) if any(row[j] for row in first)}
            sup2 = {j for j in range(pr.ambient) if any(row[j] for row in second)}
            shared = sorted(sup1 & sup2)
            for u in first:
                for v in second:
                    assert sum(u[j] * v[j] for j in shared) == 0
            # the contradiction the verdict rests on: both factors can never
            # simultaneously occupy a full 4n-coordinate block
            assert not (len(sup1) == 8 and len(sup2) == 8)


def fibonacci(n):
    """F(n), with F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def smooth_family_witness(k):
    """The closed-form witness for B(F(2k+1), F(2k-1)), the paper's smooth family.

    Columns e_0..e_(2k+1); rows in plumbing order, whose weights are 2,
    3^(k-1), 2, 2, 3^(k-1).  The generator has norm 2F(2k)^2 + F(2k-1)F(2k)
    + 1 = F(2k+1)^2 (docs/decisions.md).
    """
    m = 2 * k + 2

    def row(minus, *plus):
        r = [0] * m
        if minus is not None:
            r[minus] = -1
        for c in plus:
            r[c] = 1
        return tuple(r)

    rows = [row(None, 0, 1)]
    rows += [row(2 * j - 1, 2 * j, 2 * j + 1) for j in range(1, k)]
    rows += [row(2 * k - 1, 2 * k), row(2 * k, 2 * k + 1)]
    rows += [row(2 * k - 2 * j, 2 * k - 2 * j + 1, 2 * k - 2 * j + 2) for j in range(1, k)]
    generator = (fibonacci(2 * k), -fibonacci(2 * k))
    generator += tuple(-fibonacci(i) for i in range(2 * k - 1, 0, -1)) + (-1,)
    return Witness(tuple(rows), generator)


class TestSmoothFamily:
    """B(F(2k+1), F(2k-1)) embeds smoothly in CP^2 for every k, so each has a
    Donaldson witness and is never OBSTRUCTED."""

    def test_constructed_witness_up_to_the_cap(self):
        ks = range(1, (MAX_AMBIENT - 2) // 2 + 1)
        assert ks[-1] == 31
        for k in ks:
            problem = build_problem([fibonacci_ball(k)])
            threes = (3,) * (k - 1)
            assert ball_plumbing(fibonacci_ball(k)) == (2,) + threes + (2, 2) + threes
            assert problem.ambient == 2 * k + 2
            verify_witness(problem, smooth_family_witness(k))
        with pytest.raises(UsageError, match="ambient rank"):
            build_problem([fibonacci_ball(32)])

    @pytest.mark.parametrize("k", range(1, 13))
    def test_search_finds_only_the_constructed_witness(self, k):
        rep = check_obstruction(build_problem([fibonacci_ball(k)]))
        assert rep.verdict == NOT_OBSTRUCTED and not rep.statistics.limit_hit
        assert rep.statistics.classes == 2
        assert rep.witnesses == (smooth_family_witness(k),)


class TestPlumbingEmbedsInFullRank:
    """The positive plumbing P of the boundary of B(p, q), glued to -B(p, q),
    closes up to a positive-definite manifold with b2 = rank P.  By
    Donaldson's theorem Lambda_P then embeds in Z^rank, with index p."""

    BALLS = sorted({BallSpec(p, q) for p in range(2, 41) for q in range(1, p)
                    if math.gcd(p, q) == 1}, key=lambda b: (b.p, b.q))

    def test_every_small_ball_embeds(self):
        searched = 0
        for ball in self.BALLS:
            weights = ball_plumbing(ball)
            if len(weights) > 40:
                continue
            result = search_embedding_classes(linear_lattice(weights), len(weights),
                                              limits=SearchLimits(node_budget=10_000))
            assert result.classes, ball
            searched += 1
        assert searched == 244

    def test_non_square_determinant_never_embeds(self):
        # A full-rank sublattice of Z^r has a square determinant.
        rng = random.Random(16)
        non_square = 0
        for _ in range(200):
            chain = tuple(rng.choice((2, 3, 4, 5, 7)) for _ in range(rng.randint(2, 7)))
            det = matrix_determinant(linear_lattice(chain).gram)
            if math.isqrt(det) ** 2 == det:
                continue
            non_square += 1
            result = search_embedding_classes(linear_lattice(chain), len(chain),
                                              limits=SearchLimits(node_budget=10_000))
            assert result.classes == (), chain
        assert non_square == 191


class TestLemmaCembReport:
    def test_n2_m9(self):
        # In search order, that is, in ascending order of the class matrices.
        rep = lemma_cemb_report(2, 9)
        assert rep.class_count == 3
        assert rep.summaries == ((6, 1, 25), (5, 0, None), (8, 3, None))

    def test_n2_m8(self):
        rep = lemma_cemb_report(2, 8)
        assert rep.class_count == 3
        assert [c.support for c in rep.summaries] == [6, 5, 8]
        assert rep.statistics.leaves == rep.statistics.classes

    def test_n4_m16(self):
        # docs/decisions.md: 3, 5, 12 and 37 classes at m = 4n for n = 2..5
        rep = lemma_cemb_report(4, 16)
        assert not rep.statistics.limit_hit
        assert rep.class_count == 12
        assert rep.statistics.leaves == rep.statistics.classes

    def test_classify_chain_summarises_the_search(self):
        weights = (3, 2, 2, 3, 2)
        rep = classify_chain(weights, 9)
        result = search_embedding_classes(linear_lattice(weights), 9)
        assert (rep.weights, rep.ambient, rep.classes, rep.statistics) == (
            weights, 9, result.classes, result.stats)
        assert rep.summaries == tuple(map(obstruction.class_summary, result.classes))
        assert rep.class_count == len(rep.classes) == 3
        assert lemma_cemb_report(2, 9) == rep

    def test_cut_report(self):
        # A node budget cuts the n = 4 search (54 nodes, 12 classes) at its
        # 51st node: the report holds the 8 classes found so far, each with
        # the summary the complete search gives it.
        complete = lemma_cemb_report(4, 16)
        cut = lemma_cemb_report(4, 16, SearchLimits(node_budget=50))
        assert cut.statistics == (51, 8, 8, True)
        assert cut.class_count == 8
        summaries = dict(zip(complete.classes, complete.summaries))
        assert [summaries[mat] for mat in cut.classes] == list(cut.summaries)

    def test_preconditions(self):
        with pytest.raises(UsageError):
            lemma_cemb_report(1, 8)
        with pytest.raises(UsageError):
            lemma_cemb_report(2, 7)
        for n, m in ((2.5, 10), (True, 10), ("2", 10), (2, "10"), (2, 9.5)):
            with pytest.raises(UsageError, match="must be integers"):
                lemma_cemb_report(n, m)

    @pytest.mark.parametrize("weights, m", [
        *(((3,) * (n - 1) + (2, 2) + (3,) * (n - 1) + (2,), 4 * n) for n in range(2, 6)),
        ((3, 2, 2, 3, 2), 9),
    ])
    def test_summary_matches_complement(self, weights, m):
        # Oracle: the complement of the restricted rows, taken whatever its
        # rank, where class_summary counts the rank and takes it only at one.
        for cls in search_embedding_classes(linear_lattice(weights), m).classes:
            sup = support(cls)
            basis = integer_kernel([[row[j] for j in sup] for row in cls], len(sup))
            norm = sum(x * x for x in basis[0]) if len(basis) == 1 else None
            assert obstruction.class_summary(cls) == (len(sup), len(basis), norm)


class TestClassRecords:
    def test_b31(self):
        # The paper's example: one class, of index 3, whose generator 3 e_5
        # misses e_1..e_4 and whose image misses e_5.
        rep = check_obstruction(build_problem([BallSpec(3, 1)]))
        assert rep.verdict == OBSTRUCTED
        assert rep.records == (ClassRecord(3, (1, 2, 3, 4), (5,)),)
        assert_index_fact(rep)

    @pytest.mark.parametrize("ball, count", [(BallSpec(3, 1), 1), (BallSpec(2, 1), 3)])
    def test_direct_sum_class_count(self, ball, count):
        # On B(2,1) the two signs of the generator canonicalise to different
        # classes.
        pr = build_problem([ball])
        assert full_embedding_classes(pr) == direct_sum_classes(pr)
        assert len(direct_sum_classes(pr)) == count

    @pytest.mark.parametrize("balls, indices", [
        ([BallSpec(2, 1), BallSpec(5, 2)], [10, 2, 5]),  # Fibonacci pair (1, 2)
        ([BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)], [2210, 65, 170, 442]),
    ])
    def test_obstructed_indices(self, balls, indices):
        # docs/decisions.md, "The index of a class"
        rep = check_obstruction(build_problem(balls))
        assert rep.verdict == OBSTRUCTED
        assert [r.index for r in rep.records] == indices
        assert_index_fact(rep)

    def test_partial_classes_recorded(self):
        # A budget that stops the search mid-way keeps a record per class
        # found so far; so does the complete search.  Triple (2,29,169)
        # completes at 316 nodes; 300 stop it with 5 of its 14 classes.
        pr = build_problem([BallSpec(2, 1), BallSpec(29, 7), BallSpec(169, 41)])
        complete = check_obstruction(pr)
        starved = check_obstruction(pr, SearchLimits(node_budget=300))
        assert complete.statistics.classes == 14
        assert starved.statistics.limit_hit and 0 < starved.statistics.classes < 14
        for rep in (complete, starved):
            assert len(rep.records) == rep.statistics.classes
            assert sum(r.is_witness for r in rep.records) == len(rep.witnesses)
            assert_index_fact(rep)

    @pytest.mark.parametrize("balls", ORACLE_BALLS)
    def test_witness_is_index_one(self, balls):
        rep = check_obstruction(build_problem(balls))
        assert rep.records
        assert_index_fact(rep)

    @pytest.mark.parametrize("record, witness", [
        (ClassRecord(1, (), ()), True), (ClassRecord(3, (), ()), False),
        (ClassRecord(1, (2,), ()), False), (ClassRecord(1, (), (5,)), False),
    ])
    def test_is_witness(self, record, witness):
        # A search never makes the last record: a missed e_j is orthogonal
        # to the image, so the rank-one complement is spanned by w = e_j,
        # which has zeros.
        assert record.is_witness is witness

    def test_index_identity_checked(self, monkeypatch):
        # w.w * s^2 = m_norm always holds for a plumbing; a generator that
        # breaks it is a fault, not a class record.
        monkeypatch.setattr(obstruction, "orthogonal_complement",
                            lambda rows, m: (1, 1) + (0,) * (m - 2))
        with pytest.raises(InternalCheckError, match="times a square is not 9"):
            check_obstruction(build_problem([BallSpec(3, 1)]))


class TestVerifyWitnessRejects:
    def test_generator_sign_flip(self):
        pr = build_problem([BallSpec(5, 1)])
        w = check_obstruction(pr).witnesses[0]
        gen = list(w.generator)
        gen[0] = -gen[0]
        assert gen[0] != 0
        with pytest.raises(InternalCheckError, match="do not realise the direct-sum Gram"):
            verify_witness(pr, Witness(w.embedding, tuple(gen)))

    def test_imprimitive_generator(self):
        # B(3,1)'s one full class has Lambda_M on 3 e_1: the right Gram
        # matrix, but not a primitive generator.
        pr = build_problem([BallSpec(3, 1)])
        (rows,) = full_embedding_classes(pr)
        assert rows[0] == (3, 0, 0, 0, 0)
        with pytest.raises(InternalCheckError, match="not primitive"):
            verify_witness(pr, Witness(rows[1:], rows[0]))

    def test_wrong_row_width(self):
        # A zero column keeps every inner product, so only the width check
        # can catch it.
        pr = build_problem([BallSpec(5, 2)])
        w = check_obstruction(pr).witnesses[0]
        wide = Witness(tuple(row + (0,) for row in w.embedding), w.generator + (0,))
        with pytest.raises(UsageError, match="length"):
            verify_witness(pr, wide)

    def test_float_entries(self):
        # equal in value, so every product and sum matches; a float
        # generator used to reach math.gcd and raise TypeError, and float
        # embedding rows used to pass
        pr = build_problem([BallSpec(5, 1)])
        w = check_obstruction(pr).witnesses[0]
        with pytest.raises(UsageError, match="generator entries must be integers"):
            verify_witness(pr, Witness(w.embedding, tuple(map(float, w.generator))))
        floats = tuple(tuple(map(float, row)) for row in w.embedding)
        with pytest.raises(UsageError, match="matrix entries must be integers"):
            verify_witness(pr, Witness(floats, w.generator))
        # int arrays are read as ints
        verify_witness(pr, Witness(np.array(w.embedding), np.array(w.generator)))

    def test_missed_unit_vector(self):
        # No class the search finds has a primitive generator of norm m_norm
        # and a zero entry, so a hand-made problem stands in: every other
        # condition holds, but e_1 pairs to zero with the generator.
        pr = ObstructionProblem((), 2, 3, linear_lattice((1,), (2,)))
        with pytest.raises(InternalCheckError, match="unit-pairing"):
            verify_witness(pr, Witness(((1, 0, 0), (0, 1, 1)), (0, 1, -1)))


class TestReportDocuments:
    @pytest.mark.parametrize("balls", [[BallSpec(3, 1)], [BallSpec(2, 1)],
                                       [BallSpec(2, 1), BallSpec(5, 2)]])
    def test_round_trip(self, balls):
        rep = check_obstruction(build_problem(balls))
        doc = report_to_doc(rep)
        assert report_from_doc(json.loads(json.dumps(doc))) == rep

    def test_integers_are_strings(self):
        rep = check_obstruction(build_problem([BallSpec(2, 1)]))
        doc = report_to_doc(rep)

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert isinstance(node, (str, bool)) or node is None
        walk(doc)

    def test_timing_only_on_request(self):
        rep = check_obstruction(build_problem([BallSpec(2, 1)]))
        assert "elapsed_ms" not in report_to_doc(rep)["statistics"]
        assert report_to_doc(rep, elapsed_ms=12)["statistics"]["elapsed_ms"] == "12"

    def test_schema_guard(self):
        with pytest.raises(UsageError):
            report_from_doc({"schema": "something-else@9"})

    def test_unknown_verdict_rejected(self):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        for verdict in ("BANANA", 1.5, 3, None, ["OBSTRUCTED"]):
            doc["verdict"] = verdict
            with pytest.raises(UsageError, match="unknown verdict"):
                report_from_doc(doc)

    @pytest.mark.parametrize("balls, verdict, limit_hit", [
        ([BallSpec(2, 1)], OBSTRUCTED, False),     # a witness, yet obstructed
        ([BallSpec(2, 1)], INCONCLUSIVE, True),    # a witness decides
        ([BallSpec(3, 1)], NOT_OBSTRUCTED, False),  # no witness
        ([BallSpec(3, 1)], INCONCLUSIVE, False),   # the search completed
        ([BallSpec(3, 1)], OBSTRUCTED, True),      # the search was cut short
    ])
    def test_contradicting_verdict_rejected(self, balls, verdict, limit_hit):
        doc = report_to_doc(check_obstruction(build_problem(balls)))
        doc["verdict"] = verdict
        doc["statistics"]["limit_hit"] = limit_hit
        with pytest.raises(UsageError, match="contradicts"):
            report_from_doc(doc)

    def test_forged_witness_rejected(self):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(2, 1)])))
        assert doc["verdict"] == NOT_OBSTRUCTED
        generator = doc["witnesses"][0]["generator"]
        doc["witnesses"][0]["generator"] = ["1"] * len(generator)
        with pytest.raises(UsageError, match="witness rejected"):
            report_from_doc(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(UsageError, match="lacks the key 'problem'"):
            report_from_doc({"schema": REPORT_SCHEMA})

    def test_bad_integer_rejected(self):
        # Only what report_to_doc writes is read: int() took every other
        # value below as the integer next to it.
        original = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        for key, value in [("p", "x"), ("nodes", True), ("nodes", 1.5), ("p", "\u0663"),
                           ("m_norm", " 9"), ("m_norm", "+9"), ("m_norm", "09"),
                           ("nodes", "1_0"), ("q", "-0")]:
            doc = copy.deepcopy(original)
            for holder in (doc["problem"]["balls"][0], doc["problem"], doc["statistics"]):
                if key in holder:
                    holder[key] = value
            with pytest.raises(UsageError, match="malformed report document"):
                report_from_doc(doc)

    def test_component_weights_checked(self):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        doc["problem"]["component_weights"][0][0] = "3"
        with pytest.raises(UsageError, match="inconsistent with its ball list"):
            report_from_doc(doc)

    # The string "false" is truthy: read with bool() it made an OBSTRUCTED
    # document contradict itself and an INCONCLUSIVE one pass.
    @pytest.mark.parametrize("verdict", [OBSTRUCTED, INCONCLUSIVE])
    def test_limit_hit_must_be_boolean(self, verdict):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        doc["verdict"] = verdict
        doc["statistics"]["limit_hit"] = "false"
        with pytest.raises(UsageError, match="JSON boolean"):
            report_from_doc(doc)

    # A string or a dict iterates like the empty list that B(3,1) has.
    @pytest.mark.parametrize("witnesses", ["", {}], ids=["string", "object"])
    def test_witnesses_must_be_a_list(self, witnesses):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        assert doc["witnesses"] == []
        doc["witnesses"] = witnesses
        with pytest.raises(UsageError, match="malformed report document"):
            report_from_doc(doc)

    @pytest.mark.parametrize("where", ["top", "problem", "statistics", "witness"])
    def test_unknown_key_rejected(self, where):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(2, 1)])))
        holder = {"top": doc, "problem": doc["problem"], "statistics": doc["statistics"],
                  "witness": doc["witnesses"][0]}[where]
        holder["comment"] = "x"
        with pytest.raises(UsageError, match="malformed report document"):
            report_from_doc(doc)

    @pytest.mark.parametrize("doc", [[], None, "x"], ids=["array", "null", "string"])
    def test_non_object_rejected(self, doc):
        with pytest.raises(UsageError, match="JSON object"):
            report_from_doc(doc)

    def test_schema_1_rejected(self):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        assert doc["schema"] == REPORT_SCHEMA == "obstruction-report@3"
        assert "strategy" not in doc["statistics"]
        doc["schema"] = "obstruction-report@1"
        doc["statistics"]["strategy"] = "complement"
        with pytest.raises(UsageError):
            report_from_doc(doc)

    def test_schema_2_rejected(self):
        # @2 is @3 without the class records.
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        del doc["records"]
        for schema in ("obstruction-report@2", REPORT_SCHEMA):
            doc["schema"] = schema
            with pytest.raises(UsageError):
                report_from_doc(doc)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_record_count_checked(self, change):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(2, 1), BallSpec(5, 1)])))
        records = doc["records"]
        if change == "drop":
            del records[0]
        else:
            records.append(records[0])
        with pytest.raises(UsageError, match="class records for 5 classes"):
            report_from_doc(doc)

    @pytest.mark.parametrize("balls, record", [
        # B(2,1)'s witness record given index 2, and B(3,1)'s one record made
        # a witness record
        ([BallSpec(2, 1)], {"index": "2"}),
        ([BallSpec(3, 1)], {"index": "1", "generator_zeros": [], "missed": []}),
    ])
    def test_records_must_agree_with_witnesses(self, balls, record):
        rep = check_obstruction(build_problem(balls))
        doc = report_to_doc(rep)
        (i,) = [i for i, r in enumerate(rep.records) if r.is_witness] or [0]
        doc["records"][i].update(record)
        with pytest.raises(UsageError, match="disagree with the witnesses"):
            report_from_doc(doc)

    @pytest.mark.parametrize("balls, record", [
        # obstruct 3,1 (ambient 5, m_norm 9), its record (3, (1, 2, 3, 4), (5,))
        # changed
        ([BallSpec(3, 1)], {"index": "7", "generator_zeros": ["99"], "missed": ["5", "5"]}),
        ([BallSpec(3, 1)], {"index": "0"}),
        ([BallSpec(3, 1)], {"index": "2"}),  # 2^2 does not divide 9
        ([BallSpec(3, 1)], {"generator_zeros": ["2", "1", "3", "4"]}),
        ([BallSpec(3, 1)], {"generator_zeros": ["1", "1"], "missed": []}),
        ([BallSpec(3, 1)], {"generator_zeros": ["0"], "missed": []}),
        ([BallSpec(3, 1)], {"generator_zeros": ["6"], "missed": []}),
        ([BallSpec(3, 1)], {"generator_zeros": ["1", "2", "3"], "missed": ["4", "5"]}),
        ([BallSpec(3, 1)], {"generator_zeros": ["1", "2", "3"]}),
        ([BallSpec(3, 1)], {"index": "1", "generator_zeros": ["1"], "missed": []}),
        # the Fibonacci pair (1, 2), m_norm 100: its first record, which
        # misses coordinate 9, given index 2
        ([BallSpec(2, 1), BallSpec(5, 2)], {"index": "2"}),
    ])
    def test_records_a_search_cannot_produce(self, balls, record):
        doc = report_to_doc(check_obstruction(build_problem(balls)))
        doc["records"][0].update(record)
        with pytest.raises(UsageError, match=r"class record 1, .* is not one a search"):
            report_from_doc(doc)


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail with TimeoutError instead of hanging once ``seconds`` pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _coprime_ball(p):
    return st.integers(1, p - 1).filter(lambda q: math.gcd(p, q) == 1).map(
        lambda q: BallSpec(p, q))


# One or two balls with p <= 13 (ambient rank at most 29) and a node budget:
# every verdict occurs, and a report takes about 10 ms.
BALL_SETS = st.lists(st.integers(2, 13).flatmap(_coprime_ball), min_size=1, max_size=2)
NODE_BUDGETS = st.integers(1, 300)
# Values for a mutated leaf: integers as report_to_doc writes them, huge ones
# included; near misses of that form; other JSON scalars and strings.
JUNK = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from([" 46", "46 ", "+46", "046", "-0", "\u0663", "1.5", "1_000", "", "x"]),
    st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
              st.sampled_from([OBSTRUCTED, NOT_OBSTRUCTED, INCONCLUSIVE, "obstruction-report@1"])))
# Values for a mutated dict or list: JSON values of every type.
OTHER_JSON = st.one_of(JUNK, st.lists(JUNK, max_size=2),
                       st.dictionaries(st.text(max_size=3), JUNK, max_size=2))
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


def _report(balls, budget):
    return check_obstruction(build_problem(balls), limits=SearchLimits(node_budget=budget))


def _paths(node, path=()):
    """The path of every dict entry and list item below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(node, path):
    return functools.reduce(operator.getitem, path, node)


def _kind(path):
    return tuple("*" if isinstance(key, int) else key for key in path)


class TestReportDocumentProperties:
    """Report documents, random ball sets and budgets, each example bounded
    by a node budget and a time limit."""

    @PROPERTY_SETTINGS
    @given(balls=BALL_SETS, budget=NODE_BUDGETS,
           elapsed_ms=st.none() | st.integers(0, 10 ** 9))
    def test_round_trip(self, balls, budget, elapsed_ms):
        with _time_limit(5):
            rep = _report(balls, budget)
            doc = json.loads(json.dumps(report_to_doc(rep, elapsed_ms=elapsed_ms)))
            assert report_from_doc(doc) == rep

    # B(p, q) has about p/q plumbing vertices, far more than any search takes:
    # build_problem used to expand them all, and the document hung.
    @PROPERTY_SETTINGS
    @example(ball=BallSpec(99999999999999999999, 1))  # found by fuzzing
    @given(ball=st.integers(4, 10 ** 30).flatmap(_coprime_ball))
    def test_large_ball_rejected_quickly(self, ball):
        doc = report_to_doc(_report([BallSpec(3, 1)], 100))
        doc["problem"]["balls"][0] = {"p": str(ball.p), "q": str(ball.q)}
        with _time_limit(5), pytest.raises(UsageError):
            report_from_doc(doc)

    @PROPERTY_SETTINGS
    @given(balls=BALL_SETS, budget=NODE_BUDGETS, data=st.data())
    def test_single_mutation(self, balls, budget, data):
        # Deleting any key, changing any leaf, or replacing any dict or list,
        # the whole document included, by a value of another JSON type gives
        # a UsageError or a report that differs only in its statistics and
        # class records, which no document can prove without a search; a
        # changed integer is read only in the form report_to_doc writes.
        with _time_limit(5):
            rep = _report(balls, budget)
            box = [report_to_doc(rep)]  # so that the document is an entry too
            # Draw the kind of entry first, then one entry of that kind, so
            # that the many witness entries do not crowd out the rest.
            delete = data.draw(st.booleans())
            paths = [p for p in _paths(box) if not delete or isinstance(p[-1], str)]
            kind = data.draw(st.sampled_from(sorted({_kind(p) for p in paths})))
            path = data.draw(st.sampled_from([p for p in paths if _kind(p) == kind]))
            mutated = copy.deepcopy(box)
            holder = _at(mutated, path[:-1])
            old = holder[path[-1]]
            if delete:
                del holder[path[-1]]
            elif isinstance(old, (dict, list)):
                new = holder[path[-1]] = data.draw(
                    OTHER_JSON.filter(lambda value: type(value) is not type(old)))
            else:
                new = holder[path[-1]] = data.draw(JUNK)
            try:
                got = report_from_doc(mutated[0])
            except UsageError:
                return
        assert not delete, f"accepted without {path}"
        assert got._replace(statistics=rep.statistics, records=rep.records) == rep
        assert sum(r.is_witness for r in got.records) == len(got.witnesses)
        assert type(new) is type(old)
        if new != old:
            assert new == str(int(new))


# Sets of one to three balls with p <= 34, each searched to completion once.
# A set whose complete search passes REFERENCE_NODES, or whose rank passes
# the maximum, is left out, so that each example stays short.
BUDGET_BALL_SETS = st.lists(st.integers(2, 34).flatmap(_coprime_ball), min_size=1, max_size=3)
REFERENCE_NODES = 3000


@functools.lru_cache(maxsize=None)
def _complete_report(balls):
    """The report of a complete search of ``balls``, or None if it takes more
    than REFERENCE_NODES nodes or the rank is too large."""
    try:
        rep = _report(balls, REFERENCE_NODES)
    except UsageError:
        return None
    return None if rep.statistics.limit_hit else rep


class TestSearchBudgetProperties:
    """A node budget bounds the search and never changes an answer: random
    ball sets, each run under a random budget against its complete search."""

    @PROPERTY_SETTINGS
    # a budget one node short of the end, with a witness already found
    @example(balls=[BallSpec(2, 1), BallSpec(5, 1)], share=95)
    @example(balls=[BallSpec(5, 2)], share=100)
    @given(balls=BUDGET_BALL_SETS, share=st.one_of(st.integers(0, 100), st.integers(97, 110)))
    def test_budget_never_changes_an_answer(self, balls, share):
        # The budget is ``share`` percent of the complete search's nodes:
        # anything up to all of them, or close to all.
        with _time_limit(10):
            complete = _complete_report(tuple(balls))
            assume(complete is not None)
            total = complete.statistics.nodes
            budget = max(1, total * share // 100)
            rep = _report(balls, budget)
            stats = rep.statistics
            assert stats.nodes <= budget + 1
            assert stats.limit_hit == (budget < total)
            assert rep.verdict != OBSTRUCTED or not stats.limit_hit
            for witness in rep.witnesses:
                verify_witness(rep.problem, witness)
                assert witness in complete.witnesses
            if not stats.limit_hit:
                assert rep == complete


# Chains of one to eight weights in [1, 5], the definite ones searched in
# Z^m for m from their rank to twice it.  Half the weights are drawn from
# [2, 3], whose chains have many classes.  A chain whose complete search
# passes REFERENCE_NODES is left out.
CHAINS = st.lists(st.integers(1, 5) | st.integers(2, 3), min_size=1, max_size=8).flatmap(
    lambda w: st.tuples(st.just(tuple(w)), st.integers(len(w), 2 * len(w))))


@functools.lru_cache(maxsize=None)
def _complete_chain(weights, m):
    """The classification of a complete search of the chain, or None if it
    takes more than REFERENCE_NODES nodes."""
    rep = classify_chain(weights, m, SearchLimits(node_budget=REFERENCE_NODES))
    return None if rep.statistics.limit_hit else rep


class TestChainBudgetProperties:
    """A node budget cuts a chain classification short and never changes a
    class it reports: random positive-definite chains, each run under a
    random budget against its complete search."""

    @PROPERTY_SETTINGS
    # Leaves come late in the walk: these cuts keep 2 of 5 and 3 of 4 classes.
    @example(chain=((3, 3, 2, 2, 3, 3, 2), 12), share=90)
    @example(chain=((3, 2, 2, 3, 3, 2), 9), share=97)
    @given(chain=CHAINS, share=st.one_of(st.integers(0, 100), st.integers(85, 110)))
    def test_cut_classes_are_complete_classes(self, chain, share):
        # The budget is ``share`` percent of the complete search's nodes:
        # anything up to all of them, or close to all.
        weights, m = chain
        assume(is_positive_definite(linear_lattice(weights)))
        with _time_limit(10):
            complete = _complete_chain(weights, m)
            assume(complete is not None)
            total = complete.statistics.nodes
            budget = max(1, total * share // 100)
            rep = classify_chain(weights, m, SearchLimits(node_budget=budget))
            stats = rep.statistics
            assert stats.nodes <= budget + 1
            assert stats.limit_hit == (budget < total)
            assert stats.leaves == stats.classes == rep.class_count
            summaries = dict(zip(complete.classes, complete.summaries))
            assert set(rep.classes) <= set(summaries)
            assert [summaries[mat] for mat in rep.classes] == list(rep.summaries)
            if not stats.limit_hit:
                assert rep == complete
