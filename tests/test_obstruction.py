import json
import math

import pytest

from ballobs import kernels, lattice
from ballobs.errors import LimitExceeded, UsageError
from ballobs.lattice import (SearchLimits, direct_sum, is_isometric_embedding,
                             is_primitive_vector, linear_lattice,
                             matrix_determinant, orthogonal_complement,
                             search_embedding_classes, unit_pairing_profile)
from ballobs.markov import BallSpec, fibonacci_ball
from ballobs.obstruction import (INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED,
                                 Witness, ball_boundary, ball_plumbing,
                                 build_problem, check_obstruction,
                                 example_b31_report, full_embedding_classes,
                                 lemma_cemb_report, report_from_doc,
                                 report_to_doc, theorem2_suite, verify_witness)


def direct_sum_classes(problem):
    """Oracle: enumerate Lambda_M (+) Lambda_C in Z^m wholesale.

    Production never does this; it enumerates Lambda_C alone and reads
    Lambda_M off the rank-one complement.  Cost grows fast with m_norm
    (B(5,1)+B(13,2) exhausts memory), so keep the oracle to small problems.
    """
    lat_full = direct_sum(linear_lattice((problem.m_norm,)), problem.c_lattice)
    return search_embedding_classes(lat_full, problem.ambient).classes


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
        w = cls.matrix[0]
        c_rows = cls.matrix[1:]
        if not all(w):
            continue
        if not all(any(row[j] for row in c_rows) for j in range(m)):
            continue
        if not is_primitive_vector(w):
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
        assert pr.components[0].gram == linear_lattice((2, 2, 2, 3)).gram

    def test_pair(self):
        pr = build_problem([BallSpec(2, 1), BallSpec(5, 2)])
        assert pr.m_norm == 100
        assert [c.rank for c in pr.components] == [3, 5]
        assert pr.ambient == 9
        assert pr.c_lattice == direct_sum(*pr.components)
        assert pr.c_lattice is pr.c_lattice  # built once, not on every read

    def test_single_b21(self):
        pr = build_problem([BallSpec(2, 1)])
        assert pr.m_norm == 4
        assert pr.components[0].gram == linear_lattice((2, 2, 2)).gram
        assert pr.ambient == 4

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            build_problem([])


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
        # Assemble the full matrix and re-derive every condition from scratch.
        pr = build_problem([BallSpec(5, 2)])
        rep = check_obstruction(pr)
        lat_c = pr.c_lattice
        lat_full = direct_sum(linear_lattice((pr.m_norm,)), lat_c)
        for w in rep.witnesses:
            verify_witness(pr, w)
            full = (w.generator,) + w.embedding
            assert is_isometric_embedding(lat_full, full)
            det = matrix_determinant(full)
            assert det * det == pr.m_norm * matrix_determinant(lat_c.gram)
            assert unit_pairing_profile((w.generator,), w.embedding, pr.ambient).passes

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
    """Node and leaf counts of completed searches, which the order of the
    walk cannot change, and the node count at which a budget stops it."""

    @pytest.mark.parametrize("balls, nodes, leaves", [
        ([fibonacci_ball(4), fibonacci_ball(4)], 234, 3),
        ([BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)], 404, 4),
        ([BallSpec(2, 1), BallSpec(5, 1), BallSpec(29, 7)], 578, 14),  # triple (2,5,29)
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
        with pytest.raises(LimitExceeded) as info:
            search_embedding_classes(pr.c_lattice, pr.ambient,
                                     limits=SearchLimits(node_budget=1000))
        assert info.value.stats.limit_hit
        assert info.value.stats.nodes == 1001


class TestStrategyEquivalence:
    """The complement route against the direct-sum oracle above."""

    @pytest.mark.parametrize("balls", ORACLE_BALLS)
    def test_full_class_sets_match(self, balls):
        pr = build_problem(balls)
        by_oracle = tuple(cls.matrix for cls in direct_sum_classes(pr))
        assert full_embedding_classes(pr) == by_oracle
        assert len(by_oracle) >= 1

    @pytest.mark.parametrize("balls", ORACLE_BALLS)
    def test_verdicts_match(self, balls):
        pr = build_problem(balls)
        rep = check_obstruction(pr)
        oracle = direct_sum_witnesses(pr)
        assert rep.witnesses == oracle
        assert rep.verdict == (NOT_OBSTRUCTED if oracle else OBSTRUCTED)
        key = tuple((b.p, b.q) for b in balls)
        assert (rep.verdict, len(rep.witnesses)) == ORACLE_PROBLEMS[key]


class TestPrimitivity:
    """The generator norm equals m_norm exactly when the Lambda_C image is
    primitive, checked against the gcd of its maximal minors."""

    @pytest.mark.parametrize("balls", ORACLE_BALLS + [
        [BallSpec(5, 2), BallSpec(13, 5), BallSpec(34, 13)],
        [BallSpec(2, 1), BallSpec(5, 1), BallSpec(29, 7)],  # triple (2,5,29)
    ])
    def test_norm_matches_maximal_minors(self, balls):
        pr = build_problem(balls)
        m = pr.ambient
        classes = search_embedding_classes(pr.c_lattice, m).classes
        assert classes
        for cls in classes:
            # k x (k+1) matrix: its maximal minors delete one column each
            minors = [matrix_determinant([row[:j] + row[j + 1:] for row in cls.matrix])
                      for j in range(m)]
            index = math.gcd(*minors)
            norm = orthogonal_complement(cls.matrix, m).generator_norm
            assert (index == 1) == (norm == pr.m_norm), cls.matrix
            assert norm * index * index == pr.m_norm, cls.matrix


class TestTheorem2:
    @pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4),
                                      (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    def test_desk_scale_pairs_obstructed(self, pair):
        rep = theorem2_suite([pair])[0]
        assert rep.verdict == OBSTRUCTED
        assert not rep.statistics.limit_hit
        # the search is orderly: every leaf is a distinct class
        assert rep.statistics.leaves == rep.statistics.classes > 0

    def test_pair_problem_shape(self):
        rep = theorem2_suite([(1, 2)])[0]
        assert [b.p for b in rep.problem.balls] == [2, 5]
        assert rep.problem.ambient == 9
        assert rep.problem.m_norm == 100

    def test_rejects_out_of_scale(self):
        with pytest.raises(UsageError):
            theorem2_suite([(1, 6)])
        with pytest.raises(UsageError):
            theorem2_suite([(0, 1)])

    def test_projection_orthogonality(self):
        # For the (2, 2) pair, the two factor images project orthogonally to
        # their shared coordinates in every enumerated class (the pairing of
        # the full images localises to the common support).
        from ballobs.lattice import search_embedding_classes
        pr = build_problem([BallSpec(5, 2), BallSpec(5, 2)])
        r1 = pr.components[0].rank
        result = search_embedding_classes(pr.c_lattice, pr.ambient)
        assert result.classes
        for cls in result.classes:
            first = cls.matrix[:r1]
            second = cls.matrix[r1:]
            sup1 = {j for j in range(pr.ambient) if any(row[j] for row in first)}
            sup2 = {j for j in range(pr.ambient) if any(row[j] for row in second)}
            shared = sorted(sup1 & sup2)
            for u in first:
                for v in second:
                    assert sum(u[j] * v[j] for j in shared) == 0
            # the contradiction the verdict rests on: both factors can never
            # simultaneously occupy a full 4n-coordinate block
            assert not (len(sup1) == 8 and len(sup2) == 8)


class TestLemmaCembReport:
    def test_n2_m9(self):
        rep = lemma_cemb_report(2, 9)
        assert rep.class_count == 3
        assert [c.support for c in rep.classes] == [5, 6, 8]
        assert [c.complement_rank for c in rep.classes] == [0, 1, 3]
        assert rep.classes[1].complement_norm == 25
        assert not any(c.has_unit_vectors for c in rep.classes)

    def test_n2_m8(self):
        rep = lemma_cemb_report(2, 8)
        assert rep.class_count == 3
        assert [c.support for c in rep.classes] == [5, 6, 8]
        assert rep.statistics.leaves == rep.statistics.classes

    def test_n4_m16(self):
        # docs/decisions.md: 3, 5, 12 and 37 classes at m = 4n for n = 2..5
        rep = lemma_cemb_report(4, 16)
        assert not rep.statistics.limit_hit
        assert rep.class_count == 12
        assert rep.statistics.leaves == rep.statistics.classes

    def test_preconditions(self):
        with pytest.raises(UsageError):
            lemma_cemb_report(1, 8)
        with pytest.raises(UsageError):
            lemma_cemb_report(2, 7)


class TestExampleB31Report:
    def test_reproduction(self):
        rep = example_b31_report()
        assert rep.class_count == 1
        assert rep.verdict == OBSTRUCTED
        assert rep.m_zero_pairings == (2, 3, 4, 5)
        assert rep.c_zero_pairings == (1,)
        assert rep.passed


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
        assert "elapsed_ms" in report_to_doc(rep, include_timing=True)["statistics"]

    def test_schema_guard(self):
        with pytest.raises(UsageError):
            report_from_doc({"schema": "something-else@9"})

    def test_schema_1_rejected(self):
        doc = report_to_doc(check_obstruction(build_problem([BallSpec(3, 1)])))
        assert doc["schema"] == "obstruction-report@2"
        assert "strategy" not in doc["statistics"]
        doc["schema"] = "obstruction-report@1"
        doc["statistics"]["strategy"] = "complement"
        with pytest.raises(UsageError):
            report_from_doc(doc)
