"""Lattice-embedding obstruction for rational balls in the projective plane.

If a disjoint union of rational homology balls B(p_i, q_i) embeds smoothly in
the complex projective plane, excising the balls and gluing in the
positive-definite plumbings with the same lens-space boundaries yields a
closed positive-definite 4-manifold, and Donaldson's diagonalisation theorem
forces a finite-index lattice embedding

    Lambda_M (+) Lambda_C  ->  Z^m,

where Lambda_M is rank one with generator norm prod(p_i^2), Lambda_C is the
direct sum of the plumbing lattices, and m = 1 + rank(Lambda_C).  Topology
adds two constraints: every ambient unit vector pairs nonzero with each
factor, and the Lambda_M generator lands on a primitive vector.

The checker enumerates the Lambda_C embedding classes exhaustively and reads
the rest off the rank-one saturated complement: a class is a witness iff the
complement generator w has w.w = prod(p_i^2) (pinning the Lambda_M image to
+-w, primitive and of finite index) and no ambient coordinate is missed by w
or by the Lambda_C image.  No witness across a completed enumeration means
the smooth embedding is obstructed; running out of budget is reported as
INCONCLUSIVE, never as a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contfrac import lens_plumbing
from .errors import InternalCheckError, LimitExceeded, UsageError
from .lattice import (EmbeddingClass, GramLattice, SearchLimits, SearchStats,
                      canonical_form, direct_sum, is_isometric_embedding,
                      is_primitive_vector, linear_lattice, matrix_determinant,
                      orthogonal_complement, search_embedding_classes,
                      unit_pairing_profile)
from .markov import BallSpec, fibonacci_ball

OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"


def ball_boundary(b: BallSpec) -> tuple[int, int]:
    """Lens parameters (p^2, pq - 1) of the boundary of B(p, q)."""
    return b.p * b.p, b.p * b.q - 1


def ball_plumbing(b: BallSpec) -> tuple[int, ...]:
    """Weights of the positive-definite linear plumbing sharing the boundary of B(p, q)."""
    big_p, big_q = ball_boundary(b)
    return lens_plumbing(big_p, big_q)


@dataclass(frozen=True)
class ObstructionProblem:
    """The lattice problem attached to a list of balls."""

    balls: tuple[BallSpec, ...]
    m_norm: int
    components: tuple[GramLattice, ...]
    ambient: int
    c_lattice: GramLattice  # the direct sum of the components, in order


def build_problem(balls) -> ObstructionProblem:
    """Assemble the lattice problem for a (possibly single-entry) list of balls."""
    balls = tuple(balls)
    if not balls:
        raise UsageError("at least one ball is required")
    m_norm = math.prod(b.p * b.p for b in balls)
    components = tuple(linear_lattice(ball_plumbing(b)) for b in balls)
    c_lattice = components[0]
    for extra in components[1:]:
        c_lattice = direct_sum(c_lattice, extra)
    return ObstructionProblem(balls, m_norm, components, 1 + c_lattice.rank, c_lattice)


@dataclass(frozen=True)
class Witness:
    """A Lambda_C embedding class satisfying every obstruction condition.

    ``embedding`` holds the canonical Lambda_C image rows; ``generator`` is
    the complement generator in the same coordinates (the Lambda_M image up
    to sign).
    """

    embedding: tuple[tuple[int, ...], ...]
    generator: tuple[int, ...]


@dataclass(frozen=True)
class ObstructionReport:
    problem: ObstructionProblem
    verdict: str
    witnesses: tuple[Witness, ...]
    statistics: SearchStats


def verify_witness(problem: ObstructionProblem, witness: Witness) -> None:
    """Re-derive every witness condition from scratch; raise on any failure.

    Checks the assembled (generator stacked on the embedding) matrix against
    the full direct-sum Gram matrix, the finite-index determinant identity
    det(A)^2 = m_norm * det(Lambda_C), primitivity of the generator, and the
    unit-pairing profile.
    """
    m = problem.ambient
    lat_c = problem.c_lattice
    full = (witness.generator,) + witness.embedding
    lat_full = direct_sum(linear_lattice((problem.m_norm,)), lat_c)
    if not is_isometric_embedding(lat_full, full):
        raise InternalCheckError("witness rows do not realise the direct-sum Gram matrix")
    det = matrix_determinant(full)
    if det * det != problem.m_norm * matrix_determinant(lat_c.gram):
        raise InternalCheckError("witness determinant does not square to the lattice determinant")
    if not is_primitive_vector(witness.generator):
        raise InternalCheckError("witness generator is not primitive")
    if not unit_pairing_profile((witness.generator,), witness.embedding, m).passes:
        raise InternalCheckError("witness fails the unit-pairing conditions")


def check_obstruction(problem: ObstructionProblem,
                      limits: SearchLimits | None = None) -> ObstructionReport:
    """Decide the embedding obstruction for the given ball list.

    NOT_OBSTRUCTED requires an explicit witness (re-verified from scratch);
    OBSTRUCTED requires the enumeration to have completed exhaustively;
    INCONCLUSIVE reports budget exhaustion without a witness.  Only Lambda_C
    is enumerated; Lambda_M is read off the rank-one complement, whose
    generator ``integer_kernel`` returns with its first nonzero entry
    positive.
    """
    m = problem.ambient
    try:
        result = search_embedding_classes(problem.c_lattice, m, limits=limits)
        classes, stats = result.classes, result.stats
    except LimitExceeded as exc:
        # budget exhaustion still yields the classes found so far
        classes, stats = exc.partial_classes, exc.stats
    # Classes arrive sorted and each gives at most one witness, so the
    # witnesses come out sorted too.
    witnesses = []
    for cls in classes:
        comp = orthogonal_complement(cls.matrix, m)
        if comp.rank != 1:
            raise InternalCheckError("corank-one embedding with complement rank != 1")
        w = comp.generator
        if comp.generator_norm == problem.m_norm and all(w) and len(cls.support) == m:
            witness = Witness(cls.matrix, w)
            verify_witness(problem, witness)
            witnesses.append(witness)
    if witnesses:
        verdict = NOT_OBSTRUCTED
    elif stats.limit_hit:
        verdict = INCONCLUSIVE
    else:
        verdict = OBSTRUCTED
    return ObstructionReport(problem, verdict, tuple(witnesses), stats)


def full_embedding_classes(problem: ObstructionProblem,
                           limits: SearchLimits | None = None) -> tuple:
    """Canonical classes of full Lambda_M (+) Lambda_C embeddings in Z^m.

    Enumerates the Lambda_C classes and stacks each admissible multiple +-c w
    of the complement generator (c^2 w.w = m_norm) on top.  The tests check
    the result against a wholesale enumeration of the direct sum.
    """
    m = problem.ambient
    result = search_embedding_classes(problem.c_lattice, m, limits=limits)
    out = set()
    for cls in result.classes:
        comp = orthogonal_complement(cls.matrix, m)
        w = comp.generator
        w2 = comp.generator_norm
        if problem.m_norm % w2:
            continue
        c = math.isqrt(problem.m_norm // w2)
        if c * c * w2 != problem.m_norm:
            continue
        for sign in (1, -1):
            top = tuple(sign * c * x for x in w)
            out.add(canonical_form((top,) + cls.matrix))
    return tuple(sorted(out))


def theorem2_suite(pairs, limits: SearchLimits | None = None,
                   max_index: int = 5) -> list[ObstructionReport]:
    """Obstruction reports for disjoint pairs of consecutive-odd-Fibonacci balls.

    Each (k, n) checks B(F(2k+1), F(2k-1)) together with B(F(2n+1), F(2n-1)).
    Indices above ``max_index`` are refused by default: every pair up to
    (5, 5) (ambient rank 23) decides in well under a second, while each
    further index multiplies the search nodes by about five, (6, 6) taking
    6,684 nodes and about 0.6 s.
    """
    reports = []
    for k, n in pairs:
        if min(k, n) < 1:
            raise UsageError(f"indices must be >= 1, got {(k, n)}")
        if max(k, n) > max_index:
            raise UsageError(
                f"index pair {(k, n)} above desk scale (max {max_index}); raise max_index to force")
        problem = build_problem([fibonacci_ball(k), fibonacci_ball(n)])
        reports.append(check_obstruction(problem, limits=limits))
    return reports


# ---------------------------------------------------------------------------
# Chain-lattice classification report


@dataclass(frozen=True)
class ClassSummary:
    support: int
    complement_rank: int
    complement_norm: int | None
    has_unit_vectors: bool


def class_summary(cls: EmbeddingClass) -> ClassSummary:
    """The support size of a class and its complement data inside the
    coordinate sublattice spanned by the support: rank, generator norm when
    the rank is one, and whether the complement contains unit vectors."""
    sup = cls.support
    restricted = tuple(tuple(row[j] for j in sup) for row in cls.matrix)
    comp = orthogonal_complement(restricted, len(sup))
    norm1 = comp.generator_norm if comp.rank == 1 else None
    # A unit vector of the support sublattice lying in the complement is a
    # +-e_i, i.e. a zero column of the restricted matrix.
    has_unit = any(all(row[j] == 0 for row in restricted) for j in range(len(sup)))
    return ClassSummary(len(sup), comp.rank, norm1, has_unit)


@dataclass(frozen=True)
class ChainClassificationReport:
    n: int
    ambient: int
    weights: tuple[int, ...]
    class_count: int
    classes: tuple[ClassSummary, ...]
    statistics: SearchStats


def lemma_cemb_report(n: int, m: int,
                      limits: SearchLimits | None = None) -> ChainClassificationReport:
    """Classify embeddings of the chain lattice (3^(n-1), 2, 2, 3^(n-1), 2) in Z^m.

    Reports the :func:`class_summary` of each class.  For n = 2 there are
    exactly three classes, with supports r, r+1 and 4n (r = 2n+1) and a
    corank-one complement of norm F(2n+1)^2 in the middle one; from n = 3 on,
    further classes appear alongside those three.
    """
    if n < 2:
        raise UsageError(f"need n >= 2, got {n!r}")
    if m < 4 * n:
        raise UsageError(f"need m >= 4n = {4 * n} to see all classes, got {m}")
    weights = (3,) * (n - 1) + (2, 2) + (3,) * (n - 1) + (2,)
    lat = linear_lattice(weights)
    result = search_embedding_classes(lat, m, limits=limits)
    summaries = [class_summary(cls) for cls in result.classes]
    summaries.sort(key=lambda s: (s.support, s.complement_rank, s.complement_norm or 0))
    return ChainClassificationReport(n, m, weights, len(summaries), tuple(summaries),
                                     result.stats)


@dataclass(frozen=True)
class ExampleB31Report:
    """Reproduction of the single-ball B(3, 1) computation in Z^5."""

    class_count: int
    verdict: str
    m_zero_pairings: tuple[int, ...]
    c_zero_pairings: tuple[int, ...]
    passed: bool


def example_b31_report(limits: SearchLimits | None = None) -> ExampleB31Report:
    """Check that B(3, 1) is obstructed, via the unique direct-sum embedding.

    The direct sum of the rank-one norm-9 lattice and the chain lattice
    (2, 2, 2, 3) embeds in Z^5 in exactly one way up to symmetry, and that
    embedding fails the unit-pairing conditions: four ambient coordinates
    miss the rank-one factor and the remaining one misses the chain factor.
    """
    problem = build_problem([BallSpec(3, 1)])
    fulls = full_embedding_classes(problem, limits=limits)
    report = check_obstruction(problem, limits=limits)
    m_zero: tuple[int, ...] = ()
    c_zero: tuple[int, ...] = ()
    if fulls:
        rows = fulls[0]
        profile = unit_pairing_profile((rows[0],), rows[1:], problem.ambient)
        m_zero = tuple(i + 1 for i, ok in enumerate(profile.m_flags) if not ok)
        c_zero = tuple(i + 1 for i, ok in enumerate(profile.c_flags) if not ok)
    passed = (len(fulls) == 1 and report.verdict == OBSTRUCTED
              and bool(m_zero) and bool(c_zero))
    return ExampleB31Report(len(fulls), report.verdict, m_zero, c_zero, passed)


# ---------------------------------------------------------------------------
# Machine-readable documents (integers as decimal strings, no floats)


def _s(x) -> str:
    return str(int(x))


def report_to_doc(report: ObstructionReport, include_timing: bool = False) -> dict:
    """Serialise a report; integer values become decimal strings.

    Timing is omitted by default so identical runs emit identical documents.
    """
    stats = {
        "nodes": _s(report.statistics.nodes),
        "leaves": _s(report.statistics.leaves),
        "classes": _s(report.statistics.classes),
        "limit_hit": report.statistics.limit_hit,
    }
    if include_timing:
        stats["elapsed_ms"] = _s(report.statistics.elapsed_ms)
    return {
        "schema": "obstruction-report@2",
        "problem": {
            "balls": [{"p": _s(b.p), "q": _s(b.q)} for b in report.problem.balls],
            "m_norm": _s(report.problem.m_norm),
            "ambient": _s(report.problem.ambient),
            "component_weights": [[_s(c.gram[i][i]) for i in range(c.rank)]
                                  for c in report.problem.components],
        },
        "verdict": report.verdict,
        "witnesses": [
            {
                "embedding": [[_s(x) for x in row] for row in w.embedding],
                "generator": [_s(x) for x in w.generator],
            }
            for w in report.witnesses
        ],
        "statistics": stats,
    }


def report_from_doc(doc: dict) -> ObstructionReport:
    """Rebuild a report from its document form; inverse of report_to_doc."""
    if doc.get("schema") != "obstruction-report@2":
        raise UsageError(f"unexpected schema {doc.get('schema')!r}")
    balls = [BallSpec(int(b["p"]), int(b["q"])) for b in doc["problem"]["balls"]]
    problem = build_problem(balls)
    if (problem.m_norm != int(doc["problem"]["m_norm"])
            or problem.ambient != int(doc["problem"]["ambient"])):
        raise UsageError("document problem data is inconsistent with its ball list")
    witnesses = tuple(
        Witness(tuple(tuple(int(x) for x in row) for row in w["embedding"]),
                tuple(int(x) for x in w["generator"]))
        for w in doc["witnesses"])
    stats = doc["statistics"]
    statistics = SearchStats(nodes=int(stats["nodes"]), leaves=int(stats["leaves"]),
                             classes=int(stats["classes"]),
                             limit_hit=bool(stats["limit_hit"]),
                             elapsed_ms=int(stats.get("elapsed_ms", 0)))
    return ObstructionReport(problem, str(doc["verdict"]), witnesses, statistics)


def lemma_report_to_doc(report: ChainClassificationReport) -> dict:
    return {
        "schema": "chain-classification@1",
        "n": _s(report.n),
        "ambient": _s(report.ambient),
        "weights": [_s(w) for w in report.weights],
        "class_count": _s(report.class_count),
        "classes": [
            {
                "support": _s(c.support),
                "complement_rank": _s(c.complement_rank),
                "complement_norm": None if c.complement_norm is None else _s(c.complement_norm),
                "has_unit_vectors": c.has_unit_vectors,
            }
            for c in report.classes
        ],
    }


def example_b31_to_doc(report: ExampleB31Report) -> dict:
    return {
        "schema": "verify-example-b31@1",
        "class_count": _s(report.class_count),
        "verdict": report.verdict,
        "unit_vectors_missing_m_factor": [_s(i) for i in report.m_zero_pairings],
        "unit_vectors_missing_c_factor": [_s(i) for i in report.c_zero_pairings],
        "passed": report.passed,
    }
