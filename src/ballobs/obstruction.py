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
import operator
from collections import namedtuple

from .contfrac import ball_boundary, lens_plumbing
from .errors import (InternalCheckError, LimitExceeded, SearchLimits, UsageError,
                     document_values)
from .lattice import (MAX_AMBIENT, EmbeddingClass, SearchStats, canonical_form,
                      direct_sum, is_isometric_embedding, linear_lattice,
                      orthogonal_complement, search_embedding_classes)
from .markov import BallSpec

OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"


class ObstructionProblem(namedtuple("ObstructionProblem",
                                     "balls m_norm components ambient c_lattice")):
    """The lattice problem attached to a list of balls: the balls, the
    Lambda_M norm prod(p_i^2), each ball's plumbing lattice, the ambient rank
    m and Lambda_C, the direct sum of the components in order."""

    __slots__ = ()


def build_problem(balls) -> ObstructionProblem:
    """Assemble the lattice problem for a (possibly single-entry) list of balls."""
    balls = tuple(balls)
    if not balls:
        raise UsageError("at least one ball is required")
    m_norm = math.prod(b.p * b.p for b in balls)
    # The search takes m = 1 + rank(Lambda_C) <= MAX_AMBIENT, so each
    # expansion stops as soon as the rank passes MAX_AMBIENT - 1: a plumbing
    # can have millions of vertices, too many to expand or put in a Gram
    # matrix.  A BallSpec's plumbing can fail on nothing but that length.
    room = MAX_AMBIENT - 1
    components = []
    for b in balls:
        try:
            # Through this module's lens_plumbing, which perfbench's tracer
            # wraps to time the contfrac layer.
            weights = lens_plumbing(*ball_boundary(b), max_length=room)
        except UsageError:
            raise UsageError(f"ambient rank exceeds the supported maximum {MAX_AMBIENT}") from None
        room -= len(weights)
        components.append(linear_lattice(weights))
    components = tuple(components)
    c_lattice = components[0]
    for extra in components[1:]:
        c_lattice = direct_sum(c_lattice, extra)
    return ObstructionProblem(balls, m_norm, components, 1 + c_lattice.rank, c_lattice)


class Witness(namedtuple("Witness", "embedding generator")):
    """A Lambda_C embedding class satisfying every obstruction condition.

    ``embedding`` holds the canonical Lambda_C image rows; ``generator`` is
    the complement generator in the same coordinates (the Lambda_M image up
    to sign).
    """

    __slots__ = ()


class ObstructionReport(namedtuple("ObstructionReport",
                                   "problem verdict witnesses statistics")):
    """The verdict on a problem, its sorted witnesses and the SearchStats of
    the search behind it."""

    __slots__ = ()


def verify_witness(problem: ObstructionProblem, witness: Witness) -> None:
    """Re-derive every witness condition from scratch; raise on any failure.

    Checks the assembled matrix A (generator stacked on the embedding)
    against the full direct-sum Gram matrix diag(m_norm) (+) Gram(Lambda_C),
    block by block: the embedding against Gram(Lambda_C), then the
    generator's norm and its inner products with the embedding.  Then
    primitivity of the generator, and the unit-pairing conditions: every
    ambient unit vector pairs nonzero with both factors, that is, the
    generator has no zero entry and no column of the embedding is zero.
    Rows of any length but m = 1 + rank(Lambda_C), and entries that are not
    ints (numpy arrays are read with ``tolist``), are rejected first with
    ``UsageError``, so A is square, and A A^T = diag(m_norm) (+)
    Gram(Lambda_C) already gives the finite-index identity
    det(A)^2 = m_norm * det(Lambda_C).
    """
    m = problem.ambient
    w, rows = witness.generator, witness.embedding
    w = w.tolist() if hasattr(w, "tolist") else w
    if len(w) != m or any(len(row) != m for row in rows):
        raise UsageError(f"all rows must have length {m}")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in w):
        raise UsageError("witness generator entries must be integers")
    if (not is_isometric_embedding(problem.c_lattice, rows)
            or sum(x * x for x in w) != problem.m_norm
            or any(sum(map(operator.mul, w, row)) for row in rows)):
        raise InternalCheckError("witness rows do not realise the direct-sum Gram matrix")
    # w.w == m_norm > 0 above, so w is not the zero vector.
    if math.gcd(*w) != 1:
        raise InternalCheckError("witness generator is not primitive")
    if 0 in w or not all(map(any, zip(*rows))):
        raise InternalCheckError("witness fails the unit-pairing conditions")


def _verdict(witnesses, stats: SearchStats) -> str:
    # A witness decides; without one, only a completed search does.
    if witnesses:
        return NOT_OBSTRUCTED
    return INCONCLUSIVE if stats.limit_hit else OBSTRUCTED


def _decide(problem: ObstructionProblem, classes, gens, stats: SearchStats) -> ObstructionReport:
    # The report from the sorted Lambda_C classes of a search, their
    # complement generators and its stats.  Each class gives at most one
    # witness, so the witnesses come out sorted too.
    witnesses = []
    for cls, w in zip(classes, gens):
        if sum(x * x for x in w) == problem.m_norm and all(w) and len(cls.support) == len(w):
            witness = Witness(cls.matrix, w)
            verify_witness(problem, witness)
            witnesses.append(witness)
    return ObstructionReport(problem, _verdict(witnesses, stats), tuple(witnesses), stats)


def _direct_sum_classes(problem: ObstructionProblem, classes, gens) -> tuple:
    # The sorted canonical Lambda_M (+) Lambda_C classes: +c w and -c w, for
    # c^2 w.w = m_norm, each stacked on the rows of w's class (the two signs
    # can canonicalise to different classes).
    fulls = set()
    for cls, w in zip(classes, gens):
        norm = sum(x * x for x in w)
        c = math.isqrt(problem.m_norm // norm)
        if c * c * norm == problem.m_norm:
            fulls.update(canonical_form((tuple(sign * c * x for x in w),) + cls.matrix)
                         for sign in (1, -1))
    return tuple(sorted(fulls))


def check_obstruction(problem: ObstructionProblem,
                      limits: SearchLimits | None = None) -> ObstructionReport:
    """Decide the embedding obstruction for the given ball list.

    NOT_OBSTRUCTED requires an explicit witness (re-verified from scratch);
    OBSTRUCTED requires the enumeration to have completed exhaustively;
    INCONCLUSIVE reports budget exhaustion without a witness.  Only Lambda_C
    is enumerated; Lambda_M is read off the generator of the rank-one
    complement, which ``orthogonal_complement`` returns primitive and with
    its first nonzero entry positive.
    """
    try:
        result = search_embedding_classes(problem.c_lattice, problem.ambient, limits=limits)
        classes, stats = result.classes, result.stats
    except LimitExceeded as exc:
        # budget exhaustion still yields the classes found so far
        classes, stats = exc.partial_classes, exc.stats
    gens = [orthogonal_complement(cls.matrix, problem.ambient) for cls in classes]
    return _decide(problem, classes, gens, stats)


# ---------------------------------------------------------------------------
# Chain-lattice classification report


class ClassSummary(namedtuple("ClassSummary", "support complement_rank complement_norm")):
    """The support size of a class and the rank and, at rank one, the
    generator norm of its complement."""

    __slots__ = ()


def class_summary(cls: EmbeddingClass) -> ClassSummary:
    """The support size of a class and its complement data inside the
    coordinate sublattice spanned by the support: rank, and generator norm
    when the rank is one.

    The restricted rows keep the lattice's positive-definite Gram matrix, so
    they are independent and the rank is the support size minus theirs; the
    complement itself is taken only for its generator, at rank one."""
    sup = cls.support
    rank = len(sup) - len(cls.matrix)
    norm1 = None
    if rank == 1:
        restricted = tuple(tuple(row[j] for j in sup) for row in cls.matrix)
        norm1 = sum(x * x for x in orthogonal_complement(restricted, len(sup)))
    return ClassSummary(len(sup), rank, norm1)


class ChainClassificationReport(namedtuple(
        "ChainClassificationReport", "n ambient weights class_count classes statistics")):
    """The classes of a chain lattice in Z^ambient, as sorted ClassSummary
    records, with the SearchStats of their search."""

    __slots__ = ()


def lemma_cemb_report(n: int, m: int,
                      limits: SearchLimits | None = None) -> ChainClassificationReport:
    """Classify embeddings of the chain lattice (3^(n-1), 2, 2, 3^(n-1), 2) in Z^m.

    Reports the :func:`class_summary` of each class.  For n = 2 there are
    exactly three classes, with supports r, r+1 and 4n (r = 2n+1) and a
    corank-one complement of norm F(2n+1)^2 in the middle one; from n = 3 on,
    further classes appear alongside those three.
    """
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (n, m)):
        raise UsageError(f"n and m must be integers, got {(n, m)!r}")
    if n < 2:
        raise UsageError(f"need n >= 2, got {n!r}")
    if m < 4 * n:
        raise UsageError(f"need m >= 4n = {4 * n} to see all classes, got {m}")
    if m > MAX_AMBIENT:  # the search's own check, made before the Gram matrix is built
        raise UsageError(f"ambient rank {m} exceeds the supported maximum {MAX_AMBIENT}")
    weights = (3,) * (n - 1) + (2, 2) + (3,) * (n - 1) + (2,)
    lat = linear_lattice(weights)
    result = search_embedding_classes(lat, m, limits=limits)
    summaries = [class_summary(cls) for cls in result.classes]
    summaries.sort(key=lambda s: (s.support, s.complement_rank, s.complement_norm or 0))
    return ChainClassificationReport(n, m, weights, len(summaries), tuple(summaries),
                                     result.stats)


class ExampleB31Report(namedtuple("ExampleB31Report", "class_count verdict m_zero_pairings "
                                                      "c_zero_pairings passed")):
    """Reproduction of the single-ball B(3, 1) computation in Z^5: the count
    of direct-sum classes, the verdict, the unit vectors (1-based) missing
    each factor, and whether all of it is as expected."""

    __slots__ = ()


def example_b31_report(limits: SearchLimits | None = None) -> ExampleB31Report:
    """Check that B(3, 1) is obstructed, via the unique direct-sum embedding.

    The direct sum of the rank-one norm-9 lattice and the chain lattice
    (2, 2, 2, 3) embeds in Z^5 in exactly one way up to symmetry, and that
    embedding fails the unit-pairing conditions: four ambient coordinates
    miss the rank-one factor and the remaining one misses the chain factor.
    One search gives both the verdict and the direct-sum classes, read off
    the same complements.  A budget that runs out raises.
    """
    problem = build_problem([BallSpec(3, 1)])
    result = search_embedding_classes(problem.c_lattice, problem.ambient, limits=limits)
    gens = [orthogonal_complement(cls.matrix, problem.ambient) for cls in result.classes]
    report = _decide(problem, result.classes, gens, result.stats)
    fulls = _direct_sum_classes(problem, result.classes, gens)
    m_zero: tuple[int, ...] = ()
    c_zero: tuple[int, ...] = ()
    if fulls:
        # e_i misses the rank-one factor where the top row is zero, and the
        # chain factor where the column of the rows below it is zero.
        top, *chain = fulls[0]
        m_zero = tuple(i + 1 for i, x in enumerate(top) if not x)
        c_zero = tuple(i + 1 for i, col in enumerate(zip(*chain)) if not any(col))
    passed = (len(fulls) == 1 and report.verdict == OBSTRUCTED
              and bool(m_zero) and bool(c_zero))
    return ExampleB31Report(len(fulls), report.verdict, m_zero, c_zero, passed)


# ---------------------------------------------------------------------------
# Machine-readable documents (integers as decimal strings, no floats)


def report_to_doc(report: ObstructionReport, elapsed_ms: int | None = None) -> dict:
    """Serialise a report through :func:`ballobs.errors.document_values`, so
    integer values become decimal strings.

    The statistics get an ``elapsed_ms`` entry only when ``elapsed_ms`` is
    given, so identical runs emit identical documents by default.
    """
    stats = report.statistics._asdict()
    if elapsed_ms is not None:
        stats["elapsed_ms"] = elapsed_ms
    return document_values({
        "schema": "obstruction-report@2",
        "problem": {
            "balls": [{"p": b.p, "q": b.q} for b in report.problem.balls],
            "m_norm": report.problem.m_norm,
            "ambient": report.problem.ambient,
            "component_weights": [[c.gram[i][i] for i in range(c.rank)]
                                  for c in report.problem.components],
        },
        "verdict": report.verdict,
        "witnesses": [{"embedding": w.embedding, "generator": w.generator}
                      for w in report.witnesses],
        "statistics": stats,
    })


def report_from_doc(doc: dict) -> ObstructionReport:
    """Rebuild a report from its document form; inverse of report_to_doc.

    The document is outside data, so it is accepted only if it equals what
    ``report_to_doc`` writes for the report it rebuilds, with or without
    ``elapsed_ms``: no other key, container type or integer form passes.
    Its ``limit_hit`` must also be a JSON boolean and its verdict the one its
    witnesses and ``limit_hit`` give, and every witness is re-verified.
    Anything else is a UsageError.
    """
    if not isinstance(doc, dict):
        raise UsageError(f"a report document is a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != "obstruction-report@2":
        raise UsageError(f"unexpected schema {doc.get('schema')!r}")
    try:
        balls = [BallSpec(int(b["p"]), int(b["q"])) for b in doc["problem"]["balls"]]
        witnesses = tuple(Witness(tuple(tuple(map(int, row)) for row in w["embedding"]),
                                  tuple(map(int, w["generator"])))
                          for w in doc["witnesses"])
        stats = doc["statistics"]
        limit_hit = stats["limit_hit"]
        statistics = SearchStats(int(stats["nodes"]), int(stats["leaves"]),
                                 int(stats["classes"]), limit_hit)
        # Read only to rebuild the document compared against below.
        elapsed_ms = int(stats["elapsed_ms"]) if "elapsed_ms" in stats else None
        verdict = doc["verdict"]
    except KeyError as exc:
        raise UsageError(f"report document lacks the key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed report document: {exc}") from None
    if not isinstance(limit_hit, bool):
        raise UsageError(f"limit_hit must be a JSON boolean, got {limit_hit!r}")
    # Checked before the comparison, whose document_values raises TypeError
    # on a verdict that is a JSON float.
    if verdict not in (OBSTRUCTED, NOT_OBSTRUCTED, INCONCLUSIVE):
        raise UsageError(f"unknown verdict {verdict!r}")
    report = ObstructionReport(build_problem(balls), verdict, witnesses, statistics)
    if report_to_doc(report, elapsed_ms) != doc:
        raise UsageError("malformed report document: inconsistent with its ball list, or "
                         "not in the form report_to_doc writes")
    if verdict != _verdict(witnesses, statistics):
        raise UsageError(f"verdict {verdict} contradicts the witnesses and limit_hit")
    for witness in witnesses:
        try:
            verify_witness(report.problem, witness)
        except InternalCheckError as exc:
            raise UsageError(f"document witness rejected: {exc}") from None
    return report
