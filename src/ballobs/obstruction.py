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
from .lattice import (MAX_AMBIENT, EmbeddingClass, SearchStats, is_isometric_embedding,
                      linear_lattice, orthogonal_complement, search_embedding_classes)
from .markov import BallSpec

REPORT_SCHEMA = "obstruction-report@3"
OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"


class ObstructionProblem(namedtuple("ObstructionProblem",
                                     "balls m_norm components ambient c_lattice")):
    """The lattice problem attached to a list of balls: the balls, the
    Lambda_M norm prod(p_i^2), each ball's plumbing weights, the ambient rank
    m and Lambda_C, the direct sum of the components' chain lattices in
    order."""

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
        components.append(weights)
    c_lattice = linear_lattice(*components)
    return ObstructionProblem(balls, m_norm, tuple(components), 1 + c_lattice.rank, c_lattice)


class Witness(namedtuple("Witness", "embedding generator")):
    """A Lambda_C embedding class satisfying every obstruction condition.

    ``embedding`` holds the canonical Lambda_C image rows; ``generator`` is
    the complement generator in the same coordinates (the Lambda_M image up
    to sign).
    """

    __slots__ = ()


class ClassRecord(namedtuple("ClassRecord", "index generator_zeros missed")):
    """Why one searched Lambda_C class is or is not a witness: the index s of
    its image in its saturation, read off w.w * s^2 = m_norm = det Lambda_C
    for its complement generator w, the coordinates (1-based) where w is zero, and
    the coordinates (1-based) the image misses.  The class is a witness
    exactly when s = 1 and both tuples are empty."""

    __slots__ = ()

    @property
    def is_witness(self) -> bool:
        return self.index == 1 and not self.generator_zeros and not self.missed


class ObstructionReport(namedtuple("ObstructionReport",
                                   "problem verdict witnesses records statistics")):
    """The verdict on a problem, its sorted witnesses, one ClassRecord per
    searched class in search order (partial classes included) and the
    SearchStats of the search behind it."""

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


def check_obstruction(problem: ObstructionProblem,
                      limits: SearchLimits | None = None) -> ObstructionReport:
    """Decide the embedding obstruction for the given ball list.

    NOT_OBSTRUCTED requires an explicit witness (re-verified from scratch);
    OBSTRUCTED requires the enumeration to have completed exhaustively;
    INCONCLUSIVE reports budget exhaustion without a witness.  Only Lambda_C
    is enumerated; Lambda_M is read off the generator of the rank-one
    complement, which ``orthogonal_complement`` returns primitive and with
    its first nonzero entry positive.  Each class's ClassRecord decides it.
    """
    try:
        result = search_embedding_classes(problem.c_lattice, problem.ambient, limits=limits)
        classes, stats = result.classes, result.stats
    except LimitExceeded as exc:
        # budget exhaustion still yields the classes found so far
        classes, stats = exc.partial_classes, exc.stats
    # Each class gives at most one witness, so the witnesses come out sorted
    # like the classes.
    records, witnesses = [], []
    for cls in classes:
        w = orthogonal_complement(cls.matrix, problem.ambient)
        norm = sum(x * x for x in w)
        # det Lambda_C = m_norm = s^2 w.w: anything else is a fault.
        s = math.isqrt(problem.m_norm // norm)
        if s * s * norm != problem.m_norm:
            raise InternalCheckError(f"w.w = {norm} times a square is not {problem.m_norm}")
        records.append(ClassRecord(s, tuple(j for j, x in enumerate(w, 1) if not x),
                                   tuple(j for j, col in enumerate(zip(*cls.matrix), 1)
                                         if not any(col))))
        if records[-1].is_witness:
            witness = Witness(cls.matrix, w)
            verify_witness(problem, witness)
            witnesses.append(witness)
    return ObstructionReport(problem, _verdict(witnesses, stats), tuple(witnesses),
                             tuple(records), stats)


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
        "ChainClassificationReport", "weights ambient classes summaries statistics")):
    """The embedding classes of a chain lattice in Z^ambient, in search
    order, the ClassSummary of each, and the SearchStats of their search."""

    __slots__ = ()

    @property
    def class_count(self) -> int:
        return len(self.classes)


def classify_chain(weights, m: int,
                   limits: SearchLimits | None = None) -> ChainClassificationReport:
    """Search the embedding classes of ``linear_lattice(weights)`` in Z^m and
    take the :func:`class_summary` of each."""
    result = search_embedding_classes(linear_lattice(weights), m, limits=limits)
    return ChainClassificationReport(weights, m, result.classes,
                                     tuple(map(class_summary, result.classes)), result.stats)


def lemma_cemb_report(n: int, m: int,
                      limits: SearchLimits | None = None) -> ChainClassificationReport:
    """Classify embeddings of the chain lattice (3^(n-1), 2, 2, 3^(n-1), 2) in Z^m.

    With r = 2n+1 the classes include the three-support family: support r
    with complement rank 0, support r+1 with a rank-one complement of norm
    F(2n+1)^2, and support 4n.  For n = 2 there are no other classes; from
    n = 3 on, further classes appear alongside those three.  ``verify
    lemma-cemb`` checks this.
    """
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (n, m)):
        raise UsageError(f"n and m must be integers, got {(n, m)!r}")
    if n < 2:
        raise UsageError(f"need n >= 2, got {n!r}")
    if m < 4 * n:
        raise UsageError(f"need m >= 4n = {4 * n} to see all classes, got {m}")
    if m > MAX_AMBIENT:  # bounds n before the weights, and the Gram matrix, are built
        raise UsageError(f"ambient rank {m} exceeds the supported maximum {MAX_AMBIENT}")
    return classify_chain((3,) * (n - 1) + (2, 2) + (3,) * (n - 1) + (2,), m, limits)


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
        "schema": REPORT_SCHEMA,
        "problem": {
            "balls": [{"p": b.p, "q": b.q} for b in report.problem.balls],
            "m_norm": report.problem.m_norm,
            "ambient": report.problem.ambient,
            "component_weights": report.problem.components,
        },
        "verdict": report.verdict,
        "witnesses": [{"embedding": w.embedding, "generator": w.generator}
                      for w in report.witnesses],
        "records": [r._asdict() for r in report.records],
        "statistics": stats,
    })


def _searchable(record: ClassRecord, m: int, m_norm: int) -> bool:
    # Whether a search can give this record (docs/decisions.md, "A witness is
    # exactly a class of index 1"): s^2 divides m_norm, both tuples rise
    # strictly inside 1..m, s = 1 leaves both empty, and a missed j is the
    # only one, with s^2 = m_norm and w = +-e_j zero everywhere else.
    s, zeros, missed = record
    if s < 1 or m_norm % (s * s) or (s == 1 and (zeros or missed)):
        return False
    if not all(a < b for t in (zeros, missed) for a, b in zip((0,) + t, t + (m + 1,))):
        return False
    return not missed or (len(missed) == 1 and s * s == m_norm
                          and zeros == tuple(j for j in range(1, m + 1) if j != missed[0]))


def report_from_doc(doc: dict) -> ObstructionReport:
    """Rebuild a report from its document form; inverse of report_to_doc.

    The document is outside data, so it is accepted only if it equals what
    ``report_to_doc`` writes for the report it rebuilds, with or without
    ``elapsed_ms``: no other key, container type or integer form passes.
    Its ``limit_hit`` must also be a JSON boolean and its verdict the one its
    witnesses and ``limit_hit`` give.  It must hold one class record per
    class, each one a search can give, as many of them witness records as
    there are witnesses, and every witness is re-verified.  Anything else is
    a UsageError.
    """
    if not isinstance(doc, dict):
        raise UsageError(f"a report document is a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != REPORT_SCHEMA:
        raise UsageError(f"unexpected schema {doc.get('schema')!r}")
    try:
        balls = [BallSpec(int(b["p"]), int(b["q"])) for b in doc["problem"]["balls"]]
        witnesses = tuple(Witness(tuple(tuple(map(int, row)) for row in w["embedding"]),
                                  tuple(map(int, w["generator"])))
                          for w in doc["witnesses"])
        records = tuple(ClassRecord(int(r["index"]), tuple(map(int, r["generator_zeros"])),
                                    tuple(map(int, r["missed"])))
                        for r in doc["records"])
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
    report = ObstructionReport(build_problem(balls), verdict, witnesses, records, statistics)
    if report_to_doc(report, elapsed_ms) != doc:
        raise UsageError("malformed report document: inconsistent with its ball list, or "
                         "not in the form report_to_doc writes")
    if verdict != _verdict(witnesses, statistics):
        raise UsageError(f"verdict {verdict} contradicts the witnesses and limit_hit")
    if len(records) != statistics.classes:
        raise UsageError(f"{len(records)} class records for {statistics.classes} classes")
    for i, r in enumerate(records, 1):
        if not _searchable(r, report.problem.ambient, report.problem.m_norm):
            raise UsageError(f"class record {i}, {tuple(r)}, is not one a search can produce")
    if sum(r.is_witness for r in records) != len(witnesses):
        raise UsageError("the class records disagree with the witnesses")
    for witness in witnesses:
        try:
            verify_witness(report.problem, witness)
        except InternalCheckError as exc:
            raise UsageError(f"document witness rejected: {exc}") from None
    return report
