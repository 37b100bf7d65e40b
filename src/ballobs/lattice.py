"""Integer lattices with ordered bases, and exhaustive embedding enumeration.

A lattice is presented by its Gram matrix; the generators ("vertices") are
numbered 1..k in basis order.  An embedding into Z^m is an integer matrix A
with A A^T equal to the Gram matrix, considered up to the automorphisms of
Z^m, i.e. up to permuting and flipping signs of the ambient orthonormal
basis.

The search places one vertex image at a time.  Candidates for the next row
are integer vectors with the required inner products against the rows already
placed, enumerated on the touched coordinates by the kernel in
:mod:`ballobs.kernels`, then padded with a weakly decreasing block of positive
entries on fresh coordinates.  Insisting that fresh coordinates are consumed
left to right with positive, sorted entries removes the sign and
permutation freedom of untouched coordinates.  The tie rule removes the
rest: where two touched columns are identical over the rows placed so far,
swapping them fixes those rows, so the kernel keeps only next rows whose
entries on such a pair are weakly decreasing.  Every leaf is then already
the canonical form of its class (see :func:`search_embedding_classes`), and
the search raises InternalCheckError at any leaf that is not.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InternalCheckError, LimitExceeded, UsageError

DEFAULT_NODE_BUDGET = 10 ** 8

# int64 overflow in the kernel is impossible while diagonal norms stay small;
# rank is capped where the exact minor check stays cheap.
MAX_AMBIENT = 64
MAX_DIAGONAL = 10 ** 6


def _as_int_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# Gram lattices


@dataclass(frozen=True)
class GramLattice:
    """A finite-rank lattice presented by a symmetric integer Gram matrix."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = _as_int_rows(self.gram)
        if g != tuple(tuple(row) for row in self.gram):
            raise UsageError("Gram matrix entries must be integers")
        if not g:
            raise UsageError("lattice must have rank >= 1")
        k = len(g)
        if any(len(row) != k for row in g):
            raise UsageError("Gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(k) for j in range(i)):
            raise UsageError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return len(self.gram)


def linear_lattice(weights) -> GramLattice:
    """The lattice of a weighted path: weights on the diagonal, -1 off it."""
    w = tuple(int(a) for a in weights)
    if not w:
        raise UsageError("weight list must be nonempty")
    k = len(w)
    gram = tuple(tuple(w[i] if i == j else (-1 if abs(i - j) == 1 else 0)
                       for j in range(k)) for i in range(k))
    return GramLattice(gram)


def direct_sum(l1: GramLattice, l2: GramLattice) -> GramLattice:
    """Block-diagonal sum; basis order is l1's vertices then l2's."""
    k1, k2 = l1.rank, l2.rank
    gram = []
    for i in range(k1):
        gram.append(tuple(l1.gram[i]) + (0,) * k2)
    for i in range(k2):
        gram.append((0,) * k1 + tuple(l2.gram[i]))
    return GramLattice(tuple(gram))


def leading_principal_minors(gram) -> list[int]:
    """Exact leading principal minors, by fraction-free elimination.

    Stops after a zero pivot (later minors are then irrelevant for
    definiteness checks).
    """
    m = [list(row) for row in gram]
    n = len(m)
    minors = []
    prev = 1
    for j in range(n):
        piv = m[j][j]
        minors.append(piv)
        if piv == 0:
            break
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                m[i][c] = (m[i][c] * piv - m[i][j] * m[j][c]) // prev
        prev = piv
    return minors


def matrix_determinant(rows) -> int:
    """Exact determinant of any square integer matrix (Bareiss elimination)."""
    m = [[int(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise UsageError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for j in range(n - 1):
        if m[j][j] == 0:
            for i in range(j + 1, n):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                m[i][c] = (m[i][c] * m[j][j] - m[i][j] * m[j][c]) // prev
            m[i][j] = 0
        prev = m[j][j]
    return sign * m[n - 1][n - 1]


def is_positive_definite(l: GramLattice) -> bool:
    """Positive-definiteness via exact leading principal minors."""
    return all(d > 0 for d in leading_principal_minors(l.gram))


# ---------------------------------------------------------------------------
# Embedding matrices


def is_isometric_embedding(l: GramLattice, rows) -> bool:
    """True iff A A^T equals the Gram matrix (exact integer arithmetic)."""
    a = _as_int_rows(rows)
    if len(a) != l.rank:
        raise UsageError(f"embedding has {len(a)} rows for a rank-{l.rank} lattice")
    widths = {len(r) for r in a}
    if len(widths) != 1:
        raise UsageError("embedding rows must all have the same length")
    for i in range(len(a)):
        for j in range(i + 1):
            dot = sum(x * y for x, y in zip(a[i], a[j]))
            if dot != l.gram[i][j]:
                return False
    return True


def canonical_form(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of a matrix under signed column permutations.

    Each column's first nonzero entry (scanning rows top-down) is made
    positive, then columns are sorted in descending lexicographic order.  Two
    matrices lie in the same orbit of the ambient automorphism group iff their
    canonical forms are equal.
    """
    a = _as_int_rows(rows)
    cols = []
    for col in zip(*a):
        if next((x for x in col if x), 0) < 0:
            col = tuple(-x for x in col)
        cols.append(col)
    cols.sort(reverse=True)
    return tuple(tuple(col[i] for col in cols) for i in range(len(a)))


def is_primitive_vector(v) -> bool:
    """True iff the gcd of the coordinates is 1.  The zero vector is rejected."""
    vv = [abs(int(x)) for x in v]
    if not any(vv):
        raise UsageError("primitivity is undefined for the zero vector")
    return math.gcd(*vv) == 1


def integer_kernel(rows, m: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {x in Z^m : x . r = 0 for every row r}.

    This is the saturated orthogonal complement of the row span.  Computed by
    unimodular row reduction of [A^T | I], reading the kernel off the rows
    whose A^T part vanishes; the result is automatically a basis of the full
    (hence saturated) kernel lattice.
    """
    a = [[int(x) for x in row] for row in rows]
    k = len(a)
    if any(len(row) != m for row in a):
        raise UsageError(f"rows must have length {m}")
    b = [[a[j][i] for j in range(k)] + [1 if t == i else 0 for t in range(m)]
         for i in range(m)]
    r = 0
    for col in range(k):
        while True:
            nz = [i for i in range(r, m) if b[i][col] != 0]
            if not nz:
                piv = None
                break
            if len(nz) == 1:
                piv = nz[0]
                break
            nz.sort(key=lambda i: abs(b[i][col]))
            p = nz[0]
            for i in nz[1:]:
                q = b[i][col] // b[p][col]
                if q:
                    b[i] = [x - q * y for x, y in zip(b[i], b[p])]
        if piv is None:
            continue
        b[r], b[piv] = b[piv], b[r]
        if b[r][col] < 0:
            b[r] = [-x for x in b[r]]
        r += 1
    kernel = []
    for i in range(r, m):
        row = b[i][k:]
        for lead in row:
            if lead:
                if lead < 0:
                    row = [-x for x in row]
                break
        kernel.append(tuple(row))
    return tuple(kernel)


@dataclass(frozen=True)
class OrthogonalComplement:
    """Saturated orthogonal complement of an embedded sublattice in Z^m."""

    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def generator(self) -> tuple[int, ...]:
        if self.rank != 1:
            raise UsageError(f"complement has rank {self.rank}, not 1")
        return self.basis[0]

    @property
    def generator_norm(self) -> int:
        g = self.generator
        return sum(x * x for x in g)


def orthogonal_complement(rows, m: int) -> OrthogonalComplement:
    """Saturated complement of the row span in Z^m.

    For a corank-one embedding the basis is a single primitive generator.
    """
    return OrthogonalComplement(integer_kernel(rows, m))


@dataclass(frozen=True)
class PairingProfile:
    """Which ambient unit vectors pair nonzero with each of two orthogonal images."""

    m_flags: tuple[bool, ...]
    c_flags: tuple[bool, ...]

    @property
    def passes(self) -> bool:
        return all(self.m_flags) and all(self.c_flags)


def unit_pairing_profile(m_rows, c_rows, m: int) -> PairingProfile:
    """For each e_i, report whether it pairs nonzero with both row images.

    e_i pairs nonzero with an image iff column i of that matrix is nonzero.
    The two images must be mutually orthogonal.
    """
    am = _as_int_rows(m_rows)
    ac = _as_int_rows(c_rows)
    for rows in (am, ac):
        if any(len(r) != m for r in rows):
            raise UsageError(f"all rows must have length {m}")
    for u in am:
        for v in ac:
            if sum(x * y for x, y in zip(u, v)) != 0:
                raise UsageError("images are not orthogonal")
    m_flags = tuple(any(row[i] for row in am) for i in range(m))
    c_flags = tuple(any(row[i] for row in ac) for i in range(m))
    return PairingProfile(m_flags, c_flags)


# ---------------------------------------------------------------------------
# Embedding enumeration


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for a single enumeration; exceeding either aborts the search
    with a LimitExceeded carrying partial statistics."""

    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: float | None = None

    def __post_init__(self):
        if not isinstance(self.node_budget, int) or isinstance(self.node_budget, bool):
            raise UsageError(f"node budget must be an integer, got {self.node_budget!r}")
        if self.node_budget < 1:
            raise UsageError("node budget must be positive")
        # Written so that NaN, which compares false both ways, is rejected.
        if self.time_budget is not None and not self.time_budget > 0:
            raise UsageError("time budget must be positive")


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    leaves: int
    classes: int
    limit_hit: bool = False
    elapsed_ms: int = field(compare=False, default=0)


@dataclass(frozen=True)
class EmbeddingClass:
    """Canonical representative of an embedding orbit."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def ambient(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def support(self) -> tuple[int, ...]:
        """Indices (0-based) of the ambient coordinates the image touches."""
        return tuple(j for j in range(self.ambient)
                     if any(row[j] for row in self.matrix))


@dataclass(frozen=True)
class EmbeddingSearchResult:
    classes: tuple[EmbeddingClass, ...]
    stats: SearchStats


@lru_cache(maxsize=None)
def _square_parts(n: int, max_parts: int, cap: int) -> tuple[tuple[int, ...], ...]:
    # Weakly decreasing positive integers, each <= cap, whose squares sum to n,
    # using at most max_parts of them.
    if n == 0:
        return ((),)
    if max_parts <= 0:
        return ()
    out = []
    top = min(cap, math.isqrt(n))
    for c in range(top, 0, -1):
        for rest in _square_parts(n - c * c, max_parts - 1, c):
            out.append((c,) + rest)
    return tuple(out)


# Nodes of one depth answered by one kernel call.  Larger chunks save kernel
# calls on bushy trees but hold more of the frontier in memory.  On the
# benchmark's Markov-witness workload, chunks of 64 raised peak resident
# memory by 14% over chunks of 16, chunks of 32 by 5%.  From 128 on, a search
# stopped by a node budget slows down: its last chunk computes thousands of
# children that the budget never reaches.
_CHUNK = 32
# Pending rows are stored compactly: an entry of a row of norm at most
# MAX_DIAGONAL is at most isqrt(MAX_DIAGONAL) = 1000 in absolute value.
_ROW_DTYPE = "int16"


@dataclass
class _Frame:
    """The children of one expanded chunk, waiting to be expanded in turn.

    Child j has the rows ``rows[parent[j]]`` followed by ``new[j]`` and
    touches ``used[j]`` ambient columns; ``next`` is the first child not yet
    expanded.
    """

    rows: np.ndarray
    parent: np.ndarray
    new: np.ndarray
    used: list[int]
    next: int = 0


def search_embedding_classes(l: GramLattice, m: int,
                             limits: SearchLimits | None = None) -> EmbeddingSearchResult:
    """Exhaustively enumerate the embedding classes of ``l`` in Z^m.

    Returns the classes in lexicographic order of their canonical matrices,
    together with search statistics.  Raises LimitExceeded (carrying partial
    statistics and the classes found so far) if a budget runs out.

    Row i is placed on the ``used`` touched columns by the kernel and then
    padded with a positive, weakly decreasing block on fresh columns.  Two
    symmetry cuts keep the search orderly (Read 1978; McKay 1998):

    * Fresh columns are consumed left to right, positive and sorted.
    * Tie rule: where touched columns c and c+1 are equal over
      ``rows[:i]``, row i must have x[c] >= x[c+1].  The kernel reads the
      ties off the rows it is given and applies the rule during its scan.

    Soundness.  Every touched column has a positive first nonzero entry, in
    the row that first touched it.  So no column equals the negation of
    another, and the stabiliser of the placed rows, restricted to touched
    columns, is exactly the set of permutations within blocks of identical
    columns.  Identical columns share their first-touch row.  Under both
    cuts each first-touch block stays lexicographically descending: its
    entries in the first-touch row are sorted, and the tie rule orders
    every later row wherever the columns above still agree.  Hence
    identical columns are adjacent, and comparing neighbours is enough.

    Completeness.  ``canonical_form`` makes first nonzeros positive and
    sorts columns in descending lexicographic order, so its columns are
    grouped by first-touch row, each block descending, with the zero
    columns last.  That matrix satisfies both cuts at every row, and the
    kernel returns every solution of the row constraints that obeys the tie
    rule, so the canonical form of every class is a leaf.  Conversely every
    leaf satisfies the same ordering, so it is its own canonical form:
    leaves and classes correspond one to one.  Each leaf is checked against
    its canonical form, and InternalCheckError is raised if they differ.

    The walk.  Pending nodes wait in a stack of frames, one per depth, each
    holding the children of one expanded chunk.  Each step takes up to
    ``_CHUNK`` nodes from the top frame and answers all of them with one
    kernel call; their children become the new top frame, so the walk goes
    deep first and memory stays bounded by the depth times one chunk's
    children.  A node's children depend only on the node, so the chunked
    walk visits exactly the node set of a node-by-node depth-first search,
    and the soundness and completeness argument above carries over.  So the
    chunk size trades kernel calls against frontier memory and changes no
    count of a completed search: chunks of 32 answer triple (2,5,29), 578
    nodes, with 51 calls where chunks of 16 take 82.  Every child is
    counted as a node, checked against both budgets, and, at full depth,
    checked as a leaf, one at a time.  The order differs from a node-by-node
    search: a run cut short by a budget may have walked a different prefix
    of the tree, and so found different partial classes.
    """
    # numpy loads here, on the first search, so that commands which never
    # search do not pay for importing it.
    import numpy as np

    from .kernels import constrained_vectors

    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise UsageError(f"ambient rank must be a positive integer, got {m!r}")
    if m > MAX_AMBIENT:
        raise UsageError(f"ambient rank {m} exceeds the supported maximum {MAX_AMBIENT}")
    if not is_positive_definite(l):
        raise UsageError("embedding search requires a positive-definite Gram matrix")
    if max(l.gram[i][i] for i in range(l.rank)) > MAX_DIAGONAL:
        raise UsageError(f"diagonal entries above {MAX_DIAGONAL} are not supported")
    limits = limits or SearchLimits()
    k = l.rank
    gram = np.array(l.gram, dtype=np.int64)
    found: list[tuple[tuple[int, ...], ...]] = []
    nodes = 0
    leaves = 0
    start = time.monotonic()
    deadline = None if limits.time_budget is None else start + limits.time_budget

    def stats(hit: bool) -> SearchStats:
        return SearchStats(nodes=nodes, leaves=leaves, classes=len(found), limit_hit=hit,
                           elapsed_ms=int((time.monotonic() - start) * 1000))

    def partial() -> tuple[EmbeddingClass, ...]:
        return tuple(EmbeddingClass(mat) for mat in sorted(found))

    stack: list[_Frame] = []

    def expand(rows, used: list[int]) -> None:
        # Place row i on every node of a chunk with one kernel call, count and
        # check each child, file the leaves and push the rest as a frame.
        nonlocal nodes, leaves
        i = rows.shape[1]
        norm = int(gram[i, i])
        owner, cands = constrained_vectors(rows[:, :, :max(used)], used, gram[i, :i], norm)
        u = cands.shape[1] - 1
        src, child_used = [], []    # each child's candidate and touched columns
        at, cols, vals = [], [], []  # its entries on fresh columns
        for n, (b, leftover) in enumerate(zip(owner.tolist(), (norm - cands[:, u]).tolist())):
            ub = used[b]
            for parts in _square_parts(leftover, m - ub, math.isqrt(leftover)):
                nodes += 1
                if nodes > limits.node_budget:
                    raise LimitExceeded(f"node budget {limits.node_budget} exhausted",
                                        stats(True), partial())
                if deadline is not None and time.monotonic() > deadline:
                    raise LimitExceeded(f"time budget {limits.time_budget}s exhausted",
                                        stats(True), partial())
                s = len(parts)
                if i + 1 < k:
                    at += [len(src)] * s
                    cols += range(ub, ub + s)
                    vals += parts
                    src.append(n)
                    child_used.append(ub + s)
                    continue
                row = cands[n, :ub].tolist() + list(parts) + [0] * (m - ub - s)
                mat = np.array(rows[b].tolist() + [row], dtype=np.int64)
                if not np.array_equal(mat @ mat.T, gram):
                    raise InternalCheckError("search leaf is not an isometric embedding")
                leaf = _as_int_rows(mat)
                if canonical_form(leaf) != leaf:
                    raise InternalCheckError("search leaf is not its own canonical form")
                found.append(leaf)
                leaves += 1
        if src:
            new = np.zeros((len(src), m), dtype=_ROW_DTYPE)
            new[:, :u] = cands[src, :u]
            new[at, cols] = vals
            stack.append(_Frame(rows, owner[src], new, child_used))

    # Depth-first over chunks: the top frame's next chunk is expanded, and
    # its children, one depth further down, become the new top frame.
    expand(np.zeros((1, 0, m), dtype=_ROW_DTYPE), [0])
    while stack:
        frame = stack[-1]
        chunk = slice(frame.next, frame.next + _CHUNK)
        frame.next += _CHUNK
        if frame.next >= len(frame.used):
            stack.pop()
        expand(np.concatenate([frame.rows[frame.parent[chunk]], frame.new[chunk, None, :]],
                              axis=1), frame.used[chunk])
    classes = tuple(EmbeddingClass(mat) for mat in sorted(found))
    return EmbeddingSearchResult(classes, stats(False))
