"""Chain lattices, and exhaustive enumeration of their embeddings.

A chain lattice is weighted paths side by side, held as the weights of each
path and the Gram matrix they give; the generators ("vertices") are
numbered 1..k in basis order, through the paths in turn.  An embedding into
Z^m is an integer matrix A with A A^T equal to the Gram matrix, considered
up to the automorphisms of Z^m, i.e. up to permuting and flipping signs of
the ambient orthonormal basis.

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
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate

# SearchLimits lives with the errors, so that commands which never search
# validate budgets without loading this module.
from .errors import InternalCheckError, SearchLimits, UsageError

# int64 overflow in the kernel is impossible while diagonal norms stay small;
# the rank cap bounds the Gram matrix, which grows as the rank squared.
MAX_AMBIENT = 64
MAX_DIAGONAL = 10 ** 6


def _row_list(rows) -> list:
    # The rows as a list; a numpy array, or a numpy row, converts with tolist.
    rows = rows.tolist() if hasattr(rows, "tolist") else rows
    return [row.tolist() if hasattr(row, "tolist") else row for row in rows]


def _not_an_int(x):
    raise UsageError(f"matrix entries must be integers, got {x!r}")


def _nonzero_entries(rows) -> list[list[tuple[int, int]]]:
    # Each row's nonzero entries as (column, value) pairs, rows as _row_list
    # reads them.  Any entry that is not an int (bools too), zero or not, is
    # refused in the same pass.
    return [[(c, x) for c, x in enumerate(row) if (x if type(x) is int else _not_an_int(x))]
            for row in rows]


# ---------------------------------------------------------------------------
# Chain lattices


class ChainLattice(namedtuple("ChainLattice", "chains gram")):
    """Weighted paths side by side: each chain's weights as a tuple, and the
    Gram matrix as a tuple of row tuples.  :func:`linear_lattice` builds
    it."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.gram)


def linear_lattice(*chains) -> ChainLattice:
    """The lattice of weighted paths side by side: each chain's weights on
    the diagonal, -1 between neighbours on one chain, 0 elsewhere.  The
    basis runs through the chains in order, so several chains give the
    block-diagonal sum of their lattices."""
    chains = tuple(map(tuple, chains))
    if not chains or not all(chains):
        raise UsageError("weight list must be nonempty")
    w = sum(chains, ())
    if any(not isinstance(a, int) or isinstance(a, bool) for a in w):
        raise UsageError(f"weights must be integers, got {w!r}")
    k = len(w)
    if k > MAX_AMBIENT:  # checked before the Gram matrix, which grows as k^2
        raise UsageError(f"at most {MAX_AMBIENT} weights are supported, got {k}")
    # Vertex j > 0 is joined to j - 1 unless a chain starts at j.
    starts = set(accumulate(map(len, chains)))
    gram = tuple(tuple(w[i] if i == j else (-1 if abs(i - j) == 1 and max(i, j) not in starts
                                            else 0)
                       for j in range(k)) for i in range(k))
    return ChainLattice(chains, gram)


def is_positive_definite(l: ChainLattice) -> bool:
    """Sylvester's criterion, chain by chain: the Gram matrix is block
    diagonal, and the leading principal minors of a chain (a_1, ..., a_n)
    are its continuants d_i = a_i d_(i-1) - d_(i-2), with d_0 = 1, d_(-1) = 0."""
    for chain in l.chains:
        prev, d = 0, 1
        for a in chain:
            prev, d = d, a * d - prev
            if d <= 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Embedding matrices


def is_isometric_embedding(gram, rows) -> bool:
    """True iff A A^T equals ``gram``, a tuple of row tuples (exact integer
    arithmetic).

    The entries must be ints; a numpy array, or each numpy row of a
    sequence, is read with ``tolist``.
    """
    rows = _row_list(rows)
    k = len(rows)
    if k != len(gram):
        raise UsageError(f"embedding has {k} rows for a rank-{len(gram)} lattice")
    if len({len(r) for r in rows}) != 1:
        raise UsageError("embedding rows must all have the same length")
    # A A^T column by column, over each column's nonzero entries only.
    by_col: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(_nonzero_entries(rows)):
        for c, x in row:
            by_col.setdefault(c, []).append((i, x))
    prod = [[0] * k for _ in range(k)]
    for entries in by_col.values():
        for i, x in entries:
            out = prod[i]
            for j, y in entries:
                out[j] += x * y
    return tuple(map(tuple, prod)) == gram


def canonical_form(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of a matrix under signed column permutations.

    Each column's first nonzero entry (scanning rows top-down) is made
    positive, then columns are sorted in descending lexicographic order.  Two
    matrices lie in the same orbit of the ambient automorphism group iff their
    canonical forms are equal.

    The entries are integers and are taken as they are, not converted: the
    search hands in each leaf as tuples of ints, and a numpy array is read
    with one ``tolist``.
    """
    rows = _row_list(rows)
    cols = []
    for col in zip(*rows):
        if next(filter(None, col), 0) < 0:
            col = tuple(-x for x in col)
        cols.append(col)
    cols.sort(reverse=True)
    return tuple(zip(*cols)) if cols else tuple(() for _ in rows)


def integer_kernel(rows, m: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {x in Z^m : x . r = 0 for every row r}.

    This is the saturated orthogonal complement of the row span.  Computed by
    unimodular row reduction of [A^T | I], reading the kernel off the rows
    whose A^T part vanishes; the result is automatically a basis of the full
    (hence saturated) kernel lattice.  Each row of [A^T | I] holds its
    nonzero entries only, keyed by column (A^T's columns first, then I's),
    so a reduction step costs what the two rows hold.
    """
    rows = _row_list(rows)
    if any(len(row) != m for row in rows):
        raise UsageError(f"rows must have length {m}")
    k = len(rows)
    b = [{k + i: 1} for i in range(m)]
    for j, row in enumerate(_nonzero_entries(rows)):
        for i, x in row:
            b[i][j] = x
    r = 0
    for col in range(k):
        while True:
            nz = [i for i in range(r, m) if col in b[i]]
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
                    row = b[i]
                    for c, y in b[p].items():
                        x = row.get(c, 0) - q * y
                        if x:
                            row[c] = x
                        else:
                            del row[c]
        if piv is None:
            continue
        b[r], b[piv] = b[piv], b[r]
        if b[r][col] < 0:
            b[r] = {c: -x for c, x in b[r].items()}
        r += 1
    kernel = []
    for i in range(r, m):
        row = [b[i].get(k + t, 0) for t in range(m)]
        if next(filter(None, row), 0) < 0:
            row = [-x for x in row]
        kernel.append(tuple(row))
    return tuple(kernel)


def orthogonal_complement(rows, m: int) -> tuple[int, ...]:
    """Generator of the saturated complement of the row span in Z^m, which
    has rank one for a corank-one embedding: primitive, with its first
    nonzero entry positive, as :func:`integer_kernel` gives it.  Any other
    rank raises InternalCheckError; ``integer_kernel`` takes any rank."""
    basis = integer_kernel(rows, m)
    if len(basis) != 1:
        raise InternalCheckError(f"complement has rank {len(basis)}, not 1")
    return basis[0]


# ---------------------------------------------------------------------------
# Embedding enumeration


class SearchStats(namedtuple("SearchStats", "nodes leaves classes limit_hit",
                             defaults=(False,))):
    """Counters of one search: the nodes visited, the leaves and classes
    found, and whether a budget stopped it.  Counters only, so that two runs
    of one search give equal statistics; wall time is measured by callers."""

    __slots__ = ()


class EmbeddingSearchResult(namedtuple("EmbeddingSearchResult", "classes stats")):
    """The classes a search found, each the canonical matrix of its orbit as
    a tuple of row tuples, in lexicographic order, and its SearchStats."""

    __slots__ = ()


def _square_parts(n: int, max_parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    # Weakly decreasing positive integers, each <= cap, whose squares sum to n,
    # using at most max_parts of them, in descending order.  Lazy, so that the
    # search checks its budgets between parts: the parts of a large norm can
    # be too many to hold.  The bound skips branches where even max_parts
    # parts equal to cap fall short of n.
    if n == 0:
        yield ()
        return
    if n > max_parts * cap * cap:
        return
    for c in range(min(cap, math.isqrt(n)), 0, -1):
        for rest in _square_parts(n - c * c, max_parts - 1, c):
            yield (c,) + rest


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


class _Frame:
    """The children of one expanded chunk, waiting to be expanded in turn.

    Child j has the rows ``rows[parent[j]]`` followed by ``new[j]`` and
    touches ``used[j]`` ambient columns; ``next`` is the first child not yet
    expanded.
    """

    __slots__ = ("rows", "parent", "new", "used", "next")

    def __init__(self, rows, parent, new, used: list[int]):
        self.rows, self.parent, self.new, self.used = rows, parent, new, used
        self.next = 0


def search_embedding_classes(l: ChainLattice, m: int,
                             limits: SearchLimits | None = None) -> EmbeddingSearchResult:
    """Exhaustively enumerate the embedding classes of ``l`` in Z^m.

    Returns the canonical matrices of the classes in lexicographic order,
    together with search statistics, however the search ends: if a budget
    runs out, the walk stops there, the statistics have ``limit_hit`` set and
    the classes are those found so far.

    Row i is placed on the ``used`` touched columns by the kernel and then
    padded with a positive, weakly decreasing block on fresh columns.  Two
    symmetry cuts keep the search orderly (Read 1978; McKay 1998):

    * Fresh columns are consumed left to right, positive and sorted.
    * Tie rule: where touched columns c and c+1 are equal over
      ``rows[:i]``, row i must have x[c] >= x[c+1].  The kernel reads the
      ties off the rows it is given and applies the rule to its answers.

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
    if max(map(max, l.chains)) > MAX_DIAGONAL:
        raise UsageError(f"diagonal entries above {MAX_DIAGONAL} are not supported")
    limits = limits or SearchLimits()
    k = l.rank
    gram = np.array(l.gram, dtype=np.int64)
    found: list[tuple[tuple[int, ...], ...]] = []
    nodes = 0
    deadline = None if limits.time_budget is None else time.monotonic() + limits.time_budget

    stack: list[_Frame] = []

    def expand(rows, used: list[int]) -> bool:
        # Place row i on every node of a chunk with one kernel call, count and
        # check each child, file the leaves and push the rest as a frame.
        # True if a budget ran out at a child: the walk stops there.
        nonlocal nodes
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
                if nodes > limits.node_budget or (deadline is not None
                                                  and time.monotonic() > deadline):
                    return True
                s = len(parts)
                if i + 1 < k:
                    at += [len(src)] * s
                    cols += range(ub, ub + s)
                    vals += parts
                    src.append(n)
                    child_used.append(ub + s)
                    continue
                mat = np.zeros((k, m), dtype=np.int64)
                mat[:i] = rows[b]
                mat[i, :ub] = cands[n, :ub]
                mat[i, ub:ub + s] = parts
                if not np.array_equal(mat @ mat.T, gram):
                    raise InternalCheckError("search leaf is not an isometric embedding")
                leaf = tuple(map(tuple, mat.tolist()))
                if canonical_form(leaf) != leaf:
                    raise InternalCheckError("search leaf is not its own canonical form")
                found.append(leaf)
        if src:
            new = np.zeros((len(src), m), dtype=_ROW_DTYPE)
            new[:, :u] = cands[src, :u]
            new[at, cols] = vals
            stack.append(_Frame(rows, owner[src], new, child_used))
        return False

    # Depth-first over chunks: the top frame's next chunk is expanded, and
    # its children, one depth further down, become the new top frame.
    hit = expand(np.zeros((1, 0, m), dtype=_ROW_DTYPE), [0])
    while stack and not hit:
        frame = stack[-1]
        chunk = slice(frame.next, frame.next + _CHUNK)
        frame.next += _CHUNK
        if frame.next >= len(frame.used):
            stack.pop()
        hit = expand(np.concatenate([frame.rows[frame.parent[chunk]], frame.new[chunk, None, :]],
                                    axis=1), frame.used[chunk])
    # Leaves and classes correspond one to one, so both are len(found).
    return EmbeddingSearchResult(tuple(sorted(found)),
                                 SearchStats(nodes, len(found), len(found), hit))
