"""The vector-extension kernel of the lattice-embedding search.

Every node of the embedding search asks the same question: which integer
vectors x on the node's ``used`` touched ambient coordinates have prescribed
inner products with the rows placed so far and squared length at most the
target norm?  Nodes of one depth share the inner products and the norm, so
:func:`constrained_vectors` answers a whole batch of such nodes with one
vectorised call.  The batch's rows are zero-padded to its widest node;
columns at or past a node's own ``used`` are forced to 0, so padding never
changes an answer.  Each solution comes back with its owner index (the node
that asked), owners ascending and each owner's solutions in lexicographic
order, as an (N, u+1) int64 array whose last column holds x.x.  Swapping two
identical columns of an owner's rows fixes every constraint, so the kernel
keeps one representative per such swap (the search's tie rule, see
:func:`ballobs.lattice.search_embedding_classes`), reading the ties off each
owner's own rows.  A single query is a batch of one.

Three methods answer this one contract, chosen by the norm and, at norm 3,
by whether some dot is nonzero:

* The layer-by-layer scan (:func:`_scan`) answers every norm.  A call costs
  mostly numpy's per-operation overhead, paid once per scanned column, so
  each layer does its work in few operations: it builds the inner-product
  deficits that every (partial vector, value) pair would leave, tests their
  bounds, and keeps the survivors' deficits as the next layer's.
* The closed form (:func:`_closed_form`) answers norms of at most 2, the
  runs of 2-vertices that make up most plumbings.  Such an x is 0, +-e_a or
  +-e_a +- e_b, so a fixed number of numpy operations tests every candidate
  of every owner at once, whatever the width.  The test compares linear
  int64 hashes; it can only keep too much, never too little, and every hit
  is re-checked exactly, so the hash never decides an answer.  The scan is
  its test oracle.
* The anchored closed form (:func:`_anchored`) answers norm 3 when some dot
  is nonzero, the rows that set the cost of every Fibonacci search.  Such
  an x is +-e_a plus one of the norm-2 candidates, with a on the support of
  a row whose dot is nonzero, so the same hash test runs once per support
  column and sign: its size grows with that support, not with a third
  free column.  The scan is its test oracle too.  Norm 3 with all dots
  zero, and every larger norm, stay on the scan.

Integer width.  Answers are always int64.  The scan computes in int32 when a
bound read off the call's own inputs proves every intermediate exact:
4 * max(max|dots|^2, norm * R) < 2^31, with R the largest squared length of
a row (:func:`_scan_dtype` argues it: every deficit, its square and every
bound product stays below that).  Otherwise it computes in int64.  The
search's rows have squared lengths equal to Gram diagonal entries and its
dots are Gram entries, so its calls take int32 unless norm * R reaches
2^29; int32 halves the bytes each layer moves.  The closed forms hash in
wrapping int64, where overflow is harmless by design, and their hash
weights are one table computed once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lattice import MAX_AMBIENT


# Largest (N, V, k) block the scan builds at once, in array entries.  Wider
# layers are tested block by block and keep only each block's survivors, so
# no temporary kept past its block exceeds this size however many partial
# vectors a layer holds.  The closed forms' hash test takes blocks of 32
# times this size (see _hash_hits).
_BLOCK = 1 << 14


def _survivors(vals, rem, ns, col, cap, kk):
    # The (i, j) for which x[c] = vals[j] keeps partial vector i within every
    # bound, deficit^2 <= (norm left) * (squares left in the row), and x[c]
    # at most cap[i] (the tie rule), with the deficits each of them leaves.
    d = vals[None, :, None] * col[:, None, :kk]                        # (N, V, kk)
    np.subtract(rem[:, None, :], d, out=d)
    ok = (d * d <= ns[:, :, None] * col[:, None, kk:2 * kk]).all(axis=2)
    if cap is not None:
        ok &= vals[None, :] <= cap[:, None]
    ii, jj = np.nonzero(ok)
    return ii, jj, d[ii, jj]


def constrained_vectors(rows, used, dots, norm):
    """All x with rows[b] @ x == dots, x.x <= norm and x[c] == 0 for
    c >= used[b], for every owner b of the batch, one per swap of identical
    columns: where columns c and c+1 < used[b] of rows[b] are equal, only x
    with x[c] >= x[c+1] are kept.

    ``rows`` is (B, k, u), ``used`` is (B,) with entries <= u, ``dots`` is
    (k,) and ``norm`` an int.  Returns ``(owner, solutions)``: ``owner`` (N,)
    names the batch entry of each solution, and ``solutions`` (N, u+1) holds
    x followed by x.x.

    A norm of at most 2 is answered in closed form (:func:`_closed_form`),
    norm 3 with some dot nonzero by the anchored closed form
    (:func:`_anchored`), and the rest by the layer-by-layer scan
    (:func:`_scan`); all give the same arrays, and the scan is the closed
    forms' test oracle.
    """
    rows = np.asarray(rows, dtype=np.int64)
    used = np.asarray(used, dtype=np.int64)
    dots = np.asarray(dots, dtype=np.int64)
    b, _, u = rows.shape
    norm = int(norm)
    if u == 0:  # nothing to scan: the empty vector, wherever dots allows it
        owner = np.arange(0 if dots.any() else b, dtype=np.int64)
        return owner, np.zeros((len(owner), 1), dtype=np.int64)
    if 0 <= norm <= 2:
        return _closed_form(rows, used, dots, norm)
    if norm == 3 and dots.any():
        return _anchored(rows, used, dots)
    return _scan(rows, used, dots, norm)


def _ties(rows, used):
    # tie[b, c]: columns c - 1 and c < used[b] of rows[b] are equal, so the
    # tie rule asks x[c - 1] >= x[c].  Column 0 ties with nothing.
    b, _, u = rows.shape
    tie = np.zeros((b, u), dtype=bool)
    tie[:, 1:] = ((rows[:, :, 1:] == rows[:, :, :-1]).all(axis=1)
                  & (np.arange(1, u)[None, :] < used[:, None]))
    return tie


@functools.lru_cache(maxsize=128)
def _candidates(u, norm):
    # Every x over u columns with entries in {-1, 0, 1} and at most norm <= 2
    # of them nonzero, in lexicographic order of x, as x = sa e_a + sb e_b:
    # 0 is a = b = sa = sb = 0, and a single is b = a, sb = 0.  Read as a
    # balanced-ternary number, column 0 the most significant digit, x sorts
    # in lex order.  Columns i and j index the terms in the signed column
    # list [0, -col 0.., +col 0..], and ``need`` is 1 + the last column x
    # touches (0 for x = 0).  Entries are at most 2u, so a narrow dtype keeps
    # the cached tables small.
    terms = [(0, 0, 0, 0)]
    if norm >= 1:
        terms += [(a, sa, a, 0) for a in range(u) for sa in (-1, 1)]
    if norm == 2:
        terms += [(a, sa, b, sb) for a in range(u) for b in range(a + 1, u)
                  for sa in (-1, 1) for sb in (-1, 1)]
    digit = [3 ** (u - 1 - c) for c in range(u)]
    terms.sort(key=lambda t: t[1] * digit[t[0]] + t[3] * digit[t[2]])
    table = np.array(terms, dtype=np.min_scalar_type(-2 * u - 1))
    a, sa, b, sb = table.T
    i = np.where(sa == 0, 0, 1 + a + u * (sa > 0))
    j = np.where(sb == 0, 0, 1 + b + u * (sb > 0))
    need = np.where(sa == 0, 0, np.maximum(a, b) + 1)
    cols = tuple(np.ascontiguousarray(col, dtype=table.dtype)
                 for col in (i, j, need, a, sa, b, sb))
    for col in cols:  # every call shares the cached table
        col.setflags(write=False)
    return cols


# Odd 64-bit multiplier of the closed forms' column hash: row j of a node's
# rows is weighted by its (j+1)-th power, in wrapping int64 arithmetic.
_HASH_BASE = -7046029254386353131  # 0x9E3779B97F4A7C15 as a signed int64


# The weights of up to MAX_AMBIENT rows, computed once in Python integers
# and wrapped to signed int64: a lattice of rank k places at most k - 1 rows
# before its last.
_HASH_WEIGHTS = np.array([(pow(_HASH_BASE, j, 1 << 64) + (1 << 63)) % (1 << 64) - (1 << 63)
                          for j in range(1, MAX_AMBIENT + 1)], dtype=np.int64)
_HASH_WEIGHTS.setflags(write=False)


def _signed_hashes(weights, rows):
    # Each owner's signed list [0, -h, +h] of its column hashes h, (B, 2u+1).
    h = np.matmul(weights, rows)                                       # (B, u)
    return np.concatenate([np.zeros((len(h), 1), dtype=np.int64), -h, h], axis=1)


def _hash_hits(signed, i, j, need, used, targets):
    # The hits of a closed form's hash test: every (owner, t, c) for which
    # candidate c, the sum of entries i[c] and j[c] of the owner's signed
    # list, hashes to targets[owner, t] and touches no column at or past
    # used[owner] (need[c] is 1 + the last column it touches), owner first,
    # then t, then c.  The test runs over blocks of owners, or of one owner's
    # targets where those alone are too many, so that no temporary holds
    # more than 32 * _BLOCK entries, or one (owner, target) row where that
    # row alone is larger.  Every call of a Fibonacci search up to Fib (8,8)
    # fits one block: the largest, on Fib (8,8), holds 470,592 entries.  A
    # block holds whole target rows of its owners or targets of one owner,
    # so a hit's flat index in the whole (B, T, C) test is its index in the
    # block plus the block's offset.
    batch, width = targets.shape
    size = len(i)
    per = max(1, 32 * _BLOCK // size)        # (owner, target) rows a block holds
    tstep = min(width, per)
    bstep = max(1, per // width)
    hits = []
    for lo in range(0, batch, bstep):
        own = slice(lo, lo + bstep)
        h = signed[own].take(i, axis=1)                                # (b, C)
        h += signed[own].take(j, axis=1)
        live = need <= used[own, None]
        for tlo in range(0, width, tstep):
            hit = h[:, None, :] == targets[own, tlo:tlo + tstep, None]  # (b, w, C)
            hit &= live[:, None, :]
            hits.append(np.flatnonzero(hit) + (lo * width + tlo) * size)
    owner, rest = np.divmod(np.concatenate(hits), width * size)
    return (owner, *np.divmod(rest, size))


def _closed_form(rows, used, dots, norm):
    """constrained_vectors for 0 <= norm <= 2, in a fixed number of numpy
    operations whatever the width.

    Such an x is 0, +-e_a or +-e_a +- e_b (norm 1: the first two), so
    ``_candidates`` lists them once per width, in lex order.  One linear hash
    of each owner's columns, and of ``dots``, with the same int64 weights
    then tests every (owner, candidate) pair at once: x's hash is the sum of
    the entries i and j of the owner's signed list [0, -h, +h] of column
    hashes h.  rows @ x == dots implies equal hashes, since wrapping
    arithmetic is exact modulo 2^64, so no solution is missed.  A hash match
    can be a collision, so every hit is re-checked exactly against the
    owner's columns, and the hash never decides an answer; a collision costs
    time only.  The ``need`` test keeps x off the dead columns c >= used[b]:
    zero-padded dead columns would otherwise pass both checks whenever
    dots == 0, as a pair e_c - e_d does.  The hits come owner first and then
    in candidate order, which is the contract's order, so nothing is sorted.
    """
    batch, k, u = rows.shape
    i, j, need, a, sa, b, sb = _candidates(u, norm)
    weights = _HASH_WEIGHTS[:k]
    signed = _signed_hashes(weights, rows)
    target = np.full((batch, 1), np.matmul(weights, dots))
    owner, _, c = _hash_hits(signed, i, j, need, used, target)
    a, sa, b, sb = a[c], sa[c], b[c], sb[c]
    n = np.arange(len(c))
    x = np.zeros((len(c), u + 1), dtype=np.int64)
    x[n, a] = sa
    x[n, b] += sb
    x[:, u] = sa * sa + sb * sb
    ok = (rows[owner, :, a] * sa[:, None] + rows[owner, :, b] * sb[:, None] == dots).all(axis=1)
    ok &= ~(_ties(rows, used)[owner, 1:] & (x[:, :u - 1] < x[:, 1:u])).any(axis=1)
    return owner[ok], x[ok]


def _anchored(rows, used, dots):
    """constrained_vectors for norm 3 when some dot is nonzero, in a fixed
    number of numpy operations whatever the width.

    Such an x has entries in {-1, 0, 1}, at most three of them nonzero.  Pick
    a row j with dots[j] != 0: rows[b, j] @ x != 0, so every solution of
    owner b touches the support of rows[b, j] on its live columns c <
    used[b].  Let a be the first column of x in that support and sa = x[a].
    Then y = x - sa e_a has norm at most 2 and is zero at a and at every
    support column before a: one of the ``_candidates(u, 2)``.  Conversely
    every such (a, sa, y) gives one x, and distinct triples give distinct x,
    so each solution is found exactly once.  One hash test then checks every
    (owner, anchor a, sign sa, y) at once: y's hash against the target
    H - sa h_a, with H the hash of dots and h_a that of column a.  As in
    :func:`_closed_form`, the hash test keeps y off the dead columns, and
    every hit is re-checked exactly: the anchor must lie within its owner's
    support (owners narrower than the widest pad their anchors), x[a] == sa
    keeps y off a, the first support column that x touches must be a, then
    rows @ x == dots and the tie rule.  Hits come anchor by anchor, not in
    lex order, so ``np.lexsort`` sorts the survivors into the contract's
    order.

    j is the nonzero-dot row whose widest support within the batch is the
    smallest: that width s sets the test's size, (B, s, 2, 2u^2 + 1).
    """
    batch, k, u = rows.shape
    i, j, need, a, sa, b, sb = _candidates(u, 2)
    weights = _HASH_WEIGHTS[:k]
    signed = _signed_hashes(weights, rows)
    live = np.arange(u) < used[:, None]                                # (B, u)
    supports = (rows[:, dots != 0] != 0) & live[:, None, :]
    widths = supports.sum(axis=2)                                      # (B, k')
    pick = np.argmin(widths.max(axis=0))
    support, width = supports[:, pick], widths[:, pick]
    s = int(width.max())
    if s == 0:  # rows[b, j] @ x == 0 != dots[j] for every owner
        return np.zeros(0, dtype=np.int64), np.zeros((0, u + 1), dtype=np.int64)
    # Each owner's support columns in increasing order, padded past its width.
    anchor = np.argsort(~support, axis=1, kind="stable")[:, :s]        # (B, s)
    ha = signed[np.arange(batch)[:, None], 1 + u + anchor]            # h_a
    target = (np.matmul(weights, dots) - ha[:, :, None] * (-1, 1)).reshape(batch, 2 * s)
    owner, t, c = _hash_hits(signed, i, j, need, used, target)
    slot, plus = np.divmod(t, 2)
    at, sign = anchor[owner, slot], 2 * plus - 1                       # -1, then +1
    a, sa, b, sb = a[c], sa[c], b[c], sb[c]
    n = np.arange(len(c))
    x = np.zeros((len(c), u + 1), dtype=np.int64)
    x[n, at] = sign
    x[n, a] += sa
    x[n, b] += sb
    x[:, u] = 1 + sa * sa + sb * sb
    ok = slot < width[owner]
    ok &= x[n, at] == sign
    ok &= np.argmax(support[owner] & (x[:, :u] != 0), axis=1) == at
    cols = rows.transpose(0, 2, 1)                                     # (B, u, k)
    ok &= (cols[owner, at] * sign[:, None] + cols[owner, a] * sa[:, None]
           + cols[owner, b] * sb[:, None] == dots).all(axis=1)
    ok &= ~(_ties(rows, used)[owner, 1:] & (x[:, :u - 1] < x[:, 1:u])).any(axis=1)
    owner, x = owner[ok], x[ok]
    order = np.lexsort(np.vstack((x[:, u - 1::-1].T, owner)))
    return owner[order], x[order]


def _scan_dtype(row_norms, dots, norm):
    """int32 where the scan's arithmetic provably fits it, else int64.

    With R the largest squared length of a row and D = max |dots|: a
    surviving deficit has d^2 <= ns * (suffix sum) <= norm * R, and the
    first layer's deficits are dots, so a deficit before its bound test is
    at most max(D, sqrt(norm R)) + sqrt(norm R) <= 2 sqrt(M) in absolute
    value, with M = max(D^2, norm R), and its square at most 4M.  Every
    ns = (norm left) - v^2 lies in [-norm, norm], so every ns * suffix
    product is at most norm R <= M in absolute value, and the value entries,
    norms and pseudo-row entries are smaller still.  So 4M < 2^31 makes every
    intermediate of the scan exact in int32.
    """
    reach = max(max(map(abs, dots.tolist()), default=0) ** 2,
                norm * max(1, int(row_norms.max(initial=0))))
    return np.int32 if 4 * reach < 1 << 31 else np.int64


def _scan(rows, used, dots, norm):
    """constrained_vectors by a layer-by-layer scan, for any norm.

    Builds the solution set one coordinate at a time, keeping every partial
    vector that still fits the norm budget and whose remaining inner-product
    deficits pass the Cauchy-Schwarz bound against the unscanned tails of
    its owner's rows.  The zero-forcing past ``used`` and the tie cut apply
    while their column is scanned, so pruned branches never grow.
    """
    b, k, u = rows.shape
    # suffix[b, j, c]: the squares of rows[b, j, c:] summed; c = 0 gives the
    # row's squared length.
    suffix = np.cumsum((rows * rows)[:, :, ::-1], axis=2)[:, :, ::-1]
    dtype = _scan_dtype(suffix[:, :, 0], dots, norm)
    dead = np.arange(u)[None, :] >= used[:, None]                      # (B, u)
    tie = _ties(rows, used)
    # Per column and owner, packed so that one gather per column serves every
    # partial vector: the owner's k row entries and a pseudo-row entry, the
    # matching Cauchy-Schwarz suffix square sums, and the tie flag.  The
    # pseudo-row has dots 0, entry 1 and suffix 0 on dead columns, entry 0
    # and suffix 1 on live ones, so its bound alone reads x[c] == 0 on dead
    # columns and x.x <= norm on live ones.
    kk = k + 1
    packed = np.zeros((u, b, 2 * kk + 1), dtype=dtype)
    packed[:, :, :k] = rows.transpose(2, 0, 1)
    packed[:, :, k] = dead.T
    packed[:-1, :, kk:kk + k] = suffix[:, :, 1:].transpose(2, 0, 1)
    packed[:, :, kk + k] = ~dead.T
    packed[:, :, 2 * kk] = tie.T
    tied = tie.any(axis=0).tolist()
    vmax = math.isqrt(norm)
    vals = np.arange(-vmax, vmax + 1, dtype=dtype)
    sq = vals * vals
    owner = np.arange(b, dtype=np.int64)
    last = np.zeros(b, dtype=dtype)              # x[c - 1] of each partial vector
    slack = np.full(b, norm, dtype=dtype)        # norm - x.x so far
    rem = np.zeros((b, kk), dtype=dtype)         # dots - rows @ x so far
    rem[:, :k] = dots
    steps = []
    step = max(1, _BLOCK // (len(vals) * kk))
    for c in range(u):
        col = packed[c][owner]                                         # (N, 2kk+1)
        ns = slack[:, None] - sq[None, :]                              # (N, V)
        cap = np.where(col[:, 2 * kk] != 0, last, vmax) if tied[c] else None
        if len(owner) <= step:
            ii, jj, rem = _survivors(vals, rem, ns, col, cap, kk)
        else:
            parts = []
            for lo in range(0, len(owner), step):
                s = slice(lo, lo + step)
                bii, bjj, brem = _survivors(vals, rem[s], ns[s], col[s],
                                            None if cap is None else cap[s], kk)
                parts.append((bii + lo, bjj, brem))
            ii, jj, rem = (np.concatenate(p) for p in zip(*parts))
        if ii.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros((0, u + 1), dtype=np.int64)
        steps.append((ii, jj))
        last = vals[jj]
        slack = ns[ii, jj]
        owner = owner[ii]
    assert not rem.any()
    # Read each solution back along its chain of parent partial vectors.
    out = np.empty((len(owner), u + 1), dtype=np.int64)
    out[:, u] = norm - slack
    idx = np.arange(len(owner))
    for c in range(u - 1, -1, -1):
        ii, jj = steps[c]
        out[:, c] = vals[jj[idx]]
        idx = ii[idx]
    return owner, out
