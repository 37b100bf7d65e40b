"""The vector-extension kernel of the lattice-embedding search.

Every node of the embedding search asks the same question: which integer
vectors x on the node's ``used`` touched ambient coordinates have prescribed
inner products with the rows placed so far and squared length at most the
target norm?  Nodes of one depth share the inner products and the norm, so
:func:`constrained_vectors` answers a whole batch of such nodes with one
vectorised numpy layer-by-layer scan.  The batch's rows are zero-padded to
its widest node; columns at or past a node's own ``used`` are forced to 0,
so padding never changes an answer.  Each solution comes back with its owner
index (the node that asked), owners ascending and each owner's solutions in
lexicographic order, as an (N, u+1) int64 array whose last column holds x.x.
Swapping two identical columns of an owner's rows fixes every constraint, so
the scan keeps one representative per such swap (the search's tie rule, see
:func:`ballobs.lattice.search_embedding_classes`), reading the ties off each
owner's own rows.  A single query is a batch of one.

A call costs mostly numpy's per-operation overhead, paid once per scanned
column, so each layer does its work in few operations: it builds the
inner-product deficits that every (partial vector, value) pair would leave,
tests their bounds, and keeps the survivors' deficits as the next layer's.
"""

from __future__ import annotations

import math

import numpy as np


# Largest (N, V, k) block the scan builds at once, in array entries.  Wider
# layers are tested block by block and keep only each block's survivors, so
# no temporary kept past its block exceeds this size however many partial
# vectors a layer holds.
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

    Builds the solution set one coordinate at a time, keeping every partial
    vector that still fits the norm budget and whose remaining inner-product
    deficits pass the Cauchy-Schwarz bound against the unscanned tails of
    its owner's rows.  The zero-forcing past ``used`` and the tie cut apply
    while their column is scanned, so pruned branches never grow.
    """
    rows = np.asarray(rows, dtype=np.int64)
    used = np.asarray(used, dtype=np.int64)
    dots = np.asarray(dots, dtype=np.int64)
    b, k, u = rows.shape
    norm = int(norm)
    if u == 0:  # nothing to scan: the empty vector, wherever dots allows it
        owner = np.arange(0 if dots.any() else b, dtype=np.int64)
        return owner, np.zeros((len(owner), 1), dtype=np.int64)
    dead = np.arange(u)[None, :] >= used[:, None]                      # (B, u)
    tie = np.zeros((b, u), dtype=bool)
    tie[:, 1:] = (rows[:, :, 1:] == rows[:, :, :-1]).all(axis=1) & ~dead[:, 1:]
    # Per column and owner, packed so that one gather per column serves every
    # partial vector: the owner's k row entries and a pseudo-row entry, the
    # matching Cauchy-Schwarz suffix square sums, and the tie flag.  The
    # pseudo-row has dots 0, entry 1 and suffix 0 on dead columns, entry 0
    # and suffix 1 on live ones, so its bound alone reads x[c] == 0 on dead
    # columns and x.x <= norm on live ones.
    kk = k + 1
    packed = np.zeros((u, b, 2 * kk + 1), dtype=np.int64)
    packed[:, :, :k] = rows.transpose(2, 0, 1)
    packed[:, :, k] = dead.T
    packed[:-1, :, kk:kk + k] = np.cumsum((rows * rows)[:, :, :0:-1],
                                          axis=2)[:, :, ::-1].transpose(2, 0, 1)
    packed[:, :, kk + k] = ~dead.T
    packed[:, :, 2 * kk] = tie.T
    tied = tie.any(axis=0).tolist()
    vmax = math.isqrt(norm)
    vals = np.arange(-vmax, vmax + 1, dtype=np.int64)
    sq = vals * vals
    owner = np.arange(b, dtype=np.int64)
    last = np.zeros(b, dtype=np.int64)           # x[c - 1] of each partial vector
    slack = np.full(b, norm, dtype=np.int64)     # norm - x.x so far
    rem = np.zeros((b, kk), dtype=np.int64)      # dots - rows @ x so far
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
