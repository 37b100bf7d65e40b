"""The vector-extension kernel of the lattice-embedding search.

Every node of the embedding search asks the same question: which integer
vectors x on the already-touched ambient coordinates have prescribed inner
products with the rows placed so far and squared length at most the target
norm?  :func:`constrained_vectors` answers it with a vectorised numpy
layer-by-layer scan, returning the solutions in lexicographic order as an
(N, u+1) int64 array whose last column holds x.x.  Swapping two identical
columns of the rows fixes every constraint, so the scan keeps one
representative per such swap (the search's tie rule, see
:func:`ballobs.lattice.search_embedding_classes`).
"""

from __future__ import annotations

import math

import numpy as np


def _suffix_square_sums(rows):
    # suffix[j, c] = sum of rows[j, c:]**2; the Cauchy-Schwarz prune needs it.
    k, u = rows.shape
    suffix = np.zeros((k, u + 1), dtype=np.int64)
    if u:
        suffix[:, :u] = np.cumsum((rows * rows)[:, ::-1], axis=1)[:, ::-1]
    return suffix


def constrained_vectors(rows, dots, norm):
    """All integer x with rows @ x == dots and x.x <= norm, one per swap of
    identical columns: where columns c and c+1 of rows are equal, only x with
    x[c] >= x[c+1] are kept.

    Builds the solution set one coordinate at a time, keeping every partial
    vector that still fits the norm budget and whose remaining inner-product
    deficits pass the Cauchy-Schwarz bound against the unscanned row tails.
    The tie cut is applied while column c+1 is scanned, so pruned branches
    never grow.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    dots = np.asarray(dots, dtype=np.int64)
    k, u = rows.shape
    ties = (rows[:, 1:] == rows[:, :-1]).all(axis=0)               # (u - 1,)
    norm = int(norm)
    suffix = _suffix_square_sums(rows)
    vmax = math.isqrt(norm)
    vals = np.arange(-vmax, vmax + 1, dtype=np.int64)
    cand = np.zeros((1, 0), dtype=np.int64)
    qn = np.zeros(1, dtype=np.int64)
    pd = np.zeros((1, k), dtype=np.int64)
    for c in range(u):
        nq = qn[:, None] + vals[None, :] ** 2                      # (N, V)
        nd = pd[:, None, :] + vals[None, :, None] * rows[:, c][None, None, :]
        rem = dots[None, None, :] - nd                             # (N, V, k)
        ok = nq <= norm
        if c and ties[c - 1]:
            ok &= vals[None, :] <= cand[:, c - 1][:, None]
        ok &= (rem * rem <= (norm - nq)[:, :, None] * suffix[:, c + 1][None, None, :]).all(axis=2)
        ii, jj = np.nonzero(ok)
        if ii.size == 0:
            return np.zeros((0, u + 1), dtype=np.int64)
        cand = np.concatenate([cand[ii], vals[jj][:, None]], axis=1)
        qn = nq[ii, jj]
        pd = nd[ii, jj]
    assert bool((pd == dots[None, :]).all())
    return np.concatenate([cand, qn[:, None]], axis=1)
