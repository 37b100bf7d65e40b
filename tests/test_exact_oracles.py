"""The sparse exact routines of ``ballobs.lattice`` against dense oracles.

The oracles are the dense versions that production used before: Bareiss
elimination over every entry, and the unimodular row reduction of a dense
[A^T | I].  Each sparse routine must give exactly the oracle's answer, the
same kernel basis included, on random integer matrices that are sparse,
dense, rank-deficient, or have zero rows and columns.  The determinant
oracle, ``matrix_determinant``, also serves the other test modules.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ballobs.errors import UsageError
from ballobs.lattice import (GramLattice, canonical_form, integer_kernel,
                             is_isometric_embedding, leading_principal_minors,
                             linear_lattice)


def matrix_determinant(rows) -> int:
    """Oracle: exact determinant of any square integer matrix (Bareiss
    elimination with row swaps)."""
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


def dense_leading_principal_minors(gram):
    """Oracle: fraction-free elimination over every entry, stopping after a
    zero pivot."""
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


def dense_integer_kernel(rows, m):
    """Oracle: unimodular row reduction of the dense matrix [A^T | I]."""
    a = [[int(x) for x in row] for row in rows]
    k = len(a)
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


def dense_canonical_form(rows):
    """Oracle: the column-wise canonical form, one entry at a time."""
    a = tuple(tuple(int(x) for x in row) for row in rows)
    cols = []
    for col in zip(*a):
        if next((x for x in col if x), 0) < 0:
            col = tuple(-x for x in col)
        cols.append(col)
    cols.sort(reverse=True)
    return tuple(tuple(col[i] for col in cols) for i in range(len(a)))


def product(a, b):
    """A B^T in plain integers."""
    return tuple(tuple(sum(x * y for x, y in zip(u, v)) for v in b) for u in a)


@st.composite
def integer_matrices(draw, square=False, max_side=7):
    """k x m integer matrices of four kinds, with some rows and columns
    then zeroed: sparse, dense, rank-deficient (a product through fewer
    rows) and, when square, Gram matrices of a random embedding."""
    k = draw(st.integers(1, max_side))
    m = k if square else draw(st.integers(1, max_side + 1))
    kinds = ["sparse", "dense", "rank-deficient"] + (["gram"] if square else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("sparse", "dense"):
        entry = st.integers(-9, 9)
        if kind == "sparse":
            entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
        rows = [[draw(entry) for _ in range(m)] for _ in range(k)]
    elif kind == "rank-deficient":
        r = draw(st.integers(0, min(k, m) - 1))
        base = [[draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(r)]
        coef = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(k)]
        rows = [[sum(coef[i][t] * base[t][c] for t in range(r)) for c in range(m)]
                for i in range(k)]
    else:
        width = draw(st.integers(1, max_side + 1))
        a = [[draw(st.integers(-2, 2)) for _ in range(width)] for _ in range(k)]
        rows = [list(row) for row in product(a, a)]
    for i in draw(st.sets(st.integers(0, k - 1), max_size=2)):
        rows[i] = [0] * m
    for c in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    return tuple(tuple(row) for row in rows)


# Drawing a matrix costs a few milliseconds, so each test checks every
# routine that applies to its matrix.
ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestLeadingPrincipalMinors:
    @ORACLE_SETTINGS
    @given(gram=integer_matrices(square=True))
    def test_matches_dense_bareiss_and_determinants(self, gram):
        # Up to and including the first zero, minor j is the determinant of
        # the leading (j+1) x (j+1) block.
        minors = leading_principal_minors(gram)
        assert minors == dense_leading_principal_minors(gram)
        assert 0 not in minors[:-1]
        assert len(minors) == len(gram) or minors[-1] == 0
        for j, minor in enumerate(minors):
            assert minor == matrix_determinant([row[:j + 1] for row in gram[:j + 1]])

    def test_plumbing_lattices(self):
        # long tridiagonal matrices, the search's own input
        for weights in ((2,) * 30 + (5,), (3, 2, 2, 3, 2) * 6, (7, 2, 2, 2, 9, 2, 2)):
            gram = linear_lattice(weights).gram
            assert leading_principal_minors(gram) == dense_leading_principal_minors(gram)


class TestIntegerKernel:
    @ORACLE_SETTINGS
    @given(rows=integer_matrices())
    def test_matches_dense_reduction(self, rows):
        m = len(rows[0])
        kernel = integer_kernel(rows, m)
        assert kernel == dense_integer_kernel(rows, m)
        assert integer_kernel(np.array(rows, dtype=np.int64), m) == kernel
        assert all(not any(row) for row in product(kernel, rows))


class TestEmbeddingChecks:
    @ORACLE_SETTINGS
    @given(rows=integer_matrices(), i=st.integers(0, 6), j=st.integers(0, 6),
           delta=st.integers(-2, 2))
    def test_isometric_embedding_matches_dense_product(self, rows, i, j, delta):
        # The Gram matrix of the rows, possibly changed in one symmetric pair.
        gram = [list(row) for row in product(rows, rows)]
        k = len(rows)
        i, j = i % k, j % k
        gram[i][j] += delta
        if i != j:
            gram[j][i] += delta
        lattice = GramLattice(tuple(map(tuple, gram)))
        assert is_isometric_embedding(lattice, rows) == (delta == 0)
        assert is_isometric_embedding(lattice, np.array(rows, dtype=np.int64)) == (delta == 0)

    @ORACLE_SETTINGS
    @given(rows=integer_matrices())
    def test_canonical_form_matches_dense(self, rows):
        expected = dense_canonical_form(rows)
        assert canonical_form(rows) == expected
        assert canonical_form([list(row) for row in rows]) == expected
        assert canonical_form(np.array(rows, dtype=np.int64)) == expected

    def test_canonical_form_without_columns(self):
        assert canonical_form(((), ())) == dense_canonical_form(((), ())) == ((), ())
