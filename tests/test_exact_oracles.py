"""The exact routines of ``ballobs.lattice`` against dense oracles.

The oracles are the dense versions that production used before: Bareiss
elimination over every entry, and the unimodular row reduction of a dense
[A^T | I].  Each sparse routine must give exactly the oracle's answer, the
same kernel basis included, on random integer matrices that are sparse,
dense, rank-deficient, or have zero rows and columns.  The continuant
check of positive definiteness must agree with the dense leading minors on
random chain lattices.  The determinant oracle, ``matrix_determinant``,
also serves the other test modules.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ballobs.errors import UsageError
from ballobs.lattice import (canonical_form, integer_kernel, is_isometric_embedding,
                             is_positive_definite, linear_lattice)


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
def integer_matrices(draw, max_side=7):
    """k x m integer matrices of three kinds, with some rows and columns
    then zeroed: sparse, dense and rank-deficient (a product through fewer
    rows)."""
    k = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side + 1))
    kind = draw(st.sampled_from(["sparse", "dense", "rank-deficient"]))
    if kind in ("sparse", "dense"):
        entry = st.integers(-9, 9)
        if kind == "sparse":
            entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
        rows = [[draw(entry) for _ in range(m)] for _ in range(k)]
    else:
        r = draw(st.integers(0, min(k, m) - 1))
        base = [[draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(r)]
        coef = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(k)]
        rows = [[sum(coef[i][t] * base[t][c] for t in range(r)) for c in range(m)]
                for i in range(k)]
    for i in draw(st.sets(st.integers(0, k - 1), max_size=2)):
        rows[i] = [0] * m
    for c in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    return tuple(tuple(row) for row in rows)


# Drawing a matrix costs a few milliseconds, so each test checks every
# routine that applies to its matrix.
ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def positive_minors(gram) -> bool:
    """Sylvester's criterion on the whole Gram matrix: every dense leading
    principal minor is positive (the oracle stops after a zero one)."""
    return all(d > 0 for d in dense_leading_principal_minors(gram))


class TestPositiveDefinite:
    # Weights in [-3, 6], half the time drawn from [2, 6] alone: uniform
    # draws give about one definite lattice in sixteen, this mix about half.
    @ORACLE_SETTINGS
    @given(chains=st.lists(st.lists(st.one_of(st.integers(2, 6), st.integers(-3, 6)),
                                    min_size=1, max_size=8), min_size=1, max_size=4))
    def test_matches_dense_minors(self, chains):
        lat = linear_lattice(*chains)
        assert is_positive_definite(lat) == positive_minors(lat.gram)

    def test_plumbing_lattices(self):
        # long chains, the search's own input, on both sides of the criterion
        for chains, expected in [
                (((2,) * 30 + (5,),), True),
                (((3, 2, 2, 3, 2) * 6,), True),
                (((7, 2, 2, 2, 9, 2, 2), (1, 2)), True),
                (((2,) * 20, (1, 1), (2, 2)), False),  # a middle chain of determinant 0
                (((2,) * 20, (2, 1, 2)), False)]:  # d = 2, 1, 0 on the last chain
            lat = linear_lattice(*chains)
            assert is_positive_definite(lat) == positive_minors(lat.gram) == expected, chains


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
        gram = tuple(map(tuple, gram))
        assert is_isometric_embedding(gram, rows) == (delta == 0)
        assert is_isometric_embedding(gram, np.array(rows, dtype=np.int64)) == (delta == 0)

    @ORACLE_SETTINGS
    @given(rows=integer_matrices())
    def test_canonical_form_matches_dense(self, rows):
        expected = dense_canonical_form(rows)
        assert canonical_form(rows) == expected
        assert canonical_form([list(row) for row in rows]) == expected
        assert canonical_form(np.array(rows, dtype=np.int64)) == expected

    def test_canonical_form_without_columns(self):
        assert canonical_form(((), ())) == dense_canonical_form(((), ())) == ((), ())
