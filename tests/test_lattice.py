import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from ballobs.errors import InternalCheckError, LimitExceeded, UsageError
from ballobs.lattice import (ChainLattice, EmbeddingClass, SearchLimits, _square_parts,
                             canonical_form, integer_kernel,
                             is_isometric_embedding, is_positive_definite, linear_lattice,
                             orthogonal_complement, search_embedding_classes)
from ballobs.obstruction import class_summary
from test_exact_oracles import matrix_determinant

L222 = linear_lattice((2, 2, 2))
L9 = linear_lattice((9,))
CHAIN5 = linear_lattice((3, 2, 2, 3, 2))


def pad(rows, m):
    return tuple(tuple(row) + (0,) * (m - len(row)) for row in rows)


def apply_signed_permutation(rows, perm, signs):
    return tuple(tuple(signs[j] * row[perm[j]] for j in range(len(perm)))
                 for row in rows)


def reverse_basis(lat):
    """The same lattice with the basis order reversed."""
    return linear_lattice(*(c[::-1] for c in lat.chains[::-1]))


def continuant_determinant(weights):
    """Independent oracle for the determinant of a chain lattice."""
    prev, cur = 0, 1
    for a in weights:
        prev, cur = cur, a * cur - prev
    return cur


class TestConstruction:
    def test_linear_lattice_gram(self):
        assert L222.gram == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))

    def test_rank_one(self):
        assert linear_lattice((9,)).gram == ((9,),)
        assert linear_lattice((-7,)).gram == ((-7,),)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            linear_lattice(())

    @pytest.mark.parametrize("weights", [(2.5, 2), ("3",), (2.0,), (True, 2), (2, None)])
    def test_non_integer_weight_rejected(self, weights):
        # int() used to truncate 2.5 to 2 and parse "3" without complaint.
        with pytest.raises(UsageError, match="weights must be integers"):
            linear_lattice(weights)

    def test_several_chains(self):
        # Block diagonal, in basis order, with no -1 between chains.
        assert linear_lattice((9,), (2, 2, 2, 3)).gram == (
            (9, 0, 0, 0, 0),
            (0, 2, -1, 0, 0),
            (0, -1, 2, -1, 0),
            (0, 0, -1, 2, -1),
            (0, 0, 0, -1, 3))
        assert linear_lattice((2,), (3,), (4,)).gram == ((2, 0, 0), (0, 3, 0), (0, 0, 4))

    def test_direct_sum_rank8(self):
        lat = linear_lattice((2, 2, 2), (3, 2, 2, 3, 2))
        assert lat.rank == 8
        assert tuple(row[:3] for row in lat.gram[:3]) == L222.gram
        assert tuple(row[3:] for row in lat.gram[3:]) == CHAIN5.gram
        assert not any(x for row in lat.gram[:3] for x in row[3:])

    @pytest.mark.parametrize("chains", [(), ((2, 2), ()), ((), (3,))])
    def test_empty_chain_rejected(self, chains):
        with pytest.raises(UsageError, match="weight list must be nonempty"):
            linear_lattice(*chains)

    def test_weight_cap(self, monkeypatch):
        # More weights than the search takes are refused before any Gram
        # matrix is built.
        assert linear_lattice((2,) * 40, (3,) * 24).rank == 64
        monkeypatch.setattr(ChainLattice, "__new__", lambda *a: pytest.fail("built a lattice"))
        for chains in (((2,) * 65,), ((2,) * 40, (3,) * 25)):
            with pytest.raises(UsageError, match="at most 64 weights are supported, got 65"):
                linear_lattice(*chains)

    def test_record(self):
        # A plain namedtuple of the chains' weights and the Gram matrix,
        # both as tuples, whatever sequences the chains came in.
        lat = linear_lattice([2, 2], (3,))
        assert lat == ChainLattice(((2, 2), (3,)), ((2, -1, 0), (-1, 2, 0), (0, 0, 3)))
        assert lat.rank == 3
        assert repr(linear_lattice((3,))) == "ChainLattice(chains=((3,),), gram=((3,),))"
        with pytest.raises(AttributeError):
            lat.gram = ((1,),)

    def test_reversed(self):
        rev = reverse_basis(CHAIN5)
        assert rev.gram == linear_lattice((2, 3, 2, 2, 3)).gram
        # Several chains: the Gram matrix read from the last row and column.
        lat = linear_lattice((9,), (2, 2, 2, 3))
        k = lat.rank
        assert reverse_basis(lat).gram == tuple(tuple(lat.gram[k - 1 - i][k - 1 - j]
                                                      for j in range(k)) for i in range(k))

    @pytest.mark.parametrize("call, message", [
        (lambda: is_isometric_embedding(L222.gram, ((1, 0), (0, 1, 0), (0, 0, 1))),
         "embedding rows must all have the same length"),
        (lambda: integer_kernel(((1, 2),), 3), "rows must have length 3"),
    ], ids=["embedding", "kernel"])
    def test_shape_rejected(self, call, message):
        with pytest.raises(UsageError, match=message):
            call()


class TestDeterminant:
    @pytest.mark.parametrize("weights, expected", [
        ((3, 2, 2, 3, 2), 25),
        ((9,), 9),
        ((2, 2, 2), 4),
        ((3, 2, 2, 3), 16),
    ])
    def test_known_values(self, weights, expected):
        assert matrix_determinant(linear_lattice(weights).gram) == expected

    def test_matches_continuant(self):
        rng = random.Random(5)
        for _ in range(100):
            weights = tuple(rng.randrange(-4, 7) for _ in range(rng.randrange(1, 8)))
            assert matrix_determinant(linear_lattice(weights).gram) == \
                continuant_determinant(weights)

    def test_matrix_determinant_square_only(self):
        with pytest.raises(UsageError):
            matrix_determinant(((1, 2, 3), (4, 5, 6)))

    def test_positive_definite(self):
        assert is_positive_definite(L222)
        assert is_positive_definite(CHAIN5)
        assert not is_positive_definite(linear_lattice((1, 1)))  # det 0
        assert not is_positive_definite(linear_lattice((-2, -2)))
        # rank 17: the diagonal is positive but the second minor is 0
        assert not is_positive_definite(linear_lattice((1,) * 17))
        # chain by chain: one chain that is not definite is enough
        assert is_positive_definite(linear_lattice((1, 2), (2, 2, 2)))
        assert not is_positive_definite(linear_lattice((2, 2, 2), (1, 1)))


class TestIsometricEmbedding:
    def test_chain_rows(self):
        rows = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        assert is_isometric_embedding(L222.gram, rows)

    def test_rank_one_scaled(self):
        assert is_isometric_embedding(L9.gram, ((3, 0, 0, 0, 0),))

    def test_wrong_norm(self):
        assert not is_isometric_embedding(linear_lattice((2,)).gram, ((1, 0),))

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            is_isometric_embedding(L222.gram, ((1, 1, 0),))

    @pytest.mark.parametrize("rows", [((1.5,),), ((1.0,),), ((True,),), (("1",),),
                                      np.array([[1.5]]), [np.array([1.0])],
                                      ((1, 0.0),), ((False, 1),)])
    def test_non_integer_entries(self, rows):
        # read through int(), each of these would square to the Gram entry 1;
        # a zero that is not an int is refused like any other entry
        with pytest.raises(UsageError, match="entries must be integers"):
            is_isometric_embedding(linear_lattice((1,)).gram, rows)

    def test_numpy_rows(self):
        # an int array, or int arrays row by row, are read as ints
        rows = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        assert is_isometric_embedding(L222.gram, np.array(rows))
        assert is_isometric_embedding(L222.gram, [np.array(r) for r in rows])


class TestCanonicalForm:
    def test_sign_rule_and_zero_column(self):
        rows = ((0, -1), (0, 1))
        assert canonical_form(rows) == ((1, 0), (-1, 0))

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            k, m = rng.randrange(1, 5), rng.randrange(1, 6)
            rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(m)) for _ in range(k))
            canon = canonical_form(rows)
            assert canonical_form(canon) == canon

    def test_constant_on_orbits(self):
        rows = ((-1, 1, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, -1, 1, 0))
        canon = canonical_form(rows)
        rng = random.Random(17)
        m = 5
        for _ in range(100):
            perm = list(range(m))
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(m)]
            moved = apply_signed_permutation(rows, perm, signs)
            assert canonical_form(moved) == canon

    def test_complete_invariant_by_brute_force(self):
        # All embeddings of the rank-3 chain of 2s into Z^4, grouped both by
        # canonical form and by explicit orbit under the 384-element signed
        # permutation group: the two groupings must coincide.
        norm2 = [v for v in product(range(-1, 2), repeat=4)
                 if sum(x * x for x in v) == 2]
        embeddings = []
        gram = L222.gram
        for r1 in norm2:
            for r2 in norm2:
                if sum(a * b for a, b in zip(r1, r2)) != gram[0][1]:
                    continue
                for r3 in norm2:
                    if (sum(a * b for a, b in zip(r2, r3)) == gram[1][2]
                            and sum(a * b for a, b in zip(r1, r3)) == gram[0][2]):
                        embeddings.append((r1, r2, r3))
        assert embeddings
        canon_count = len({canonical_form(e) for e in embeddings})
        import itertools
        orbit_seen = set()
        orbit_count = 0
        all_perms = list(itertools.permutations(range(4)))
        all_signs = list(product((1, -1), repeat=4))
        for e in embeddings:
            if e in orbit_seen:
                continue
            orbit_count += 1
            for perm in all_perms:
                moved = tuple(tuple(row[j] for j in perm) for row in e)
                for signs in all_signs:
                    orbit_seen.add(tuple(tuple(s * x for s, x in zip(signs, row))
                                         for row in moved))
        assert canon_count == orbit_count
        classes = search_embedding_classes(L222, 4).classes
        assert len(classes) == orbit_count == 2


class TestIntegerKernel:
    def test_orthogonality_and_rank(self):
        rows = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        kernel = integer_kernel(rows, 4)
        assert len(kernel) == 1
        for w in kernel:
            assert all(sum(a * b for a, b in zip(w, r)) == 0 for r in rows)

    def test_saturation_by_small_vector_scan(self):
        # Every small integer vector orthogonal to the rows must be an integer
        # combination of the returned basis.
        rng = random.Random(9)
        for _ in range(30):
            m = rng.randrange(2, 5)
            k = rng.randrange(1, m)
            rows = [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(k)]
            kernel = integer_kernel(rows, m)
            basis = [list(map(Fraction, w)) for w in kernel]
            for v in product(range(-2, 3), repeat=m):
                if any(sum(a * b for a, b in zip(v, r)) != 0 for r in rows):
                    continue
                # solve v = sum c_i basis_i over Q by Gaussian elimination
                if not kernel:
                    assert not any(v)
                    continue
                mat = [list(col) for col in zip(*basis)]
                rhs = list(map(Fraction, v))
                coeffs = _solve_exact(mat, rhs)
                assert coeffs is not None
                assert all(c.denominator == 1 for c in coeffs)

    def test_full_rank_zero_kernel(self):
        rows = ((1, 0), (0, 1))
        assert integer_kernel(rows, 2) == ()

    @pytest.mark.parametrize("call", [
        # int() truncated these: the kernel of (1.5, 1) is spanned by (2, -3),
        # not (1, -1), and the complement came out as (1, -2, 0)
        lambda: integer_kernel(((1.5, 1),), 2),
        lambda: orthogonal_complement(((2.9, 1, 0), (0, 0, 1)), 3),
        lambda: class_summary(EmbeddingClass(((2.9, 1, 0), (0, 0, 1)))),
        lambda: integer_kernel(((True, 1),), 2),
        lambda: integer_kernel([np.array([1.5, 1.0])], 2),
        lambda: integer_kernel((("1", 1),), 2),
        # a zero-valued float used to be skipped with the zeros
        lambda: integer_kernel(((0.0, 1),), 2),
    ], ids=["kernel-float", "complement-float", "class-summary", "bool", "float-array", "str",
            "zero-float"])
    def test_non_integer_entries(self, call):
        with pytest.raises(UsageError, match="entries must be integers"):
            call()

    def test_numpy_rows(self):
        # an int array, or int arrays row by row, are read as ints
        rows = ((1, 2, 3), (0, 1, 1))
        assert integer_kernel(np.array(rows), 3) == integer_kernel(rows, 3) == ((1, 1, -1),)
        assert orthogonal_complement([np.array(r) for r in rows], 3) == (1, 1, -1)


def _solve_exact(mat, rhs):
    """Solve an (m x r) exact rational system; None if inconsistent."""
    m = len(mat)
    r = len(mat[0]) if m else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    pivot_cols = []
    row = 0
    for col in range(r):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [x / aug[row][col] for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivot_cols.append(col)
        row += 1
    for i in range(row, m):
        if aug[i][r] != 0:
            return None
    coeffs = [Fraction(0)] * r
    for i, col in enumerate(pivot_cols):
        coeffs[col] = aug[i][r]
    return coeffs


class TestOrthogonalComplement:
    def test_chain_in_z4(self):
        rows = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        assert orthogonal_complement(rows, 4) == (1, 1, 1, 1)

    def test_full_rank_zero_complement(self):
        rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert integer_kernel(rows, 3) == ()
        with pytest.raises(InternalCheckError, match="rank 0"):
            orthogonal_complement(rows, 3)

    def test_rank2_complement_raises(self):
        rows = ((1, -1, 0),)
        assert integer_kernel(rows, 3) == ((1, 1, 0), (0, 0, 1))
        with pytest.raises(InternalCheckError, match="rank 2"):
            orthogonal_complement(rows, 3)

    def test_second_class_norm_equals_lattice_determinant(self):
        classes = search_embedding_classes(CHAIN5, 6).classes
        norms = []
        for cls in classes:
            gen = orthogonal_complement(cls.matrix, 6)
            norms.append(sum(x * x for x in gen))
            assert math.gcd(*gen) == 1
        assert matrix_determinant(CHAIN5.gram) == 25
        assert 25 in norms


# Rank-4 chain embeddings with the middle weight-2 pair pinned to
# -e1+e2, -e2+e3; these three generate the classes that extend to the rank-5
# chain.
RANK4_EXTENDING_CLASSES = [
    ((0, -1, -1, -1), (-1, 1, 0, 0), (0, -1, 1, 0), (1, 1, 0, -1)),
    ((0, -1, -1, -1, 0), (-1, 1, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, -1, 1, 1)),
    ((1, 0, 0, 1, 1, 0, 0), (-1, 1, 0, 0, 0, 0, 0), (0, -1, 1, 0, 0, 0, 0),
     (0, 0, -1, 0, 0, 1, 1)),
]

# The full-support (eight-coordinate) rank-5 chain embedding.
RANK5_FULL_SUPPORT_CLASS = ((1, 0, 0, 1, -1, 0, 0, 0), (-1, 1, 0, 0, 0, 0, 0, 0),
                            (0, -1, 1, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 1, 1, 0),
                            (0, 0, 0, 0, 0, 0, -1, 1))

# Hand-verified rank-7 chain embeddings with supports 9 and 11; these are the
# classes beyond the three-support family (exact Gram checks in the test).
EXTRA_N3_SUPPORT9 = (
    (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 1, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0),
)
EXTRA_N3_SUPPORT11 = (
    (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0),
)


class TestEnumeration:
    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_chain222_two_classes(self, m):
        classes = search_embedding_classes(L222, m).classes
        assert len(classes) == 2
        assert sorted(len(c.support) for c in classes) == [3, 4]

    def test_chain222_rank4_complement(self):
        classes = search_embedding_classes(L222, 4).classes
        rank4 = [c for c in classes if len(c.support) == 4]
        assert len(rank4) == 1
        gen = orthogonal_complement(rank4[0].matrix, 4)
        assert sum(x * x for x in gen) == 4
        assert sorted(abs(x) for x in gen) == [1, 1, 1, 1]

    def test_example_direct_sum_unique(self):
        lat = linear_lattice((9,), (2, 2, 2, 3))
        classes = search_embedding_classes(lat, 5).classes
        assert len(classes) == 1
        # the explicit embedding 3e1; -e_i+e_(i+1); e2+e3+e4 lands in it
        explicit = ((3, 0, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, -1, 1, 0),
                    (0, 0, 0, -1, 1), (0, 1, 1, 1, 0))
        assert is_isometric_embedding(lat.gram, explicit)
        assert canonical_form(explicit) == classes[0].matrix

    def test_rank4_chain_contains_extending_classes(self):
        # The rank-4 chain (3,2,2,3) has five classes in Z^8, and these three
        # are among them.  The remaining two do not extend to the rank-5
        # chain, which the rank-5 counts below confirm independently.
        lat = linear_lattice((3, 2, 2, 3))
        classes = {c.matrix for c in search_embedding_classes(lat, 8).classes}
        assert len(classes) == 5
        for rows in RANK4_EXTENDING_CLASSES:
            padded = pad(rows, 8)
            assert is_isometric_embedding(lat.gram, padded)
            assert canonical_form(padded) in classes

    @pytest.mark.parametrize("m", [8, 9])
    def test_rank5_chain_three_classes(self, m):
        classes = search_embedding_classes(CHAIN5, m).classes
        assert len(classes) == 3
        assert sorted(len(c.support) for c in classes) == [5, 6, 8]
        for cls in classes:
            sup = cls.support
            restricted = tuple(tuple(row[j] for j in sup) for row in cls.matrix)
            basis = integer_kernel(restricted, len(sup))
            assert len(basis) == len(sup) - 5
            if len(sup) == 6:
                assert sum(x * x for x in basis[0]) == 25

    def test_rank5_chain_full_support_class_is_the_known_one(self):
        classes = search_embedding_classes(CHAIN5, 8).classes
        full = [c for c in classes if len(c.support) == 8]
        assert len(full) == 1
        assert is_isometric_embedding(CHAIN5.gram, RANK5_FULL_SUPPORT_CLASS)
        assert canonical_form(RANK5_FULL_SUPPORT_CLASS) == full[0].matrix

    def test_rank7_chain_five_classes(self):
        # Searched truth for the n=3 chain: five classes, stabilising from
        # m=12 on.  Two of them fall outside the three-support family; their
        # representatives above are verified as embeddings from scratch.
        lat = linear_lattice((3, 3, 2, 2, 3, 3, 2))
        classes = search_embedding_classes(lat, 12).classes
        assert len(classes) == 5
        assert sorted(len(c.support) for c in classes) == [7, 8, 9, 11, 12]
        class_set = {c.matrix for c in classes}
        for rows in (EXTRA_N3_SUPPORT9, EXTRA_N3_SUPPORT11):
            assert is_isometric_embedding(lat.gram, rows)
            assert canonical_form(rows) in class_set
        # Lower bound independent of search completeness: every returned
        # matrix re-verifies as an isometric embedding by direct integer
        # arithmetic, and the five support sizes are pairwise distinct
        # ambient invariants, so there are at least five distinct classes.
        for cls in classes:
            assert is_isometric_embedding(lat.gram, cls.matrix)
            assert canonical_form(cls.matrix) == cls.matrix
        assert len({len(c.support) for c in classes}) == 5
        support8 = [c for c in classes if len(c.support) == 8]
        gen = orthogonal_complement(
            tuple(tuple(row[j] for j in support8[0].support) for row in support8[0].matrix), 8)
        assert sum(x * x for x in gen) == 169

    def test_counts_independent_of_vertex_order(self):
        for lat, m in [(CHAIN5, 8), (linear_lattice((3, 2, 2, 3)), 7),
                       (linear_lattice((9,), (2, 2, 2, 3)), 5),
                       (linear_lattice((3, 3, 2, 2, 3, 3, 2)), 12)]:
            fwd = search_embedding_classes(lat, m).classes
            rev = search_embedding_classes(reverse_basis(lat), m).classes
            assert len(fwd) == len(rev)
            flipped = {canonical_form(tuple(reversed(c.matrix))) for c in rev}
            assert flipped == {c.matrix for c in fwd}

    def test_empty_when_ambient_too_small(self):
        assert search_embedding_classes(L222, 2).classes == ()

    def test_not_positive_definite_rejected(self):
        with pytest.raises(UsageError):
            search_embedding_classes(linear_lattice((1, 1)), 4)

    def test_every_class_is_isometric(self):
        for lat, m in [(CHAIN5, 9), (linear_lattice((2, 2, 2), (2, 2, 2)), 7)]:
            for cls in search_embedding_classes(lat, m).classes:
                assert is_isometric_embedding(lat.gram, cls.matrix)
                assert canonical_form(cls.matrix) == cls.matrix

    def test_node_budget_raises_with_partial_stats(self):
        with pytest.raises(LimitExceeded) as info:
            search_embedding_classes(CHAIN5, 9, limits=SearchLimits(node_budget=2))
        assert info.value.stats.limit_hit
        assert info.value.stats.nodes >= 2

    def test_time_budget_raises(self):
        lat = linear_lattice((3, 2, 2, 3, 2), (2, 3, 3, 2, 2, 3, 3))
        with pytest.raises(LimitExceeded) as info:
            search_embedding_classes(lat, 13, limits=SearchLimits(time_budget=1e-9))
        assert info.value.stats.limit_hit

    def test_invalid_limits_rejected(self):
        with pytest.raises(UsageError):
            SearchLimits(node_budget=0)
        with pytest.raises(UsageError):
            SearchLimits(time_budget=-1)
        with pytest.raises(UsageError, match="time budget must be positive"):
            SearchLimits(time_budget=float("nan"))
        for bad in (2.5, True, "10"):
            with pytest.raises(UsageError, match="node budget must be an integer"):
                SearchLimits(node_budget=bad)
        for bad in (True, False):
            with pytest.raises(UsageError, match="time budget must be a number"):
                SearchLimits(10, bad)

    def test_limits_record(self):
        assert SearchLimits() == (10 ** 8, None)
        assert SearchLimits(time_budget=2.5) == SearchLimits(10 ** 8, 2.5)
        assert SearchLimits(node_budget=7).node_budget == 7
        assert repr(SearchLimits(7)) == "SearchLimits(node_budget=7, time_budget=None)"
        with pytest.raises(AttributeError):
            SearchLimits().node_budget = 1
        # ``_replace`` goes through ``_make``, and both reach ``__new__``.
        assert SearchLimits()._replace(time_budget=2.5) == SearchLimits(10 ** 8, 2.5)
        with pytest.raises(UsageError, match="node budget must be positive"):
            SearchLimits()._replace(node_budget=0)
        with pytest.raises(UsageError, match="time budget must be positive"):
            SearchLimits._make((7, -1.0))

    def test_stats_deterministic(self):
        r1 = search_embedding_classes(CHAIN5, 9)
        r2 = search_embedding_classes(CHAIN5, 9)
        assert r1.stats == r2.stats
        assert r1.classes == r2.classes

    @pytest.mark.parametrize("n, nodes, classes", [(2, 12, 3), (3, 23, 5), (4, 54, 12),
                                                   (5, 183, 37)])
    def test_chain_walk_counts(self, n, nodes, classes):
        # The chunked walk visits the node set of a node-by-node search, so
        # its counts are those of docs/decisions.md.
        lat = linear_lattice((3,) * (n - 1) + (2, 2) + (3,) * (n - 1) + (2,))
        stats = search_embedding_classes(lat, 4 * n).stats
        assert (stats.nodes, stats.leaves, stats.classes) == (nodes, classes, classes)

    def test_stabilization_helper(self):
        # docs/decisions.md: the n=3 chain has five classes at m = 12, 13, 14
        lat = linear_lattice((3, 3, 2, 2, 3, 3, 2))
        counts = [len(search_embedding_classes(lat, m).classes) for m in (12, 13, 14)]
        assert counts == [5, 5, 5]


@lru_cache(maxsize=None)
def shell(m, norm):
    """Every x in Z^m with x.x == norm, by a product scan of the norm box."""
    v = math.isqrt(norm)
    return np.array([x for x in product(range(-v, v + 1), repeat=m)
                     if sum(t * t for t in x) == norm], dtype=np.int64).reshape(-1, m)


def brute_force_classes(lat, m):
    """Canonical embedding matrices with no symmetry breaking in the search.

    Each row is drawn from all of Z^m inside its norm box and kept when its
    inner products with the rows above match the Gram matrix; partial
    matrices are deduplicated by canonical form after every row.
    """
    gram = np.array(lat.gram, dtype=np.int64)
    level = {()}
    for i in range(lat.rank):
        vecs = shell(m, int(gram[i, i]))
        nxt = set()
        for placed in level:
            if placed:
                vecs_i = vecs[(vecs @ np.array(placed).T == gram[i, :i]).all(axis=1)]
            else:
                vecs_i = vecs
            for x in vecs_i:
                nxt.add(canonical_form(placed + (tuple(int(t) for t in x),)))
        level = nxt
    return level


def random_small_lattice(rng):
    """A chain or a sum of two chains, with an ambient rank of at most 9."""
    top = 5 if rng.random() < 0.3 else 3
    chains = [tuple(rng.randrange(2, top + 1) for _ in range(rng.randrange(1, 5)))]
    if rng.random() < 0.5:
        chains.append(tuple(rng.randrange(2, 4) for _ in range(rng.randrange(1, 3))))
    lat = linear_lattice(*chains)
    # A norm box of radius 2 on more than 7 coordinates is a slow scan.
    m_max = 7 if top > 3 else 9
    return lat, rng.randrange(min(lat.rank, m_max), m_max + 1)


class TestBruteForceOracle:
    def test_class_sets_match_search(self):
        rng = random.Random(2019)
        nonempty = 0
        for _ in range(40):
            lat, m = random_small_lattice(rng)
            expected = brute_force_classes(lat, m)
            result = search_embedding_classes(lat, m)
            assert {c.matrix for c in result.classes} == expected, (lat.gram, m)
            assert result.stats.leaves == result.stats.classes
            nonempty += bool(expected)
        assert nonempty >= 20

    def test_oracle_on_known_counts(self):
        assert len(brute_force_classes(L222, 5)) == 2
        assert len(brute_force_classes(CHAIN5, 8)) == 3


def square_parts_oracle(n, max_parts, cap):
    """Every weakly decreasing tuple in range, filtered by its square sum."""
    out = []
    for size in range(max_parts + 1):
        for parts in product(range(cap, 0, -1), repeat=size):
            if list(parts) == sorted(parts, reverse=True) and sum(c * c for c in parts) == n:
                out.append(parts)
    return sorted(out, reverse=True)


class TestSquareParts:
    @pytest.mark.parametrize("max_parts", [0, 1, 2, 4])
    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_matches_oracle_in_descending_order(self, max_parts, cap):
        for n in range(0, 30):
            got = list(_square_parts(n, max_parts, cap))
            assert got == square_parts_oracle(n, max_parts, cap), (n, max_parts, cap)

    def test_first_part_of_a_large_norm_comes_at_once(self):
        # 442^2 = 195364; the full list of its parts is too large to build.
        assert next(_square_parts(195364, 20, 442)) == (442,)

    def test_bound_yields_nothing_out_of_reach(self):
        assert list(_square_parts(10, 2, 2)) == []
        assert list(_square_parts(8, 2, 2)) == [(2, 2)]
