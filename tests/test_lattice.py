import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from ballobs.errors import LimitExceeded, UsageError
from ballobs.lattice import (GramLattice, SearchLimits,
                             canonical_form, canonical_form_with_transform,
                             class_count_stabilization, direct_sum,
                             enumerate_embedding_classes, integer_kernel,
                             is_isometric_embedding, is_positive_definite,
                             is_primitive_vector, lattice_determinant,
                             leading_principal_minors, linear_lattice,
                             matrix_determinant, orthogonal_complement,
                             search_embedding_classes, transform_vector,
                             unit_pairing_profile)

L222 = linear_lattice((2, 2, 2))
L9 = linear_lattice((9,))
CHAIN5 = linear_lattice((3, 2, 2, 3, 2))


def pad(rows, m):
    return tuple(tuple(row) + (0,) * (m - len(row)) for row in rows)


def apply_signed_permutation(rows, perm, signs):
    return tuple(tuple(signs[j] * row[perm[j]] for j in range(len(perm)))
                 for row in rows)


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

    def test_direct_sum_block_structure(self):
        lat = direct_sum(L9, linear_lattice((2, 2, 2, 3)))
        assert lat.rank == 5
        assert lat.gram[0] == (9, 0, 0, 0, 0)
        assert lat.gram[1] == (0, 2, -1, 0, 0)
        assert lat.gram[4] == (0, 0, 0, -1, 3)

    def test_direct_sum_rank8(self):
        lat = direct_sum(L222, CHAIN5)
        assert lat.rank == 8

    def test_asymmetric_rejected(self):
        with pytest.raises(UsageError):
            GramLattice(((1, 2), (3, 1)))

    def test_reversed(self):
        rev = CHAIN5.reversed()
        assert rev.gram == linear_lattice((2, 3, 2, 2, 3)).gram


class TestDeterminant:
    @pytest.mark.parametrize("weights, expected", [
        ((3, 2, 2, 3, 2), 25),
        ((9,), 9),
        ((2, 2, 2), 4),
        ((3, 2, 2, 3), 16),
    ])
    def test_known_values(self, weights, expected):
        assert lattice_determinant(linear_lattice(weights)) == expected

    def test_matches_continuant(self):
        rng = random.Random(5)
        for _ in range(100):
            weights = tuple(rng.randrange(-4, 7) for _ in range(rng.randrange(1, 8)))
            assert lattice_determinant(linear_lattice(weights)) == \
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

    def test_leading_minors(self):
        assert leading_principal_minors(L222.gram) == [2, 3, 4]


class TestIsometricEmbedding:
    def test_chain_rows(self):
        rows = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        assert is_isometric_embedding(L222, rows)

    def test_rank_one_scaled(self):
        assert is_isometric_embedding(L9, ((3, 0, 0, 0, 0),))

    def test_wrong_norm(self):
        assert not is_isometric_embedding(linear_lattice((2,)), ((1, 0),))

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            is_isometric_embedding(L222, ((1, 1, 0),))


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

    def test_transform_consistency(self):
        rows = ((0, 3, 0, -1), (1, 0, -2, 0))
        canon, perm, signs = canonical_form_with_transform(rows)
        rebuilt = tuple(transform_vector(row, perm, signs) for row in rows)
        assert rebuilt == canon

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
        classes = enumerate_embedding_classes(L222, 4)
        assert len(classes) == orbit_count == 2


class TestPrimitiveVector:
    @pytest.mark.parametrize("v, expected", [
        ((3, 0, 0, 0, 0), False),
        ((1, 1, 1, 1), True),
        ((2, 4, 6), False),
    ])
    def test_examples(self, v, expected):
        assert is_primitive_vector(v) is expected

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            is_primitive_vector((0, 0))


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
        comp = orthogonal_complement(rows, 4)
        assert comp.rank == 1
        assert comp.generator == (1, 1, 1, 1)
        assert comp.generator_norm == 4

    def test_full_rank_zero_complement(self):
        rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        comp = orthogonal_complement(rows, 3)
        assert comp.rank == 0 and comp.basis == ()

    def test_second_class_norm_equals_lattice_determinant(self):
        classes = enumerate_embedding_classes(CHAIN5, 6)
        norms = []
        for cls in classes:
            comp = orthogonal_complement(cls.matrix, 6)
            if comp.rank == 1:
                norms.append(comp.generator_norm)
                assert is_primitive_vector(comp.generator)
        assert lattice_determinant(CHAIN5) == 25
        assert 25 in norms


class TestUnitPairingProfile:
    def test_failing_pattern(self):
        m_rows = ((3, 0, 0, 0, 0),)
        c_rows = ((0, -1, 1, 0, 0), (0, 0, -1, 1, 0), (0, 0, 0, -1, 1),
                  (0, 1, 1, 1, 0))
        profile = unit_pairing_profile(m_rows, c_rows, 5)
        assert profile.m_flags == (True, False, False, False, False)
        assert profile.c_flags == (False, True, True, True, True)
        assert not profile.passes

    def test_passing_pattern(self):
        m_rows = ((1, 1, 1, 1),)
        c_rows = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        assert unit_pairing_profile(m_rows, c_rows, 4).passes

    def test_non_orthogonal_rejected(self):
        with pytest.raises(UsageError):
            unit_pairing_profile(((1, 0),), ((1, 1),), 2)


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
        classes = enumerate_embedding_classes(L222, m)
        assert len(classes) == 2
        assert sorted(len(c.support) for c in classes) == [3, 4]

    def test_chain222_rank4_complement(self):
        classes = enumerate_embedding_classes(L222, 4)
        rank4 = [c for c in classes if len(c.support) == 4]
        assert len(rank4) == 1
        comp = orthogonal_complement(rank4[0].matrix, 4)
        assert comp.rank == 1 and comp.generator_norm == 4
        assert sorted(abs(x) for x in comp.generator) == [1, 1, 1, 1]

    def test_example_direct_sum_unique(self):
        lat = direct_sum(L9, linear_lattice((2, 2, 2, 3)))
        classes = enumerate_embedding_classes(lat, 5)
        assert len(classes) == 1
        # the explicit embedding 3e1; -e_i+e_(i+1); e2+e3+e4 lands in it
        explicit = ((3, 0, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, -1, 1, 0),
                    (0, 0, 0, -1, 1), (0, 1, 1, 1, 0))
        assert is_isometric_embedding(lat, explicit)
        assert canonical_form(explicit) == classes[0].matrix

    def test_rank4_chain_contains_extending_classes(self):
        # The rank-4 chain (3,2,2,3) has five classes in Z^8, and these three
        # are among them.  The remaining two do not extend to the rank-5
        # chain, which the rank-5 counts below confirm independently.
        lat = linear_lattice((3, 2, 2, 3))
        classes = {c.matrix for c in enumerate_embedding_classes(lat, 8)}
        assert len(classes) == 5
        for rows in RANK4_EXTENDING_CLASSES:
            padded = pad(rows, 8)
            assert is_isometric_embedding(lat, padded)
            assert canonical_form(padded) in classes

    @pytest.mark.parametrize("m", [8, 9])
    def test_rank5_chain_three_classes(self, m):
        classes = enumerate_embedding_classes(CHAIN5, m)
        assert len(classes) == 3
        assert sorted(len(c.support) for c in classes) == [5, 6, 8]
        for cls in classes:
            sup = cls.support
            restricted = tuple(tuple(row[j] for j in sup) for row in cls.matrix)
            comp = orthogonal_complement(restricted, len(sup))
            if len(sup) == 6:
                assert comp.rank == 1 and comp.generator_norm == 25

    def test_rank5_chain_full_support_class_is_the_known_one(self):
        classes = enumerate_embedding_classes(CHAIN5, 8)
        full = [c for c in classes if len(c.support) == 8]
        assert len(full) == 1
        assert is_isometric_embedding(CHAIN5, RANK5_FULL_SUPPORT_CLASS)
        assert canonical_form(RANK5_FULL_SUPPORT_CLASS) == full[0].matrix

    def test_rank7_chain_five_classes(self):
        # Searched truth for the n=3 chain: five classes, stabilising from
        # m=12 on.  Two of them fall outside the three-support family; their
        # representatives above are verified as embeddings from scratch.
        lat = linear_lattice((3, 3, 2, 2, 3, 3, 2))
        classes = enumerate_embedding_classes(lat, 12)
        assert len(classes) == 5
        assert sorted(len(c.support) for c in classes) == [7, 8, 9, 11, 12]
        class_set = {c.matrix for c in classes}
        for rows in (EXTRA_N3_SUPPORT9, EXTRA_N3_SUPPORT11):
            assert is_isometric_embedding(lat, rows)
            assert canonical_form(rows) in class_set
        # Lower bound independent of search completeness: every returned
        # matrix re-verifies as an isometric embedding by direct integer
        # arithmetic, and the five support sizes are pairwise distinct
        # ambient invariants, so there are at least five distinct classes.
        for cls in classes:
            assert is_isometric_embedding(lat, cls.matrix)
            assert canonical_form(cls.matrix) == cls.matrix
        assert len({len(c.support) for c in classes}) == 5
        support8 = [c for c in classes if len(c.support) == 8]
        comp = orthogonal_complement(
            tuple(tuple(row[j] for j in support8[0].support) for row in support8[0].matrix), 8)
        assert comp.rank == 1 and comp.generator_norm == 169

    def test_counts_independent_of_vertex_order(self):
        for lat, m in [(CHAIN5, 8), (linear_lattice((3, 2, 2, 3)), 7),
                       (direct_sum(L9, linear_lattice((2, 2, 2, 3))), 5)]:
            fwd = enumerate_embedding_classes(lat, m)
            rev = enumerate_embedding_classes(lat.reversed(), m)
            assert len(fwd) == len(rev)
            flipped = {canonical_form(tuple(reversed(c.matrix))) for c in rev}
            assert flipped == {c.matrix for c in fwd}

    def test_empty_when_ambient_too_small(self):
        assert enumerate_embedding_classes(L222, 2) == []

    def test_not_positive_definite_rejected(self):
        with pytest.raises(UsageError):
            enumerate_embedding_classes(linear_lattice((1, 1)), 4)

    def test_every_class_is_isometric(self):
        for lat, m in [(CHAIN5, 9), (direct_sum(L222, L222), 7)]:
            for cls in enumerate_embedding_classes(lat, m):
                assert is_isometric_embedding(lat, cls.matrix)
                assert canonical_form(cls.matrix) == cls.matrix

    def test_node_budget_raises_with_partial_stats(self):
        with pytest.raises(LimitExceeded) as info:
            search_embedding_classes(CHAIN5, 9, limits=SearchLimits(node_budget=2))
        assert info.value.stats.limit_hit
        assert info.value.stats.nodes >= 2

    def test_time_budget_raises(self):
        lat = direct_sum(CHAIN5, linear_lattice((2, 3, 3, 2, 2, 3, 3)))
        with pytest.raises(LimitExceeded) as info:
            search_embedding_classes(lat, 13, limits=SearchLimits(time_budget=1e-9))
        assert info.value.stats.limit_hit

    def test_invalid_limits_rejected(self):
        with pytest.raises(UsageError):
            SearchLimits(node_budget=0)
        with pytest.raises(UsageError):
            SearchLimits(time_budget=-1)

    def test_stats_deterministic(self):
        r1 = search_embedding_classes(CHAIN5, 9)
        r2 = search_embedding_classes(CHAIN5, 9)
        assert r1.stats == r2.stats  # elapsed_ms excluded from equality
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
        counts, stable = class_count_stabilization(L222, 4, extra=2)
        assert counts == ((4, 2), (5, 2), (6, 2))
        assert stable


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
    gram = lat.to_array()
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
    w1 = tuple(rng.randrange(2, top + 1) for _ in range(rng.randrange(1, 5)))
    lat = linear_lattice(w1)
    if rng.random() < 0.5:
        w2 = tuple(rng.randrange(2, 4) for _ in range(rng.randrange(1, 3)))
        lat = direct_sum(lat, linear_lattice(w2))
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
