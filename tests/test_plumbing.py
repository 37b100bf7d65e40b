import functools
import random
from itertools import product

import pytest

from ballobs import plumbing
from ballobs.errors import UsageError
from ballobs.lattice import linear_lattice
from ballobs.plumbing import rb_chain, reduce, simple_embedding_certificate
from test_exact_oracles import matrix_determinant
from test_lattice import continuant_determinant


def det_by_expansion(chain):
    """Independent determinant oracle: cofactor expansion of the tridiagonal
    intersection matrix as a dense matrix over the rationals is overkill; the
    chain is small enough for a direct recursive expansion on minors."""
    chain = tuple(chain)
    n = len(chain)
    if n == 0:
        return 1

    def minor_det(mat):
        size = len(mat)
        if size == 0:
            return 1
        if size == 1:
            return mat[0][0]
        total = 0
        for j in range(size):
            if mat[0][j] == 0:
                continue
            sub = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * minor_det(sub)
        return total

    mat = [[chain[i] if i == j else (-1 if abs(i - j) == 1 else 0)
            for j in range(n)] for i in range(n)]
    return minor_det(mat)


def abs_det(chain):
    """|det| of a chain's intersection matrix by the continuant recurrence,
    which tests/test_lattice.py checks against the Bareiss oracle; the empty
    chain has determinant 1."""
    return abs(continuant_determinant(chain))


class TestRbChain:
    def test_n2(self):
        assert rb_chain(2) == (-3, -2, -1, -2)

    def test_n3(self):
        assert rb_chain(3) == (-3, -3, -2, -1, -3, -2)

    def test_n1_rejected(self):
        with pytest.raises(UsageError):
            rb_chain(1)

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(UsageError, match="need an integer n >= 2"):
            rb_chain(bad)
        with pytest.raises(UsageError, match="need an integer n >= 2"):
            simple_embedding_certificate(bad)

    def test_length(self):
        for n in range(2, 13):
            assert len(rb_chain(n)) == 2 * n


class TestBlowDown:
    # Through reduce, which makes every blow-down; the first four take one.
    def test_interior(self):
        assert reduce((-3, -1, -3)) == ((-2, -2), 1)

    def test_end(self):
        assert reduce((-3, -1, -1)) == ((-3, 0), 1)

    def test_isolated(self):
        assert reduce((-1,)) == ((), 1)

    def test_left_end(self):
        assert reduce((-1, -4)) == ((-3,), 1)

    def test_length_decreases(self):
        final, count = reduce(rb_chain(5))
        assert len(final) == len(rb_chain(5)) - count


class TestBlowUp:
    def test_inverse_of_blow_down(self):
        # (-3, -2, -4) blown up at each of its four gaps.
        for up in ((-1, -4, -2, -4), (-4, -1, -3, -4), (-3, -3, -1, -5), (-3, -2, -5, -1)):
            assert reduce(up) == ((-3, -2, -4), 1)


class TestWeights:
    @pytest.mark.parametrize("chain", [["x"], (True, -1), [-1.0], [2.5, 2], (-2, None)])
    @pytest.mark.parametrize("call", [reduce], ids=["reduce"])
    def test_non_integer_weights_rejected(self, chain, call):
        with pytest.raises(UsageError, match="weights must be integers"):
            call(chain)

    def test_reduce_checks_once(self, monkeypatch):
        # The blow-downs inside reduce work on the checked chain; only the
        # entry check reads the weights.
        calls = []
        check = plumbing._weights
        monkeypatch.setattr(plumbing, "_weights", lambda c: calls.append(c) or check(c))
        assert plumbing.reduce(rb_chain(6)) == ((-3, 0), 10)
        assert len(calls) == 1


class TestReduce:
    def test_n2(self):
        assert reduce((-3, -2, -1, -2)) == ((-3, 0), 2)

    def test_n3(self):
        assert reduce((-3, -3, -2, -1, -3, -2)) == ((-3, 0), 4)

    def test_fixed_point(self):
        assert reduce((-3, 0)) == ((-3, 0), 0)

    def test_rb_chain_family(self):
        for n in range(2, 13):
            assert reduce(rb_chain(n)) == ((-3, 0), 2 * n - 2)


class TestDeterminant:
    @pytest.mark.parametrize("chain, expected", [
        ((-3, 0), -1),
        ((-3, -2, -1, -2), -1),
        ((7,), 7),
        ((), 1),
    ])
    def test_known_values(self, chain, expected):
        assert det_by_expansion(chain) == expected
        assert abs_det(chain) == abs(expected)

    def test_matches_cofactor_expansion(self):
        rng = random.Random(7)
        for _ in range(200):
            chain = tuple(rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7)))
            assert matrix_determinant(linear_lattice(chain).gram) == det_by_expansion(chain)

    def test_invariant_under_blow_down_exhaustive(self):
        # reduce keeps |det| on every chain of length <= 8 with weights in
        # [-4, -1] that has a -1 to blow down.  The reduced chains repeat.
        reduced_det = functools.lru_cache(maxsize=None)(abs_det)
        for length in range(1, 9):
            for chain in product((-4, -3, -2, -1), repeat=length):
                if -1 in chain:
                    assert reduced_det(reduce(chain)[0]) == abs_det(chain), chain

    def test_fuzz_blow_up_preserves_determinant(self):
        # A chain with a -1 is the blow-up of the chain that blows that -1
        # down, so random chains with a -1 are random blow-ups.
        rng = random.Random(2024)
        for _ in range(1000):
            chain = tuple(rng.randrange(-5, 3) for _ in range(rng.randrange(1, 9)))
            if -1 in chain:
                assert abs_det(reduce(chain)[0]) == abs_det(chain), chain


class TestCertificate:
    def test_n2(self):
        cert = simple_embedding_certificate(2)
        assert cert.final == (-3, 0) and cert.blowdowns == 2 and cert.b2 == 4

    def test_n5(self):
        cert = simple_embedding_certificate(5)
        assert cert.final == (-3, 0) and cert.blowdowns == 8 and cert.b2 == 10

    def test_n1_rejected(self):
        with pytest.raises(UsageError):
            simple_embedding_certificate(1)

    def test_record(self):
        cert = simple_embedding_certificate(3)
        assert repr(cert) == str(cert) == ("BlowdownCertificate(start=(-3, -3, -2, -1, -3, -2), "
                                           "final=(-3, 0), blowdowns=4, b2=6)")
        assert list(cert._asdict()) == ["start", "final", "blowdowns", "b2"]
        with pytest.raises(AttributeError):
            cert.b2 = 7

    def test_family(self):
        for n in range(2, 13):
            cert = simple_embedding_certificate(n)
            assert cert.start == rb_chain(n)
            assert cert.final == (-3, 0)
            assert cert.blowdowns == 2 * n - 2
            assert cert.b2 == 2 * n
