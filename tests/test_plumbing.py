import random
from itertools import product

import pytest

from ballobs import plumbing
from ballobs.errors import UsageError
from ballobs.plumbing import (blow_down, blow_up, chain_determinant, rb_chain,
                              reduce, simple_embedding_certificate)


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
    def test_interior(self):
        assert blow_down((-3, -2, -1, -2), 3) == (-3, -1, -1)

    def test_end(self):
        assert blow_down((-3, -1, -1), 3) == (-3, 0)

    def test_isolated(self):
        assert blow_down((-1,), 1) == ()

    def test_left_end(self):
        assert blow_down((-1, -4), 1) == (-3,)

    def test_wrong_weight_rejected(self):
        with pytest.raises(UsageError):
            blow_down((-3, -2, -1, -2), 1)

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            blow_down((-1,), 2)
        for bad in (True, 1.0):
            with pytest.raises(UsageError, match="index must be an integer"):
                blow_down((-1, -2), bad)

    def test_length_decreases(self):
        chain = rb_chain(5)
        while -1 in chain:
            idx = chain.index(-1) + 1
            shorter = blow_down(chain, idx)
            assert len(shorter) == len(chain) - 1
            chain = shorter


class TestBlowUp:
    def test_isolated(self):
        assert blow_up((), 0) == (-1,)

    def test_inverse_of_blow_down(self):
        chain = (-3, -2, -4)
        for gap in range(len(chain) + 1):
            up = blow_up(chain, gap)
            assert up[gap] == -1
            assert blow_down(up, gap + 1) == chain

    def test_gap_out_of_range(self):
        for bad in (-1, 3, True, 1.0):
            with pytest.raises(UsageError, match="gap must be an integer from 0 to 2"):
                blow_up((-3, -2), bad)


class TestWeights:
    # Each chain function takes int weights only, bools excluded.
    @pytest.mark.parametrize("chain", [["x"], (True, -1), [-1.0], [2.5, 2], (-2, None)])
    @pytest.mark.parametrize("call", [
        lambda c: blow_down(c, 1),
        lambda c: blow_up(c, 0),
        reduce,
        chain_determinant,
    ], ids=["blow_down", "blow_up", "reduce", "chain_determinant"])
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
        assert chain_determinant(chain) == expected

    def test_matches_cofactor_expansion(self):
        rng = random.Random(7)
        for _ in range(200):
            chain = tuple(rng.randrange(-5, 6) for _ in range(rng.randrange(0, 7)))
            assert chain_determinant(chain) == det_by_expansion(chain)

    def test_invariant_under_blow_down_exhaustive(self):
        # |det| is preserved by every legal blow-down on chains of length <= 8
        # with weights in [-4, -1].
        for length in range(1, 9):
            for chain in product((-4, -3, -2, -1), repeat=length):
                if -1 not in chain:
                    continue
                d = abs(chain_determinant(chain))
                for idx, w in enumerate(chain):
                    if w == -1:
                        assert abs(chain_determinant(blow_down(chain, idx + 1))) == d

    def test_fuzz_blow_up_preserves_determinant(self):
        rng = random.Random(2024)
        for _ in range(1000):
            length = rng.randrange(0, 8)
            chain = tuple(rng.randrange(-5, 3) for _ in range(length))
            gap = rng.randrange(0, length + 1)
            up = blow_up(chain, gap)
            assert abs(chain_determinant(up)) == abs(chain_determinant(chain))
            # reducing the blown-up chain cannot change |det| either
            final, _ = reduce(up)
            assert abs(chain_determinant(final)) == abs(chain_determinant(chain))


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
