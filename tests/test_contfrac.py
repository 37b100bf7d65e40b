import math
from fractions import Fraction
from itertools import product

import pytest

from ballobs.contfrac import fibonacci_identities, hj_eval, hj_expand, lens_plumbing
from ballobs.errors import UsageError
from ballobs.markov import odd_fibonacci


class TestEval:
    @pytest.mark.parametrize("coeffs, expected", [
        ([3, 2], Fraction(5, 2)),
        ([3, 5, 2], Fraction(25, 9)),
        ([7], Fraction(7, 1)),
        ([2, 5, 3], Fraction(25, 14)),
        ([3, 2, 2, 2], Fraction(9, 4)),
    ])
    def test_known_values(self, coeffs, expected):
        assert hj_eval(coeffs) == expected

    def test_rejects_small_coefficients(self):
        with pytest.raises(UsageError):
            hj_eval([3, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            hj_eval([])


class TestExpand:
    @pytest.mark.parametrize("p, q, expected", [
        (5, 2, (3, 2)),
        (9, 7, (2, 2, 2, 3)),
        (2, 1, (2,)),
        (25, 16, (2, 3, 2, 2, 3)),
    ])
    def test_known_values(self, p, q, expected):
        assert hj_expand(p, q) == expected

    def test_rejects_non_coprime(self):
        with pytest.raises(UsageError):
            hj_expand(9, 6)

    def test_rejects_p_not_larger(self):
        with pytest.raises(UsageError):
            hj_expand(3, 3)

    @pytest.mark.parametrize("p, q", [(5, True), (True, 1), (5, 2.0)])
    def test_rejects_non_integers(self, p, q):
        # A bool is an int to Python, but never a parameter here.
        with pytest.raises(UsageError, match="must be integers"):
            hj_expand(p, q)

    def test_max_length(self):
        # 10^7/(10^7 - 1) expands to 10^7 - 1 twos: bounded, it stops at once.
        assert hj_expand(9, 7, max_length=4) == (2, 2, 2, 3)
        for p, q, bound in ((9, 7, 3), (10 ** 7, 10 ** 7 - 1, 63)):
            with pytest.raises(UsageError, match=f"more than {bound} coefficients"):
                hj_expand(p, q, max_length=bound)

    @pytest.mark.parametrize("bad", [2.5, -1, "3", True])
    def test_rejects_bad_max_length(self, bad):
        with pytest.raises(UsageError, match="max_length must be"):
            hj_expand(9, 7, max_length=bad)
        with pytest.raises(UsageError, match="max_length must be"):
            lens_plumbing(9, 2, max_length=bad)

    def test_round_trip_expansions(self):
        # hj_expand(hj_eval(e)) == e for all coefficient words over [2, 5]
        # of length up to 8 (exhaustive; the all->=2 expansion is unique).
        for length in range(1, 9):
            for coeffs in product((2, 3, 4, 5), repeat=length):
                f = hj_eval(coeffs)
                assert hj_expand(f.numerator, f.denominator) == coeffs

    def test_round_trip_fractions(self):
        # hj_eval(hj_expand(p, q)) == p/q for every coprime pair with p <= 500.
        for p in range(2, 501):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                e = hj_expand(p, q)
                assert all(a >= 2 for a in e)
                assert hj_eval(e) == Fraction(p, q)


class TestReverse:
    # If [a_1, ..., a_k] = p/q, then [a_k, ..., a_1] = p/q* with q q* = 1 mod p.
    def test_palindrome(self):
        # Its own reversal, so q^2 = 1 mod p.
        for coeffs in ((2,), (2, 3, 2), (3, 5, 3)):
            f = hj_eval(coeffs)
            assert f.denominator ** 2 % f.numerator == 1

    @pytest.mark.parametrize("coeffs, fwd, rev", [
        ((3, 5, 2), Fraction(25, 9), Fraction(25, 14)),
        ((2, 2, 2, 3), Fraction(9, 7), Fraction(9, 4)),
    ])
    def test_known_reversals(self, coeffs, fwd, rev):
        assert hj_eval(coeffs) == fwd
        assert hj_eval(tuple(reversed(coeffs))) == rev
        p = fwd.numerator
        assert (fwd.denominator * rev.denominator) % p == 1

    def test_denominators_multiply_to_one_mod_p(self):
        for p in range(2, 201):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                e = hj_expand(p, q)
                fwd = hj_eval(e)
                rev = hj_eval(tuple(reversed(e)))
                assert rev.numerator == p
                assert (fwd.denominator * rev.denominator) % p == 1


class TestFibonacciIdentities:
    def test_n2(self):
        first, second = fibonacci_identities(2)
        assert first == (3, 2) and second == (3, 5, 2)
        assert hj_eval(first) == Fraction(5, 2)
        assert hj_eval(second) == Fraction(25, 9)

    def test_n3(self):
        first, second = fibonacci_identities(3)
        assert first == (3, 3, 2) and second == (3, 3, 5, 3, 2)
        assert hj_eval(first) == Fraction(13, 5)
        assert hj_eval(second) == Fraction(169, 64)

    def test_n1_rejected(self):
        with pytest.raises(UsageError):
            fibonacci_identities(1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True])
    def test_non_integers_rejected(self, n):
        with pytest.raises(UsageError, match="need n >= 2"):
            fibonacci_identities(n)

    def test_range_to_twelve(self):
        for n in range(2, 13):
            first, second = fibonacci_identities(n)
            lo, hi = odd_fibonacci(n), odd_fibonacci(n + 1)
            assert hj_eval(first) == Fraction(hi, lo)
            assert hj_eval(second) == Fraction(hi * hi, hi * lo - 1)
            assert all(a >= 2 for a in first + second)


class TestLensPlumbing:
    @pytest.mark.parametrize("p, q, expected", [
        (9, 2, (2, 2, 2, 3)),
        (4, 1, (2, 2, 2)),
        (25, 9, (2, 3, 2, 2, 3)),
    ])
    def test_known_values(self, p, q, expected):
        assert lens_plumbing(p, q) == expected

    def test_reversal_of_weight_list(self):
        # The weights for L(25, 9) reverse the chain (3, 2, 2, 3, 2).
        assert lens_plumbing(25, 9) == tuple(reversed((3, 2, 2, 3, 2)))

    def test_rejects_bad_parameters(self):
        with pytest.raises(UsageError):
            lens_plumbing(4, 2)
        with pytest.raises(UsageError):
            lens_plumbing(3, 0)
        with pytest.raises(UsageError, match="lens parameters"):
            lens_plumbing(5, True)
