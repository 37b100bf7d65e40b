import math
from math import isqrt

import pytest

from ballobs import markov
from ballobs.errors import LimitExceeded, UsageError
from ballobs.markov import (BallSpec, MarkovTriple, ball_params,
                            characteristic_number, classify_symplectic,
                            enumerate_triples, fibonacci_ball, is_markov,
                            odd_fibonacci, triple, vieta_neighbor)


def brute_force_triples_small(bound):
    """Triple loop over a <= b <= c <= bound; feasible for small bounds."""
    out = []
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                if a * a + b * b + c * c == 3 * a * b * c:
                    out.append((a, b, c))
    return out


def brute_force_triples(bound):
    """Independent scan: for each a <= b solve the quadratic in c exactly."""
    out = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            disc = 9 * a * a * b * b - 4 * (a * a + b * b)
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in (3 * a * b - r, 3 * a * b + r):
                if num % 2 == 0:
                    c = num // 2
                    if b <= c <= bound:
                        out.add((a, b, c))
    return sorted(out)


def standard_fibonacci(n):
    """Two-term recursion F_1 = F_2 = 1; the independent Fibonacci oracle."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


class TestIsMarkov:
    def test_unit_triple(self):
        assert is_markov(1, 1, 1) is True

    def test_one_one_two(self):
        assert is_markov(1, 1, 2) is True

    def test_non_solution(self):
        assert is_markov(2, 3, 5) is False

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(UsageError):
            is_markov(*bad)


class TestTripleValidation:
    def test_sorted_required(self):
        with pytest.raises(UsageError):
            MarkovTriple(2, 1, 1)

    def test_equation_required(self):
        with pytest.raises(UsageError):
            MarkovTriple(1, 2, 3)

    def test_factory_sorts(self):
        assert triple(5, 1, 2) == MarkovTriple(1, 2, 5)

    @pytest.mark.parametrize("args", [("1", "2", "5"), ("1", 2, 5), (5.0, 1, 2), (2, True, 1)])
    def test_factory_rejects_non_integers(self, args):
        with pytest.raises(UsageError, match="entries must be positive integers"):
            triple(*args)


class TestVieta:
    @pytest.mark.parametrize("t, pos, expected", [
        ((1, 1, 1), 3, (1, 1, 2)),
        ((1, 1, 2), 1, (1, 2, 5)),
        ((1, 2, 5), 2, (1, 5, 13)),
    ])
    def test_known_moves(self, t, pos, expected):
        assert vieta_neighbor(MarkovTriple(*t), pos) == MarkovTriple(*expected)

    def test_bad_position(self):
        with pytest.raises(UsageError):
            vieta_neighbor(MarkovTriple(1, 1, 1), 4)

    @pytest.mark.parametrize("position", [True, 1.0, "1"])
    def test_non_integer_position(self, position):
        with pytest.raises(UsageError, match="position must be 1, 2 or 3"):
            vieta_neighbor(MarkovTriple(1, 1, 2), position)

    def test_involution(self):
        # Moving an entry and then moving the replaced value returns the triple.
        for t in enumerate_triples(1000):
            for pos in (1, 2, 3):
                entries = list(t.entries)
                x = entries.pop(pos - 1)
                y, z = entries
                moved = vieta_neighbor(t, pos)
                new_value = 3 * y * z - x
                back_pos = moved.entries.index(new_value) + 1
                assert vieta_neighbor(moved, back_pos) == t


class TestEnumeration:
    def test_bound_two(self):
        assert enumerate_triples(2) == [MarkovTriple(1, 1, 1), MarkovTriple(1, 1, 2)]

    def test_bound_thirty_matches_triple_loop(self):
        expected = [MarkovTriple(*t) for t in brute_force_triples_small(30)]
        assert enumerate_triples(30) == expected

    def test_bound_thirty_value(self):
        assert [t.entries for t in enumerate_triples(30)] == [
            (1, 1, 1), (1, 1, 2), (1, 2, 5), (1, 5, 13), (2, 5, 29)]

    def test_matches_quadratic_oracle_to_500(self):
        expected = [MarkovTriple(*t) for t in brute_force_triples(500)]
        assert enumerate_triples(500) == expected

    def test_bound_zero_rejected(self):
        with pytest.raises(UsageError):
            enumerate_triples(0)

    def test_memory_limit(self, monkeypatch):
        monkeypatch.setattr(markov, "MAX_TRIPLES", 3)
        with pytest.raises(LimitExceeded) as info:
            enumerate_triples(10 ** 6)
        # The exception is its message alone, which gives the count.
        assert info.value.args == ("more than 3 triples below bound 1000000",)
        assert vars(info.value) == {}

    def test_sorted_lexicographically(self):
        ts = enumerate_triples(10 ** 5)
        assert ts == sorted(ts)
        assert len(ts) == len(set(ts))


class TestCharacteristicNumber:
    @pytest.mark.parametrize("t, expected", [
        ((1, 2, 5), 2),
        ((1, 5, 13), 5),
        ((2, 5, 29), 12),
    ])
    def test_known_values(self, t, expected):
        assert characteristic_number(MarkovTriple(*t)) == expected

    def test_degenerate_rejected(self):
        for t, p in (((1, 1, 1), 1), ((1, 1, 2), 2)):
            with pytest.raises(UsageError) as info:
                characteristic_number(MarkovTriple(*t))
            assert str(info.value) == (
                f"characteristic number undefined for maximum {p} (needs p >= 3)")

    def test_modular_inverse_oracle(self):
        # b = +-(u a) mod p, checked by direct modular arithmetic.
        for t in enumerate_triples(10 ** 4):
            if t.c <= 2:
                continue
            u = characteristic_number(t)
            p = t.c
            assert 0 < u < p / 2
            assert (t.b - u * t.a) % p == 0 or (t.b + u * t.a) % p == 0
            assert (u * u + 1) % p == 0


class TestOddFibonacci:
    def test_base_cases(self):
        assert odd_fibonacci(1) == 1
        assert odd_fibonacci(2) == 2

    def test_k5(self):
        assert odd_fibonacci(5) == 34

    def test_matches_standard_recursion(self):
        for k in range(1, 41):
            assert odd_fibonacci(k) == standard_fibonacci(2 * k - 1)

    def test_consecutive_pairs_are_markov(self):
        for k in range(1, 41):
            assert is_markov(1, odd_fibonacci(k), odd_fibonacci(k + 1))

    def test_bad_index(self):
        with pytest.raises(UsageError):
            odd_fibonacci(0)


class TestBallSpec:
    def test_normalises_q(self):
        assert BallSpec(5, 3) == BallSpec(5, 2)

    def test_rejects_non_coprime(self):
        with pytest.raises(UsageError):
            BallSpec(9, 3)

    def test_rejects_bad_ranges(self):
        with pytest.raises(UsageError):
            BallSpec(1, 1)
        with pytest.raises(UsageError):
            BallSpec(5, 5)
        with pytest.raises(UsageError):
            BallSpec(5, 0)


class TestRecords:
    """MarkovTriple, BallSpec and SymplecticVerdict are immutable records that
    keep their messages, reprs, strings and ordering."""

    @pytest.mark.parametrize("record, args, message", [
        (MarkovTriple, (2, 1, 1), "triple must be sorted positive integers, got (2, 1, 1)"),
        (MarkovTriple, (1, 2, 3), "(1, 2, 3) does not solve the Markov equation"),
        (BallSpec, (5.0, 2), "ball parameters must be integers, got (5.0, 2)"),
        (BallSpec, (5, 5), "need p >= 2 and 1 <= q < p, got (5, 5)"),
        (BallSpec, (9, 3), "p and q must be coprime, got (9, 3)"),
        (BallSpec, (3, True), "ball parameters must be integers, got (3, True)"),
        (MarkovTriple, ("1", "1", "2"),
         "triple must be sorted positive integers, got ('1', '1', '2')"),
        (MarkovTriple, (1, 1, 2.0), "triple must be sorted positive integers, got (1, 1, 2.0)"),
        (MarkovTriple, (True, 1, 2), "triple must be sorted positive integers, got (True, 1, 2)"),
    ])
    def test_usage_messages(self, record, args, message):
        with pytest.raises(UsageError) as info:
            record(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: BallSpec(5, 2)._replace(q=5), "need p >= 2 and 1 <= q < p, got (5, 5)"),
        (lambda: BallSpec._make((9, 3)), "p and q must be coprime, got (9, 3)"),
        (lambda: MarkovTriple._make((1, 2, 3)), "(1, 2, 3) does not solve the Markov equation"),
    ])
    def test_make_and_replace_validate(self, build, message):
        # ``_replace`` goes through ``_make``, and both reach ``__new__``.
        with pytest.raises(UsageError) as info:
            build()
        assert str(info.value) == message

    def test_q_normalised_in_every_form(self):
        # Keyword construction normalises too, and equal balls hash alike.
        assert BallSpec(q=3, p=5) == BallSpec(5, 2)
        assert hash(BallSpec(5, 3)) == hash(BallSpec(5, 2))
        assert BallSpec(5, 2)._replace(q=3) == BallSpec(5, 3)
        assert BallSpec._make((13, 8)) == BallSpec(13, 5)
        assert MarkovTriple._make((1, 2, 5)) == MarkovTriple(1, 2, 5)

    @pytest.mark.parametrize("record, field", [
        (MarkovTriple(1, 2, 5), "a"), (BallSpec(5, 2), "q"),
        (markov.SymplecticVerdict(False), "witness"),
    ])
    def test_assignment_rejected(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)

    def test_repr_and_str(self):
        t = MarkovTriple(1, 2, 5)
        verdict = classify_symplectic(BallSpec(5, 1))
        assert (repr(t), str(t)) == ("MarkovTriple(a=1, b=2, c=5)", "(1,2,5)")
        assert (repr(BallSpec(13, 8)), str(BallSpec(13, 8))) == ("BallSpec(p=13, q=5)", "B(13,5)")
        assert repr(verdict) == str(verdict) == (
            "SymplecticVerdict(symplectic=True, witness=MarkovTriple(a=1, b=2, c=5))")
        assert markov.SymplecticVerdict(False) == classify_symplectic(BallSpec(5, 2))

    def test_triples_order_by_entries(self):
        ts = enumerate_triples(200)
        assert [t.entries for t in ts] == sorted(t.entries for t in ts)
        assert MarkovTriple(1, 34, 89) < MarkovTriple(2, 5, 29) < MarkovTriple(2, 29, 169)
        assert max(ts) == MarkovTriple(5, 13, 194)


class TestBallParams:
    def test_one_one_two(self):
        assert ball_params(MarkovTriple(1, 1, 2)) == [BallSpec(2, 1)]

    def test_one_two_five(self):
        assert ball_params(MarkovTriple(1, 2, 5)) == [BallSpec(2, 1), BallSpec(5, 1)]

    def test_unit_triple_has_no_balls(self):
        assert ball_params(MarkovTriple(1, 1, 1)) == []

    def test_q_is_coprime_and_canonical(self):
        for t in enumerate_triples(10 ** 4):
            for ball in ball_params(t):
                assert math.gcd(ball.p, ball.q) == 1
                assert 1 <= ball.q <= ball.p - ball.q


class TestClassifySymplectic:
    def test_b21(self):
        v = classify_symplectic(BallSpec(2, 1))
        assert v.symplectic and v.witness == MarkovTriple(1, 1, 2)

    def test_b52(self):
        assert not classify_symplectic(BallSpec(5, 2)).symplectic

    def test_b51(self):
        v = classify_symplectic(BallSpec(5, 1))
        assert v.symplectic and v.witness == MarkovTriple(1, 2, 5)

    def test_invariant_under_q_reflection(self):
        # B(p, q) and B(p, p-q) are the same ball, so verdicts agree.
        for p, q in [(5, 2), (5, 3), (13, 5), (13, 8), (29, 12), (29, 17)]:
            a = classify_symplectic(BallSpec(p, q))
            b = classify_symplectic(BallSpec(p, p - q))
            assert a == b

    def test_triple_balls_are_symplectic(self):
        # Balls produced by a triple embed by construction; the classifier
        # must agree on each of them.
        for t in enumerate_triples(1000):
            for ball in ball_params(t):
                assert classify_symplectic(ball).symplectic


class TestFibonacciTable:
    def test_only_n1_symplectic(self):
        # For n > 1 the criterion would force -1 = 9 u^2 = -9 mod F(2n+1),
        # and no odd Fibonacci number above 2 divides 8.
        assert [n for n in range(1, 9) if classify_symplectic(fibonacci_ball(n)).symplectic] == [1]

    @pytest.mark.parametrize("n", ["3", 2.5, 2.0, True, 0])
    def test_fibonacci_ball_index(self, n):
        with pytest.raises(UsageError, match=rf"need n >= 1, got {n!r}$"):
            fibonacci_ball(n)

    def test_divisibility_argument(self):
        # Independent check: q = +-3u would force -1 = q^2 = 9 u^2 = -9 mod p,
        # i.e. p | 8, and no odd Fibonacci number above 2 divides 8.
        assert (fibonacci_ball(4).p, fibonacci_ball(4).q) == (34, 13)
        assert (fibonacci_ball(5).p, fibonacci_ball(5).q) == (89, 34)
        for n in (4, 5):
            ball = fibonacci_ball(n)
            assert not classify_symplectic(ball).symplectic
            assert pow(ball.q, 2, ball.p) == ball.p - 1  # q^2 = -1 mod p
            assert 8 % ball.p != 0

    def test_companion_balls_are_symplectic(self):
        # B(F(2n+1), F(2n-3)) embeds for n >= 2.
        for n in range(2, 9):
            ball = BallSpec(odd_fibonacci(n + 1), odd_fibonacci(n - 1))
            assert classify_symplectic(ball).symplectic
