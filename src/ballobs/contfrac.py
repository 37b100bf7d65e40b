"""Hirzebruch-Jung (negative) continued fractions.

[a_1, ..., a_k] denotes a_1 - 1/(a_2 - 1/(... - 1/a_k)).  When every a_i >= 2
these expansions are in bijection with fractions p/q, p > q >= 1, and encode
the weights of the linear plumbing bounded by a lens space: L(p, q) bounds the
plumbing whose weights expand p/(p - q).  The rational ball B(p, q) is bounded
by L(p^2, pq - 1).
"""

from __future__ import annotations

import math

from .errors import InternalCheckError, UsageError
from .markov import BallSpec, odd_fibonacci


def validate_expansion(coeffs) -> tuple[int, ...]:
    """Return ``coeffs`` as a tuple, checking it is nonempty with entries >= 2."""
    e = tuple(coeffs)
    if not e:
        raise UsageError("expansion must be nonempty")
    for a in e:
        if not isinstance(a, int) or isinstance(a, bool) or a < 2:
            raise UsageError(f"expansion coefficients must be integers >= 2, got {a!r}")
    return e


def hj_eval(coeffs):
    """Evaluate [a_1, ..., a_k] to a ``Fraction`` p/q in lowest terms, p > q >= 1.

    ``fractions`` is imported here, not at module level, so that the commands
    that never evaluate an expansion do not load it.
    """
    from fractions import Fraction
    e = validate_expansion(coeffs)
    num, den = e[-1], 1
    for a in reversed(e[:-1]):
        num, den = a * num - den, num
    if math.gcd(num, den) != 1 or not num > den >= 1:
        raise InternalCheckError(f"evaluation of {e} gave non-reduced {num}/{den}")
    return Fraction(num, den)


def hj_expand(p: int, q: int, max_length: int | None = None) -> tuple[int, ...]:
    """The unique expansion of p/q with all coefficients >= 2.

    a_1 = ceil(p/q), then recurse on q/(a_1 q - p) until the remainder is zero.
    The expansion can have about p/q coefficients, so a caller that can use
    at most ``max_length`` of them gets a UsageError after that many steps.
    """
    if not isinstance(p, int) or not isinstance(q, int):
        raise UsageError(f"p and q must be integers, got {(p, q)!r}")
    if not p > q >= 1:
        raise UsageError(f"need p > q >= 1, got {(p, q)}")
    if math.gcd(p, q) != 1:
        raise UsageError(f"p and q must be coprime, got {(p, q)}")
    out = []
    while q:
        if len(out) == max_length:
            raise UsageError(f"the expansion has more than {max_length} coefficients")
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return tuple(out)


def hj_reverse(coeffs) -> tuple[int, ...]:
    """Reverse an expansion.

    If [a_1, ..., a_k] = p/q then the reversal evaluates to p/q* with
    q q* = 1 mod p.
    """
    return tuple(reversed(validate_expansion(coeffs)))


def fibonacci_identities(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The expansions ([3^(n-1), 2], [3^(n-1), 5, 3^(n-2), 2]) for n >= 2.

    3^k means 3 repeated k times (empty for k = 0).  The first evaluates to
    F(2n+1)/F(2n-1), the second to F(2n+1)^2 / (F(2n+1) F(2n-1) - 1); both are
    verified before returning.
    """
    if n < 2:
        raise UsageError(f"need n >= 2 (the second pattern uses a 3^(n-2) block), got {n!r}")
    from fractions import Fraction
    first = (3,) * (n - 1) + (2,)
    second = (3,) * (n - 1) + (5,) + (3,) * (n - 2) + (2,)
    f_lo, f_hi = odd_fibonacci(n), odd_fibonacci(n + 1)
    if hj_eval(first) != Fraction(f_hi, f_lo):
        raise InternalCheckError(f"[3^{n - 1},2] != F({2 * n + 1})/F({2 * n - 1})")
    if hj_eval(second) != Fraction(f_hi * f_hi, f_hi * f_lo - 1):
        raise InternalCheckError(f"[3^{n - 1},5,3^{n - 2},2] failed at n = {n}")
    return first, second


def lens_plumbing(p: int, q: int, max_length: int | None = None) -> tuple[int, ...]:
    """Weights of the linear plumbing bounded by the lens space L(p, q).

    These expand p/(p - q), so every weight is >= 2.  ``max_length`` bounds
    the expansion as in :func:`hj_expand`.
    """
    if not isinstance(p, int) or not isinstance(q, int) or not p > q >= 1:
        raise UsageError(f"need lens parameters p > q >= 1, got {(p, q)!r}")
    return hj_expand(p, p - q, max_length)


def ball_boundary(b: BallSpec) -> tuple[int, int]:
    """Lens parameters (p^2, pq - 1) of the boundary of B(p, q)."""
    return b.p * b.p, b.p * b.q - 1


def ball_plumbing(b: BallSpec) -> tuple[int, ...]:
    """Weights of the positive-definite linear plumbing sharing the boundary of
    B(p, q); B(p, 1) has about p of them."""
    return lens_plumbing(*ball_boundary(b))
