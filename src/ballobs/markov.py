"""Markov-equation arithmetic.

Positive integer solutions of a^2 + b^2 + c^2 = 3abc form a single tree under
the Vieta moves x -> 3yz - x.  This module walks that tree, computes the
characteristic residue of a triple, generates the odd-indexed Fibonacci
numbers that populate the (1, b, c) branch, and decides the arithmetic
criterion for which rational homology balls B(p, q) embed symplectically in
the complex projective plane.

Markov numbers grow doubly exponentially along the tree, so everything here
is exact Python integer arithmetic.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple

from .errors import (DegenerateCaseError, InternalCheckError, LimitExceeded, UsageError,
                     checked_make)

# Cap on the number of triples a single enumeration may hold in memory.
MAX_TRIPLES = 1_000_000


def is_markov(a: int, b: int, c: int) -> bool:
    """True iff (a, b, c) solves the Markov equation a^2 + b^2 + c^2 = 3abc."""
    for x in (a, b, c):
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise UsageError(f"entries must be positive integers, got {(a, b, c)!r}")
    return a * a + b * b + c * c == 3 * a * b * c


class MarkovTriple(namedtuple("MarkovTriple", "a b c")):
    """A solution of the Markov equation, stored sorted a <= b <= c."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if (any(not isinstance(x, int) or isinstance(x, bool) for x in (a, b, c))
                or not 0 < a <= b <= c):
            raise UsageError(f"triple must be sorted positive integers, got {(a, b, c)}")
        if not is_markov(a, b, c):
            raise UsageError(f"{(a, b, c)} does not solve the Markov equation")
        # Pairwise coprimality holds for every Markov solution; a failure here
        # would mean the equation check above is broken.
        if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
            raise InternalCheckError(f"Markov solution {(a, b, c)} not pairwise coprime")
        return super().__new__(cls, a, b, c)

    _make = classmethod(checked_make)

    @property
    def entries(self) -> tuple[int, int, int]:
        return tuple(self)

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def triple(a: int, b: int, c: int) -> MarkovTriple:
    """Build a MarkovTriple from entries given in any order."""
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (a, b, c)):
        raise UsageError(f"entries must be positive integers, got {(a, b, c)!r}")
    x, y, z = sorted((a, b, c))
    return MarkovTriple(x, y, z)


def vieta_neighbor(t: MarkovTriple, position: int) -> MarkovTriple:
    """Replace the entry at ``position`` (1-based in sorted order) by 3yz - x.

    The Markov equation is quadratic in each variable, so replacing one entry
    by the other root of that quadratic gives another solution; this is the
    edge relation of the Markov tree.
    """
    if not isinstance(position, int) or isinstance(position, bool) or position not in (1, 2, 3):
        raise UsageError(f"position must be 1, 2 or 3, got {position!r}")
    entries = list(t.entries)
    x = entries.pop(position - 1)
    y, z = entries
    return triple(y, z, 3 * y * z - x)


def enumerate_triples(bound: int) -> list[MarkovTriple]:
    """All Markov triples with maximum entry <= bound, sorted lexicographically.

    Breadth-first walk of the Vieta tree from (1, 1, 1).  Moving away from the
    root strictly increases the maximum entry, so pruning branches whose
    maximum exceeds ``bound`` loses nothing.  Holding more than
    ``MAX_TRIPLES`` triples raises LimitExceeded.
    """
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise UsageError(f"bound must be a positive integer, got {bound!r}")
    root = MarkovTriple(1, 1, 1)
    seen = {root}
    queue = deque([root])
    while queue:
        t = queue.popleft()
        for position in (1, 2, 3):
            n = vieta_neighbor(t, position)
            if n.c <= bound and n not in seen:
                if len(seen) >= MAX_TRIPLES:
                    raise LimitExceeded(f"more than {MAX_TRIPLES} triples below bound {bound}")
                seen.add(n)
                queue.append(n)
    return sorted(seen)


def characteristic_number(t: MarkovTriple) -> int:
    """The residue u with 0 < u < p/2 and b = +-(u a) mod p, where p = max(t).

    The two solutions of b = +-(x a) mod p sum to p; u is the small one.  The
    Markov equation forces a^2 + b^2 = 0 mod p, hence u^2 = -1 mod p.  For
    p <= 2 the open interval (0, p/2) contains no residue, so those triples
    are rejected and callers must special-case them.
    """
    p = t.c
    if p <= 2:
        raise DegenerateCaseError(
            f"characteristic number undefined for maximum {p} (needs p >= 3)")
    u = (t.b * pow(t.a, -1, p)) % p
    u = min(u, p - u)
    if not (0 < 2 * u < p) or (u * u + 1) % p != 0:
        raise InternalCheckError(f"characteristic number of {t} failed u^2 = -1 mod {p}")
    return u


def odd_fibonacci(k: int) -> int:
    """F(2k-1), the k-th odd-indexed Fibonacci number.

    F(1) = 1, F(3) = 2, and F(2n+3) = 3 F(2n+1) - F(2n-1).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise UsageError(f"index must be a positive integer, got {k!r}")
    prev, cur = 1, 2
    if k == 1:
        return 1
    for _ in range(k - 2):
        prev, cur = cur, 3 * cur - prev
    return cur


class BallSpec(namedtuple("BallSpec", "p q")):
    """Parameters (p, q) of the rational homology ball B(p, q).

    B(p, q) and B(p, p - q) are the same ball, so q is normalised to
    min(q, p - q) on construction.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (p, q)):
            raise UsageError(f"ball parameters must be integers, got {(p, q)!r}")
        if p < 2 or not (1 <= q < p):
            raise UsageError(f"need p >= 2 and 1 <= q < p, got {(p, q)}")
        if math.gcd(p, q) != 1:
            raise UsageError(f"p and q must be coprime, got {(p, q)}")
        return super().__new__(cls, p, min(q, p - q))

    _make = classmethod(checked_make)

    def __str__(self):
        return f"B({self.p},{self.q})"


def ball_params(t: MarkovTriple) -> list[BallSpec]:
    """The balls B(p_i, q_i) attached to the triple, one per entry p_i >= 2.

    q_i = +-3 p_j / p_k mod p_i; swapping j and k flips the sign, which the
    B(p, q) = B(p, p - q) normalisation absorbs.  Entries equal to 1
    contribute no ball.
    """
    out = []
    entries = t.entries
    for i, p in enumerate(entries):
        if p < 2:
            continue
        others = [entries[j] for j in range(3) if j != i]
        r = (3 * others[0] * pow(others[1], -1, p)) % p
        out.append(BallSpec(p, min(r, p - r)))
    return out


class SymplecticVerdict(namedtuple("SymplecticVerdict", "symplectic witness",
                                   defaults=(None,))):
    """Whether a ball embeds symplectically, and a MarkovTriple witness if so."""

    __slots__ = ()


def classify_symplectic(ball: BallSpec) -> SymplecticVerdict:
    """Decide whether B(p, q) embeds symplectically in the projective plane.

    The criterion: p must be the maximum of a Markov triple whose
    characteristic number u satisfies q = +-3u mod p.  Every triple with
    maximum exactly p is examined; uniqueness of that triple is not assumed.
    The witness triple is returned when the answer is yes.
    """
    p = ball.p
    if p == 2:
        # The only ball with p = 2 is B(2, 1), realised by the triple (1, 1, 2).
        return SymplecticVerdict(True, MarkovTriple(1, 1, 2))
    for t in enumerate_triples(p):
        if t.c != p:
            continue
        u = characteristic_number(t)
        r = (3 * u) % p
        if min(r, p - r) == ball.q:
            return SymplecticVerdict(True, t)
    return SymplecticVerdict(False, None)


def fibonacci_ball(n: int) -> BallSpec:
    """B(F(2n+1), F(2n-1)) for n >= 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise UsageError(f"need n >= 1, got {n!r}")
    return BallSpec(odd_fibonacci(n + 1), odd_fibonacci(n))

