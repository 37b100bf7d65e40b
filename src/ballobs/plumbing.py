"""Blow-down calculus on linear plumbing chains.

A chain is a tuple of integer weights along a path graph.  Blowing down a
(-1)-framed vertex deletes it and adds 1 to each neighbour, joining them into
a single edge; the absolute determinant of the chain's intersection matrix is
preserved.  The rational-blow-up chains reduce to the pair (-3, 0), which is
the bookkeeping behind the blow-up description of the associated closed
4-manifolds.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalCheckError, UsageError


def rb_chain(n: int) -> tuple[int, ...]:
    """The length-2n chain (-3)^(n-1), -2, -1, (-3)^(n-2), -2 for n >= 2."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise UsageError(f"need an integer n >= 2, got {n!r}")
    return (-3,) * (n - 1) + (-2, -1) + (-3,) * (n - 2) + (-2,)


def _weights(chain) -> tuple[int, ...]:
    # The chain as a tuple, each weight an int and not a bool.
    c = tuple(chain)
    if any(not isinstance(a, int) or isinstance(a, bool) for a in c):
        raise UsageError(f"weights must be integers, got {c!r}")
    return c


def _blow_down(c: tuple[int, ...], i: int) -> tuple[int, ...]:
    # Blow down the -1 at 0-based position i of a checked chain.
    left = c[:i - 1] + (c[i - 1] + 1,) if i else ()
    right = (c[i + 1] + 1,) + c[i + 2:] if i + 1 < len(c) else ()
    return left + right


def reduce(chain) -> tuple[tuple[int, ...], int]:
    """Blow down until no -1 remains; returns (final chain, blow-down count).

    The rightmost -1 is taken at every step.  This fixed order makes the
    output reproducible and, on the rational-blow-up chains, lands on the
    chain (-3, 0) rather than one of its blow-down-equivalent relabelings.
    """
    c = _weights(chain)
    count = 0
    while -1 in c:
        c = _blow_down(c, len(c) - 1 - c[::-1].index(-1))
        count += 1
    return c, count


class BlowdownCertificate(namedtuple("BlowdownCertificate", "start final blowdowns b2")):
    """Record of a full reduction of a rational-blow-up chain: the start and
    final chains (tuples of weights), the blow-down count and b2."""

    __slots__ = ()


def simple_embedding_certificate(n: int) -> BlowdownCertificate:
    """Certify that the 2n-vertex rational-blow-up chain reduces to (-3, 0).

    The reduction takes exactly 2n - 2 blow-downs, so the closed manifold the
    chain describes has second Betti number b2 = 2n (= 1 + (2n - 1)).
    """
    start = rb_chain(n)
    final, count = reduce(start)
    if final != (-3, 0) or count != 2 * n - 2:
        raise InternalCheckError(
            f"rb chain n={n} reduced to {final} after {count} blow-downs, "
            f"expected (-3, 0) after {2 * n - 2}")
    return BlowdownCertificate(start, final, count, 2 * n)
