"""Exception types, search budgets and the document integer format shared
across the package.  :func:`document_values` is the one writer of document
integers: ``cli.main`` applies it to every handler's document and
``obstruction.report_to_doc`` to each report it writes.

Everything here loads with every command, so it stays free of the search
modules: a command that never searches validates its budgets and writes its
document without importing them.  Every record in the package is a
``collections.namedtuple`` subclass like :class:`SearchLimits`: ``collections``
is loaded anyway, while the standard library's record decorator would load
``inspect``, about 9 ms a process.  ``fractions`` (about 3 ms) is imported
only inside the two ``contfrac`` functions that build a ``Fraction``.
"""

from __future__ import annotations

from collections import namedtuple

DEFAULT_NODE_BUDGET = 10 ** 8


class UsageError(ValueError):
    """A caller violated a documented precondition."""


class DegenerateCaseError(UsageError):
    """The requested quantity is undefined for this input; callers must special-case."""


class LimitExceeded(RuntimeError):
    """A node or wall-clock budget ran out before a search finished.

    Carries whatever partial statistics and partially enumerated classes the
    search had accumulated, so callers can report an honest INCONCLUSIVE
    outcome instead of a wrong verdict.
    """

    def __init__(self, message, stats=None, partial_classes=()):
        super().__init__(message)
        self.stats = stats
        self.partial_classes = tuple(partial_classes)


class InternalCheckError(RuntimeError):
    """An internal consistency assertion failed; this is a bug, not bad input."""


def checked_make(cls, iterable):
    """A record's ``_make``, as ``_make = classmethod(checked_make)``: it
    builds through ``cls(*iterable)``, so ``_make`` and ``_replace``, which
    calls it, run the record's ``__new__`` checks."""
    return cls(*iterable)


class SearchLimits(namedtuple("SearchLimits", "node_budget time_budget")):
    """Budgets for a single enumeration, an int node budget and an optional
    time budget in seconds; exceeding either aborts the search with a
    LimitExceeded carrying partial statistics."""

    __slots__ = ()

    def __new__(cls, node_budget: int = DEFAULT_NODE_BUDGET, time_budget: float | None = None):
        if not isinstance(node_budget, int) or isinstance(node_budget, bool):
            raise UsageError(f"node budget must be an integer, got {node_budget!r}")
        if node_budget < 1:
            raise UsageError("node budget must be positive")
        if isinstance(time_budget, bool):
            raise UsageError(f"time budget must be a number, got {time_budget!r}")
        # Written so that NaN, which compares false both ways, is rejected.
        if time_budget is not None and not time_budget > 0:
            raise UsageError("time budget must be positive")
        return super().__new__(cls, node_budget, time_budget)

    _make = classmethod(checked_make)


def document_values(value):
    """The document form of ``value``: every int that is not a bool becomes
    its decimal string, so that arbitrary precision survives any JSON
    consumer, and every tuple a list.  Dicts and lists are rebuilt, and bools,
    None and strings pass through, so the result converts to itself.

    Containers are matched by exact type: a record is a tuple subclass, and
    raises TypeError like any other type, so that no record reaches a
    document as a bare list of its fields.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(int(value))
    if type(value) is dict:
        return {key: document_values(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return [document_values(item) for item in value]
    raise TypeError(f"a document holds no {type(value).__name__}")
