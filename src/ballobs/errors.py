"""Exception types, search budgets and the document integer format shared
across the package.

Everything here loads with every command, so it stays free of the search
modules: a command that never searches validates its budgets and writes its
document without importing them.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for a single enumeration; exceeding either aborts the search
    with a LimitExceeded carrying partial statistics."""

    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: float | None = None

    def __post_init__(self):
        if not isinstance(self.node_budget, int) or isinstance(self.node_budget, bool):
            raise UsageError(f"node budget must be an integer, got {self.node_budget!r}")
        if self.node_budget < 1:
            raise UsageError("node budget must be positive")
        # Written so that NaN, which compares false both ways, is rejected.
        if self.time_budget is not None and not self.time_budget > 0:
            raise UsageError("time budget must be positive")


# Machine-readable documents write every integer as a decimal string, so that
# arbitrary precision survives any JSON consumer.


def _s(x) -> str:
    return str(int(x))

