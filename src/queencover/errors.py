"""Exception types shared across the package."""

from __future__ import annotations


class QueenCoverError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QueenCoverError, ValueError):
    """An argument is outside an operation's domain (off-board square, bad count, ...)."""


class DoesNotFitError(DomainError):
    """A pattern's bounding box does not fit on the target board."""


class UnboundedLossError(DomainError):
    """A board-size-independent loss was requested for an attacking configuration."""


class NotStableError(QueenCoverError):
    """The board is too small for the loss/cover identity to hold exactly."""


class BudgetExceededError(QueenCoverError):
    """A search spent more nodes than its budget and aborted; nodes is the count spent."""

    def __init__(self, message: str, nodes: int, budget: int):
        super().__init__(message)
        self.nodes = nodes
        self.budget = budget

    def __reduce__(self):
        # A search shard's forked child pickles the error back to the calling process.
        return type(self), (str(self), self.nodes, self.budget)


class InvariantError(QueenCoverError):
    """An internal invariant was violated; indicates a bug, not a usage error."""


class RecordError(QueenCoverError, ValueError):
    """A serialized record failed to parse or validate."""


class UnsupportedSchemaError(RecordError):
    """A serialized record declares a schema version this build does not understand."""
