"""Exception types shared across the package."""

__all__ = [
    "BiholesError",
    "IndexOutOfRange",
    "EmptySide",
    "UnbalancedGraph",
    "MalformedHeader",
    "MalformedEdgeLine",
    "InvalidProbability",
    "InvalidSize",
    "NegativeD",
    "InstanceTooLarge",
    "TraceMismatch",
]


class BiholesError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRange(BiholesError):
    """A vertex index does not fit the graph it was used with."""


class EmptySide(BiholesError):
    """A per-side quantity was requested for a side with no vertices."""


class UnbalancedGraph(BiholesError):
    """The operation requires left_count == right_count."""


class MalformedHeader(BiholesError):
    """The edge-list header line is missing or is not two integers."""


class MalformedEdgeLine(BiholesError):
    """An edge line is not two integers.  Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(message)
        self.lineno = lineno

    def __reduce__(self):
        return type(self), (self.lineno, str(self))


class InvalidProbability(BiholesError):
    """An edge probability was missing or outside [0, 1]."""


class InvalidSize(BiholesError):
    """A requested graph size is not supported by the chosen model."""


class NegativeD(BiholesError):
    """The degeneracy parameter d must be >= 0."""


class InstanceTooLarge(BiholesError):
    """The instance exceeds the configured brute-force oracle limits."""


class TraceMismatch(BiholesError):
    """A recorded peeling step could not be replayed on the stated graph."""
