"""Exception hierarchy shared across the package."""


class TubTiltError(Exception):
    """Base class of all errors raised by this package."""


class NonTubularWeights(TubTiltError):
    """Weight sequence is not one of (2,2,2,2), (3,3,3), (2,4,4), (2,3,6)."""


class NotSheafLike(TubTiltError):
    """Class has negative rank, or rank zero with non-positive degree."""


class SearchBoundExceeded(TubTiltError):
    """Root search emitted a vector outside the documented coefficient bound.

    This signals an internal bug: the bound is provable for the four
    tubular lattices.
    """


class InternalConsistencyError(TubTiltError):
    """A structural fact that holds for tubular type failed at runtime."""


class ChartInconsistent(InternalConsistencyError):
    """Tube chart construction violated an orbit or orthogonality invariant."""


class BasisMismatch(InternalConsistencyError):
    """An ext-orthogonal n-set of exceptional classes is not a lattice basis."""


class ComplementNotFound(InternalConsistencyError):
    """Bounded complement search found no second complement."""


class ComplementNotUnique(InternalConsistencyError):
    """Bounded complement search found more than one second complement."""


class NoFullPeriodSummand(InternalConsistencyError):
    """No quasi-simple summand with full translation period was found."""


class CompanionNotFound(InternalConsistencyError):
    """No rigid companion exists at the requested slope."""


class NotExceptionalHere(TubTiltError):
    """Class does not decode to a window of the given chart."""


class NotFirstObject(TubTiltError):
    """APR mutation requested at a summand that is not a first object."""


class NotLastObject(TubTiltError):
    """Co-APR mutation requested at a summand that is not a last object."""


class DuplicateSummands(TubTiltError):
    """Tilting construction received two isomorphic summands."""


class WrongSummandCount(TubTiltError):
    """Tilting construction received a summand list of the wrong length."""


class PreconditionError(TubTiltError):
    """An operation was called outside its documented precondition."""


class BudgetExhausted(TubTiltError):
    """A search exceeded its node or time budget."""


class ExprSyntaxError(TubTiltError):
    """Object expression failed to parse; carries the error position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class ValidationError(TubTiltError):
    """Parsed or deserialized data is inconsistent with the active context."""


class WeightsMismatch(ValidationError):
    """A record's weight sequence differs from the active context's."""
