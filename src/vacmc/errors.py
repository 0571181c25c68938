"""Exception types shared across the package."""


class VacmcError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(VacmcError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


class KripkeError(VacmcError):
    """Malformed structure: totality, undeclared names, empty init, ..."""


class EvalError(VacmcError):
    """Model-checking error: bad fragment, unknown proposition, foreign set atom."""


class PreconditionError(VacmcError):
    """A stated requires-clause of an algorithm does not hold."""


class NotApplicableError(VacmcError):
    """The algorithm's fragment condition fails for this input."""


class EnumerationBoundError(VacmcError):
    """An exponential enumeration was refused because the input is too large."""


class EncodingError(VacmcError):
    """Single-proposition decoding failed: inconsistent or missing probes."""


class OrderingError(VacmcError, ValueError):
    """A proposition ordering is not a bijection onto 1..n or misses a proposition."""
