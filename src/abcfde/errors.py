"""Exception hierarchy shared by all abcfde modules."""


class AbcfdeError(Exception):
    """Base class for all library errors."""


class NonConvergence(AbcfdeError):
    """A series or iteration failed to meet its tolerance within its cap."""


class DimensionMismatch(AbcfdeError):
    """Sample array length does not match the grid."""


class LexError(AbcfdeError):
    """Illegal character in an expression source string."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ParseError(AbcfdeError):
    """Malformed expression token stream."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (token {position})"
        super().__init__(message)
        self.position = position


class ArityError(ParseError):
    """Builtin function called with the wrong number of arguments."""


class EvalError(AbcfdeError):
    """Unbound variable or domain error during expression evaluation."""


class ValidationError(AbcfdeError):
    """A problem definition violates its invariants."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class MaxSweepsExceeded(AbcfdeError):
    """Picard iteration hit its sweep cap; carries the best trace seen."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NonFiniteIterate(MaxSweepsExceeded):
    """A Picard sweep produced a NaN or infinite iterate; carries the trace
    ending at the last finite iterate."""


class EnclosureViolation(AbcfdeError):
    """A solution escapes the [minimal, maximal] bracket."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class HypothesisViolation(AbcfdeError):
    """Input data does not satisfy the hypotheses of the check requested."""


class MonotonicityViolation(AbcfdeError):
    """The quotient map omega -> omega/f(tau, omega) is not increasing."""


class DegenerateF(AbcfdeError):
    """f vanishes along a candidate path where it must be nonzero."""
