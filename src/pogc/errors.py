"""Exception types shared across the package."""


class PogError(Exception):
    """Base class for all package errors."""


class ParseError(PogError):
    """Malformed input text. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class InvariantError(PogError):
    """A structural invariant of the data model was violated."""


class NotInClassError(PogError):
    """Input digraph is outside the class required by the operation."""


class NotRoundError(NotInClassError):
    """Digraph admits no round ordering."""


class NotFriendlyError(PogError):
    """Operation requires a friendly pog. Carries the refuting certificate."""

    def __init__(self, message, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class NotSatisfyingError(PogError):
    """Assignment does not satisfy the formula it is offered for."""


class RepresentationError(PogError):
    """An interval or circular-arc representation failed validation."""


class UnsupportedInstanceError(PogError):
    """Instance falls outside the supported fragment of an operation."""


class SizeGuardError(PogError):
    """Exhaustive search refused: the instance exceeds a size guard.
    The message names the guard constant, its limit and the instance
    size."""

    def __init__(self, guard, limit, size, unit):
        super().__init__("%s: instance has %d %s, limit is %d"
                         % (guard, size, unit, limit))


class NoZeroOutdegreeStartError(PogError):
    """Arc-aware search order needs a start vertex with no out-arcs."""
