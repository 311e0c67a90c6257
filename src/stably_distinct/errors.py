"""Exception types shared across the package.

Every failure mode gets its own class so callers can react precisely;
all of them derive from StablyDistinctError.
"""


class StablyDistinctError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(StablyDistinctError, ZeroDivisionError):
    """Scalar division by the zero field element."""


class MixedDiscriminant(StablyDistinctError):
    """Arithmetic attempted between elements of Q(sqrt(d1)) and Q(sqrt(d2))."""


class NotASquare(StablyDistinctError):
    """The requested square root does not exist in the current field.

    Signals that a witness would require a (further) field extension.
    """


class SignatureMismatch(StablyDistinctError):
    """Operands live in polynomial rings with different signatures."""


class UnknownVariable(StablyDistinctError):
    """A variable name outside the ring signature was used."""


class DivisionByZeroPolynomial(StablyDistinctError, ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


class NotDivisible(StablyDistinctError):
    """Exact polynomial division left a nonzero remainder."""


class ParseError(StablyDistinctError):
    """Polynomial or scalar text could not be parsed.

    Carries the offending position in ``position`` when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else "%s (at position %d)" % (message, position))
        self.position = position


class ResourceLimit(StablyDistinctError):
    """An intermediate polynomial exceeded the configured term limit."""


class ExceededCap(StablyDistinctError):
    """Iterated derivation did not reach zero within the iteration cap."""


class NotAMultiple(StablyDistinctError):
    """A derivation is not of the form h(x) * Delta.

    ``reason`` names the first failing condition.
    """

    def __init__(self, reason):
        super().__init__("not an h(x)*Delta multiple: %s" % reason)
        self.reason = reason


class NotDecidableInField(StablyDistinctError):
    """A witness exists over the complex numbers but not in the current field.

    ``relation`` records the root extraction that would be needed,
    e.g. "mu^3 = 2" or "epsilon^2 = 1/mu".
    """

    def __init__(self, relation):
        super().__init__("witness requires a root outside the field: %s" % relation)
        self.relation = relation


class InvalidWitness(StablyDistinctError):
    """Witness data violates its defining constraints."""


class DimensionMismatch(StablyDistinctError):
    """Hypersurfaces live in ambient spaces of different dimension."""


class NonzeroConstantTerm(StablyDistinctError):
    """Series argument must vanish at x = 0 (every term needs x-degree >= 1)."""
