"""Exception hierarchy and warning categories for the package."""


class EllmultError(Exception):
    """Base class for all library errors."""


class SingularCurve(EllmultError):
    """Raised when 4*A^3 + 27*B^2 = 0."""


class OffCurve(EllmultError):
    """Raised when a point does not satisfy the curve equation."""


class NonIntegralBasePoint(EllmultError):
    """Raised when an operation requires integer point coordinates."""


class TorsionInput(EllmultError):
    """Raised when a torsion point is fed to an operation that excludes it."""


class FactorizationTooLarge(EllmultError):
    """Raised when an integer exceeds the configured factoring budget."""


class CapExceeded(EllmultError):
    """Raised when an iteration cap is reached without an answer."""


class PrecisionExhausted(EllmultError):
    """Raised when a numeric routine cannot reach the requested tolerance."""


class NotIdentityComponent(EllmultError):
    """Raised for real points lying off the unbounded real component."""


class NotBoundedComponent(EllmultError):
    """Raised for points lying off the bounded real component, the oval."""


class InadmissibleParameters(EllmultError):
    """Raised when lower-bound parameters violate their admissibility order."""


class ParityMismatch(EllmultError):
    """Raised when a 2-adic valuation profile is requested outside its covered parity cases."""


class UnknownBound(EllmultError):
    """Raised for an unrecognized bound evaluator name."""


class InternalInvariantError(EllmultError):
    """Raised when an exactness invariant fails; indicates a bug, not bad input."""


class UnreliableAtSmallPrime(UserWarning):
    """Warning category: nonsingular-reduction tests at p in {2, 3} on short models are heuristic."""
