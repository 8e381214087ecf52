"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside an operation's domain."""


class DivisionByZero(ZeroDivisionError):
    """Exact inversion of zero."""


ABCD_ZERO = "abcd_zero"
AD_EQUALS_BC = "ad_equals_bc"


class DegenerateCurve(DomainError):
    """Curve parameters violate a*b*c*d != 0 or a*d - b*c != 0."""

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class OffCurve(DomainError):
    """Point does not satisfy the curve equations."""


class FactoringLimit(DomainError):
    """factorize met a number it cannot split within its work cap."""


class PanicInvariant(RuntimeError):
    """An internal algebraic invariant failed; this always indicates a bug."""
