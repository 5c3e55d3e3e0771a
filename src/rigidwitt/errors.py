"""Exception types shared across the library."""


class RigidWittError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(RigidWittError):
    """Operands live over different field models."""


class UnitClassError(RigidWittError):
    """A square class with at least one Laurent exponent was required."""


class SquareClassIsOneError(RigidWittError):
    """Quadratic extension by the trivial square class is undefined."""


class IsotropicInputError(RigidWittError):
    """An anisotropic form was required."""


class IsotropicSumError(RigidWittError):
    """An anisotropic orthogonal sum was required."""


class NotASubformError(RigidWittError):
    """The given form is not a subform of the ambient form."""


class HyperbolicResidueError(RigidWittError):
    """Both residue class forms must be non-hyperbolic."""


class NotInIdealError(RigidWittError):
    """The form does not lie in the required power of the fundamental ideal."""


class DepthCapExceededError(RigidWittError):
    """The search exceeded its depth cap; no value is reported.

    k is the number of terms that could not be decided, when known; the
    message says why.  reason names the bound that refused: "depth_cap"
    (the caller's cap is below the value) or "budget" (deciding k would
    take more steps than the engine's fixed budget).
    """

    def __init__(self, cap: int, message: str = "", k: int | None = None,
                 reason: str = "depth_cap"):
        self.cap = cap
        self.k = k
        self.reason = reason
        super().__init__(message or f"search depth cap {cap} exceeded")

    def __reduce__(self):
        return type(self), (self.cap, str(self), self.k, self.reason)


class InternalContradictionError(RigidWittError):
    """A witness mandated by theory was not found; this signals a bug."""


class ParseError(RigidWittError):
    """Syntax error in a field, square-class or form literal."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        self.message = message
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.message, self.position)
