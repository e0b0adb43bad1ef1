"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Parameters outside an operation's documented domain."""


class GeometryError(InvalidInputError):
    """Geometry outside the far-field regime a formula assumes, without an
    explicit override."""


class NonFiniteError(InvalidInputError, ArithmeticError):
    """An infinite or NaN value where a finite one is needed; from finite inputs, an overflow."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to bracket or converge."""
