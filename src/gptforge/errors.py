"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class ResourceError(RuntimeError):
    """A configured size cap (group order, dimension, overflow) was exceeded."""


class NumericalConsistencyError(RuntimeError):
    """A quantity that must be structurally exact (an integer, a value in
    {-1, 0, 1}, an orthogonality relation) came out numerically inconsistent."""


class AccuracyError(RuntimeError):
    """A quadrature or Monte-Carlo average is too coarse for the requested
    tolerance.  The message recommends a finer grid / larger sample."""


class LpSolverFailure(RuntimeError):
    """The LP kernel found no answer with a checked certificate (pivot cap,
    a basis made singular by rounding).  Distinct from an infeasible or
    unbounded answer, which carries its certificate."""
