"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Two fields (or a field and an operator) live on different grids."""


class CflViolationError(ValueError):
    """A time step violates the parabolic stability restriction dt/dx^2 <= 1/2."""


class IncompatibleProblemError(ValueError):
    """A pure-Neumann steady problem whose flux/source balance is violated."""


class InstabilityError(RuntimeError):
    """Non-finite values appeared during time stepping."""


class SeriesTruncationError(RuntimeError):
    """A cosine series cannot be evaluated to the requested accuracy."""
