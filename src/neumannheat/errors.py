"""Exception types shared across the package, each a `ValueError` (a refusal)."""


class GridMismatchError(ValueError):
    """Two fields (or a field and an operator) live on different grids."""


class CflViolationError(ValueError):
    """A time step violates the parabolic stability restriction dt/dx^2 <= 1/2."""


class IncompatibleProblemError(ValueError):
    """A pure-Neumann steady problem whose flux/source balance is violated."""


class InstabilityError(ValueError):
    """Non-finite values appeared during time stepping or in a steady residual."""


class SeriesTruncationError(ValueError):
    """A cosine series cannot be evaluated to the requested accuracy."""
