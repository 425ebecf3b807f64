"""Exception types shared across the package."""


class MovklError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MovklError, ValueError):
    """Grids or vector lengths do not match."""


class CapacityError(MovklError, ValueError):
    """A dense solve would exceed its size guard."""


class ConfigError(MovklError, ValueError):
    """A run configuration document is malformed or inconsistent."""


class DataError(MovklError, ValueError):
    """A dataset file or record failed validation."""


class SolverError(MovklError, RuntimeError):
    """A linear solver or fit failed to produce a usable result."""


class DegenerateModelError(SolverError):
    """All kernel norms collapsed to zero; the model carries no signal."""
