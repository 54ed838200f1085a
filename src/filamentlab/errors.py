"""Exception types shared across the package."""


class FilamentError(Exception):
    """Base class for all filamentlab errors."""


class NonFiniteCoefficient(FilamentError):
    """Curvature or torsion evaluated to a non-finite value."""


class StepLimitExceeded(FilamentError):
    """An integration would exceed the configured step budget."""


class GridNonUniform(FilamentError):
    """Operation requires a uniform grid."""


class GridMismatch(FilamentError):
    """Inputs sampled on different grids."""


class GridTooCoarse(FilamentError):
    """Not enough samples for the requested stencil."""


class CurvatureVanishes(FilamentError):
    """Construction requires curvature c > 0."""


class InvalidParameter(FilamentError):
    """Parameter outside the documented domain."""


class MemoryBudgetExceeded(FilamentError):
    """A run's planned arrays exceed the package's memory budget."""

    BUDGET = 2**31  # bytes a run may plan for its largest arrays

    @classmethod
    def check(cls, need, run):
        """Raise for a ``run`` whose planned arrays take ``need`` bytes
        above ``BUDGET``."""
        if need > cls.BUDGET:
            raise cls(f"the {run} needs about {need / 2**20:.3g} MiB for its arrays, "
                      f"above the {cls.BUDGET / 2**20:.0f} MiB budget")


class OutOfProfileRange(FilamentError):
    """Requested similarity variable lies outside the computed profile span."""


class EnergyDegenerate(FilamentError):
    """Frame reconstruction requires a positive conserved energy."""


class TimeSpanCrossesZero(FilamentError):
    """The 1/t-coefficient equation cannot be stepped across t = 0."""


class AliasingDetected(FilamentError):
    """Spectral tail carries too much energy for the run to be trusted."""


class InsufficientTimeRange(FilamentError):
    """Trace extraction needs a wider span of stored times."""


class ConstraintViolated(FilamentError):
    """Input data fails a structural constraint."""
