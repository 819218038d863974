"""Shared exception hierarchy."""


class PlecticError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(PlecticError):
    """A denominator vanished at the evaluation point."""


class ChartMismatchError(PlecticError):
    """Operands live on different charts."""


class DegreeError(PlecticError):
    """Form degree / argument count incompatible with the operation."""


class DimensionMismatchError(PlecticError, ValueError):
    """A point, vector or matrix does not have the dimension it is used at."""
