"""Exception types shared across the package.

Every error here names a contract violation or a detected numerical
degeneracy. Callers that can continue (row scans, samplers) catch the
specific type; nothing is raised as a bare Exception.
"""


class OrbitLabError(Exception):
    """Base class for all package errors."""


class InvalidInput(OrbitLabError):
    """Argument outside the documented domain (boundary point, wrong
    orientation, dimension mismatch, bad index)."""


class IllConditioned(OrbitLabError):
    """Numerical rank or symmetry loss beyond the configured threshold."""


class SpectrumNotLoxodromic(OrbitLabError):
    """Eigenvalue moduli not real or not separated enough for a flag."""


class NotTransverse(OrbitLabError):
    """Flag tuple fails a required transversality minor."""


class NotPositive(OrbitLabError):
    """Factorization left the positive cell.

    stage is the word position (1-based) of the first non-positive
    multiplier; marginal is True when the multiplier sits inside the
    boundary tolerance rather than clearly negative.
    """

    def __init__(self, message, stage=None, marginal=False):
        super().__init__(message)
        self.stage = stage
        self.marginal = marginal


class NonElementary(OrbitLabError):
    """Operation needs a non-elementary group and got one with at most
    two limit points."""


class InsufficientData(OrbitLabError):
    """Too few values inside the requested window."""


class InsufficientScales(OrbitLabError):
    """Scale grid too short or too narrow for a dimension fit."""


class SumNotPD(OrbitLabError):
    """Sum of the given matrices is not positive definite."""


class NoneRemovable(OrbitLabError):
    """No summand can be removed while keeping the sum positive definite.

    Only reachable when the number of summands is at most the matrix
    dimension; carries the count for the caller's report.
    """

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class OverlappingAxes(OrbitLabError):
    """Reflection axes intersect; the doubled configuration is invalid."""
