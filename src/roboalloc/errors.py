"""Exception types raised by the allocation engine."""


class AllocationError(Exception):
    """Base class for all engine errors."""


# --- data / moment estimation ---------------------------------------------

class DimensionMismatch(AllocationError):
    pass


class DegeneratePanel(AllocationError):
    pass


class NotSymmetric(AllocationError):
    pass


class NotPositiveSemidefinite(AllocationError):
    pass


class SingularMatrix(AllocationError):
    pass


# --- optimization ----------------------------------------------------------

class SingularCovariance(AllocationError):
    pass


class Infeasible(AllocationError):
    pass


class Unbounded(AllocationError):
    pass


class MaxIterations(AllocationError):
    pass


class TargetUnreachable(AllocationError):
    pass


class ZeroVolatilityPortfolio(AllocationError):
    pass


class PerfectCollinearity(AllocationError):
    pass


class InvalidCorrelation(AllocationError):
    pass


class MissingDuals(AllocationError):
    pass


class SingularKKT(AllocationError):
    pass


class NotPositiveDefinite(AllocationError):
    pass


class AllSingularValuesFiltered(AllocationError):
    pass


class NegativeGammaEntries(AllocationError):
    pass


# --- proximal operators / projections --------------------------------------

class NonConvexOrder(AllocationError):
    pass


class EmptySet(AllocationError):
    pass


class EmptyIntersection(AllocationError):
    pass


# --- ADMM -------------------------------------------------------------------

class NoConvergence(AllocationError):
    pass


# --- calibration -------------------------------------------------------------

class LeverageSingularity(AllocationError):
    pass


class GridEmpty(AllocationError):
    pass


class SingularViewCovariance(AllocationError):
    pass


# --- CLI ----------------------------------------------------------------------

class InputError(AllocationError):
    """Bad file, schema violation or inconsistent configuration."""
