"""Exception types raised across the package.

Each maps to one failure contract: callers can catch the base class or
pin the specific condition they care about.
"""


class ErdosAvoidError(Exception):
    """Base class for all package errors."""


class MalformedIntervalError(ErdosAvoidError):
    """An interval with lo > hi was supplied."""


class DegenerateMapError(ErdosAvoidError):
    """An affine map with scale 0 was requested."""


class SchemaError(ErdosAvoidError):
    """Serialized input does not match the expected schema or invariants."""


class InvalidParameterError(ErdosAvoidError):
    """A parameter is outside its documented domain."""


class GapConditionError(ErdosAvoidError):
    """The level-wise gap inequality between two trees fails."""

    def __init__(self, level: int, outer_gap, inner_gap):
        self.level = level
        self.outer_gap = outer_gap
        self.inner_gap = inner_gap
        super().__init__(
            f"level {level}: outer tree max gap {outer_gap} is not smaller "
            f"than inner tree min gap {inner_gap}"
        )


class HullContainmentError(ErdosAvoidError):
    """Required hull containment between two trees fails."""


class ZeroSlackError(ErdosAvoidError):
    """No positive perturbation radius exists for the given pair."""


class NeedsLongerWindowError(ErdosAvoidError):
    """The scanned index window is too short to satisfy a precondition."""

    def __init__(self, message: str, level: int | None = None):
        self.level = level
        super().__init__(message)


class DensityPointViolationError(ErdosAvoidError):
    """A probe interval near the density point misses the target set."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class PrecisionError(ErdosAvoidError):
    """A rational enclosure is too wide to resolve the requested quantity."""


class InfeasibleParametersError(ErdosAvoidError):
    """No parameter choice on the searched grid satisfies the target bound."""


class ConstructionAuditError(ErdosAvoidError):
    """A mandatory post-construction audit failed."""


class ResourceLimitError(ErdosAvoidError):
    """A guarded resource budget (cells, splits, refinements) was exhausted."""
