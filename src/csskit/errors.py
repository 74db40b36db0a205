"""Typed exceptions raised by the toolkit.

Every structured failure derives from :class:`CssKitError` so callers (and the
command-line layer, which maps them to exit code 3) can catch one base class.
"""


class CssKitError(Exception):
    """Base class for all structured toolkit failures."""


class DimMismatch(CssKitError):
    """Shapes or index sets are inconsistent with the operand dimensions."""


class NonFinite(CssKitError):
    """An operand contains NaN or infinity."""


class NotPSD(CssKitError):
    """A matrix that must be positive semidefinite has a significantly
    negative eigenvalue (below ``-RANK_TOL * lambda_max``)."""


class HasMissing(CssKitError):
    """A complete-data operation received data with missing entries."""


class InsufficientOverlap(CssKitError):
    """A pair of columns has too few jointly observed rows to estimate a
    covariance entry."""

    def __init__(self, s: int, t: int, count: int):
        self.s = s
        self.t = t
        self.count = count
        super().__init__(
            f"columns {s} and {t} share only {count} observed row(s); "
            "cannot estimate their covariance"
        )


class ZeroVariance(CssKitError):
    """A column has zero variance, so it cannot be scaled to correlation."""

    def __init__(self, i: int):
        self.i = i
        super().__init__(f"column {i} has zero variance")


class TooManySubsets(CssKitError):
    """Exhaustive enumeration would exceed the configured cap."""


class DegreesOfFreedom(CssKitError):
    """A null-distribution draw would need a chi-square with nonpositive
    degrees of freedom (requires n > p)."""


class NoFeasibleK(CssKitError):
    """The size-selection loop rejected every candidate size it was allowed
    to try.  Mathematically impossible when the loop reaches k = p - 1, so
    this signals a user-imposed cap or numerical trouble."""
