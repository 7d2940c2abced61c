"""Exception types shared across the package.

Every error raised by genmi derives from GenmiError so callers can catch
library failures with a single except clause.  The CLI maps these onto
exit codes (parse errors -> 2, domain errors -> 3).
"""


class GenmiError(Exception):
    """Base class for all genmi errors."""


class NonFinite(GenmiError):
    """An input or intermediate value is NaN or infinite where it must not be."""


class AllZero(GenmiError):
    """A would-be distribution has (numerically) zero total mass."""


class NegativeMass(GenmiError):
    """A probability entry is negative beyond the sanitation tolerance."""


class BadAlpha(GenmiError):
    """The order parameter is outside the measure's admissible range."""


class DimensionMismatch(GenmiError):
    """Alphabet sizes of the supplied objects do not line up."""


class DomainError(GenmiError):
    """A value falls outside the domain of the requested transform."""


class MixedSign(GenmiError):
    """A gain takes both signs on the instance, so the log-ratio is undefined."""


class ZeroDenominator(GenmiError):
    """The no-observation optimal value is zero, so the log-ratio is undefined."""


class UnsupportedSpec(GenmiError):
    """The requested closed-form update does not exist for this functional,
    or an entropy pair's F or eta cannot be evaluated on arrays."""


class TooLarge(GenmiError):
    """The instance exceeds the size limit of the exhaustive-search oracle."""


class Diverged(GenmiError):
    """The alternating solver's objective decreased; indicates an internal bug."""


class ParseError(GenmiError):
    """An input file could not be parsed."""
