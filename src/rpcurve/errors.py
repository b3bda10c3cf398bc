"""Exception types raised across the package.

Every error names the offending item, row, column, or parameter in its
message so callers can report failures without re-deriving context.
"""


class RankingError(Exception):
    """Base class for all package-specific errors."""


class LoadError(RankingError):
    """Base class for table/schema loading and validation failures."""


class MissingCell(LoadError):
    """A row is missing a value for some indicator column."""


class NonNumericCell(LoadError):
    """A cell could not be parsed as a finite number."""


class ConstantColumn(LoadError):
    """An indicator column has fewer than two distinct values."""


class SpreadOverflow(LoadError):
    """An indicator column's max - min exceeds the double range, so it
    cannot be min-max scaled."""


class UnknownIndicator(LoadError):
    """Header and orientation schema disagree about indicator names."""


class SchemaError(LoadError):
    """Malformed schema, CSV structure or normalization transform (bad
    orientation value, duplicate or misnamed header fields, wrong field
    count, transform bounds that are not one per indicator)."""


class BadCurveFile(LoadError):
    """A saved curve file is not a fit output: its curve or transform is
    missing or garbled, its control points do not form a curve, its
    transform fails its own checks (repeated names, bounds that are not
    one per name, a max <= its min or a spread too wide to scale), or its
    transform has another dimension than the control points."""


class DomainError(RankingError):
    """An argument lies outside the domain an operation accepts: a curve
    parameter t outside [0, 1], a dimension index out of range, fewer
    than one worker, or points to project that have the wrong dimension,
    are not finite, or lie too far from the curve for its scale."""


class DegenerateCurve(RankingError):
    """Control points do not describe a usable curve (non-finite
    coordinates, or coincident endpoints where forbidden)."""


class TooFewItems(RankingError):
    """Not enough items for the requested operation."""


class TransformMismatch(RankingError):
    """A table does not match the normalization transform stored with a
    curve (different dimension count or indicator names)."""


class BadWeights(RankingError):
    """Baseline weights are not positive or do not sum to 1."""


class NonPositiveAfterShift(RankingError):
    """The raw (ratio-scale) geometric mean saw a value that is not
    strictly positive.  The normalized variant cannot: its values are
    shifted onto [EPSILON, 1]."""


class DegenerateEntropy(RankingError):
    """Entropy weighting is undefined because every column carries zero
    information (all entropies equal 1)."""


class LengthMismatch(RankingError):
    """Rankings being compared do not cover the same items."""


class PipelineFailure(RankingError):
    """A ranking pipeline raised during an invariance trial; carries the
    trial context in its message."""
