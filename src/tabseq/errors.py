"""Exception types shared across the package."""


class TabseqError(Exception):
    """Base class for all package errors."""


class SchemaMismatch(TabseqError):
    """CSV header or encoded data does not match the declared schema."""


class ParseError(TabseqError):
    """A cell could not be parsed for its declared field kind."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class FieldKindError(TabseqError):
    """Operation applied to a field of the wrong kind."""


class ShapeError(TabseqError):
    """Tensor or grid shapes are inconsistent."""


class RangeError(TabseqError):
    """A value is outside its documented domain."""


class LengthMismatch(TabseqError):
    """Paired sequences have different lengths."""


class DegenerateLabels(TabseqError):
    """Rank metrics need at least one positive and one negative label."""


class EmptyResult(TabseqError):
    """An operation produced no output (e.g. no entity long enough to window)."""


class TooFewSamples(TabseqError):
    """Not enough minority samples for the requested neighbor count."""


class ConfigError(TabseqError):
    """Invalid generator or experiment configuration."""


class DivergenceError(TabseqError):
    """Training loss became non-finite or ran away."""


class VocabularyMismatch(TabseqError):
    """Checkpoint was built against a different preprocessing artifact."""
