"""Exception hierarchy shared across the package.

CLI exit-code mapping: UsageError -> 2, data/format errors -> 3,
InternalError -> 4.
"""


class BottlenetError(Exception):
    """Base class for all package errors."""


class InvalidShapeError(BottlenetError):
    """A tensor shape violates its invariants (zero dimension, wrong rank...).
    ``field`` names the ``ModelSpec`` field out of range, if one is."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ShapeMismatchError(BottlenetError):
    """Two tensors that must agree in shape do not."""


class ChannelMismatchError(BottlenetError):
    """Operator channel count does not match its input."""


class TensorFormatError(BottlenetError):
    """A serialized tensor file is malformed, or an input tensor holds a
    NaN or infinite value."""


class WeightFormatError(BottlenetError):
    """A weight container file is malformed."""


class WeightNameError(WeightFormatError):
    """Container manifest names do not match the model parameter schema."""


class WeightShapeError(WeightFormatError):
    """A manifest entry's shape does not match the model parameter schema."""


class WeightPayloadError(WeightFormatError):
    """Container payload length disagrees with the manifest, or a payload
    value is NaN or infinite."""


class GraphError(BottlenetError):
    """A compute graph violates its invariants (cycle, duplicate producer...).
    ``record`` is ("tensor" or "op", index) of the offending node, if one is."""

    def __init__(self, message: str, record: tuple[str, int] | None = None):
        super().__init__(message)
        self.record = record


class GraphTooLargeError(GraphError):
    """Exact schedule search refused; caller should fall back to greedy."""


class NotInvertibleError(BottlenetError):
    """The rectifier invertibility condition does not hold for this input."""


class UsageError(BottlenetError):
    """Bad command-line flags or flag combinations."""


class InternalError(BottlenetError):
    """An internal invariant was violated; indicates a bug."""
