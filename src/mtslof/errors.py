"""Exception types raised across the library."""


class MtslofError(Exception):
    """Base class for all library errors."""


class ShapeError(MtslofError):
    """Operand shapes are incompatible with the requested operation."""


class InputTooShortError(MtslofError):
    """A convolution stage would produce an output of length < 1."""


class DegenerateBatchError(MtslofError):
    """Batch statistics requested over fewer than two elements."""


class NotPositiveDefiniteError(MtslofError):
    """Cholesky factorization hit a non-positive pivot."""


class GraphConsumedError(MtslofError):
    """backward() called on a graph that was already consumed or never recorded."""


class ConfigError(MtslofError):
    """A configuration value violates its documented constraints."""


class NumericError(MtslofError):
    """Non-finite values appeared where finite ones are required."""


class DataFormatError(MtslofError):
    """A dataset or checkpoint file failed to parse.

    `offset` is the byte position at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CheckpointMismatchError(MtslofError):
    """A checkpoint tensor does not match the model it is loaded into."""


class WorkerError(MtslofError):
    """A worker process died, or failed with an error that is not an MtslofError."""
