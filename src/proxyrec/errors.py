"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError and subclasses -> 2, NumericError and DegenerateProxyError -> 3.
"""


class ProxyRecError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ProxyRecError):
    """Bad or unknown configuration keys, flag values, or combinations."""


class DataError(ProxyRecError):
    """Problems with input data or derived datasets."""


class ParseError(DataError):
    """A raw interaction row that does not match the declared column format."""


class EmptyInputError(DataError):
    """An input file or filter stage produced nothing to work with."""


class SplitError(DataError):
    """Too few sessions to carve out train/valid/test portions."""


class SamplingError(DataError):
    """Negative sampling asked for more candidates than the catalog holds."""


class LengthError(DataError):
    """A session exceeds the positional table it is being encoded against."""


class ShapeError(ProxyRecError):
    """A gather index that is not an integer array (Tensor.gather)."""


class GradientError(ProxyRecError):
    """Backward pass invoked on something that is not a scalar output."""


class NumericError(ProxyRecError):
    """Non-finite values where finite ones are required."""


class DegenerateProxyError(NumericError):
    """Proxy combination collapsed to (near) zero norm outside training."""


class MetricError(ProxyRecError):
    """Metrics requested over an empty instance set, or a masked target."""


class CheckpointError(ProxyRecError):
    """Unreadable, corrupt, or incompatible checkpoint files."""
