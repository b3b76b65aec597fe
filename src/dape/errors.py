"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: check/assertion failures -> 1,
usage/configuration -> 2, I/O -> 3.
"""


class DapeError(Exception):
    """Base class for all package errors."""


class DimensionError(DapeError):
    """Shapes do not compose (mismatched matmul, non-divisible grid, ...)."""


class ConfigurationError(DapeError):
    """A hyperparameter or config value is out of its admissible range."""


class NumericError(DapeError):
    """A NaN/Inf appeared, or a gradient is non-finite.

    A failed finiteness check sets `shape` to the checked array's shape and
    `index` to the position of its first non-finite entry; `module` is the
    innermost cost scope the error passed through. Each stays None when
    unknown.
    """

    def __init__(self, msg: str, shape: tuple[int, ...] | None = None,
                 index: tuple[int, ...] | None = None):
        super().__init__(msg)
        self.shape = shape
        self.index = index
        self.module: str | None = None


class IndexRangeError(DapeError):
    """A row/slot position is out of range."""


class ContractError(DapeError):
    """An operation was called outside its declared protocol."""


class FileFormatError(DapeError):
    """A corpus/checkpoint file is missing or malformed."""
