"""Exception hierarchy shared across the package.

``DataError`` subclasses map to CLI exit code 2; ``UsageError`` maps to
exit code 1.
"""

from collections import Counter


class JavaScaleError(Exception):
    """Base class for all package errors."""


class UsageError(JavaScaleError):
    """Bad command line or configuration input."""


class OutOfRangeError(UsageError, ValueError):
    """An argument outside the range a library rule accepts, such as
    descending bin edges; the CLI reports it as a usage error."""


class UnknownMetricError(UsageError):
    """A metric name outside the metrics-table schema, which settings name, not data."""


class DataError(JavaScaleError):
    """Input data cannot be processed as requested."""


class InsufficientDataError(DataError):
    """Fewer usable observations than the operation requires."""


class DegeneratePredictorError(DataError):
    """The predictor has zero variance after transformation."""


class UndefinedCorrelationError(DataError):
    """Correlation is undefined because one series has zero variance."""


class UndefinedNormalizationError(DataError):
    """NRMSE normalization range is zero (y_max == y_min)."""


class DuplicateProjectError(DataError):
    """Two projects share the same project id."""

    @classmethod
    def check(cls, ids: list[str], what: str) -> None:
        """Raise ``what: [ids listed twice or more]`` if any id repeats."""
        counts = Counter(ids)
        if len(counts) != len(ids):
            raise cls(f"{what}: {sorted(x for x, n in counts.items() if n > 1)}")


class EmptyCorpusError(DataError):
    """The corpus manifest resolves to zero projects."""


class ArchiveError(DataError):
    """A facts archive cannot be read or written."""


class UnsupportedVersionError(ArchiveError):
    """Archive format version is not supported by this reader."""


class ArchiveIntegrityError(ArchiveError):
    """Archive is truncated or internally inconsistent."""
