"""Exception hierarchy for the ``repro`` fair-ranking library.

Every error raised by the library derives from :class:`ReproError`, so callers
can guard a whole pipeline with a single ``except ReproError`` while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations

from os import PathLike

__all__ = [
    "ReproError",
    "DatasetError",
    "SchemaError",
    "ScoringFunctionError",
    "GeometryError",
    "InfeasibleRegionError",
    "NoSatisfactoryFunctionError",
    "NotPreprocessedError",
    "OracleError",
    "ConfigurationError",
    "IndexIntegrityError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class DatasetError(ReproError):
    """Raised when a dataset is malformed or used inconsistently."""


class SchemaError(DatasetError):
    """Raised when attribute names or types do not match the dataset schema."""


class ScoringFunctionError(ReproError):
    """Raised when a scoring function has invalid weights (negative, zero, NaN)."""


class GeometryError(ReproError):
    """Raised when a geometric construction fails (degenerate inputs, etc.)."""


class InfeasibleRegionError(GeometryError):
    """Raised when a region defined by half-space constraints has no interior point."""


class NoSatisfactoryFunctionError(ReproError):
    """Raised when no scoring function in the searched space satisfies the oracle."""


class NotPreprocessedError(ReproError):
    """Raised when an online query is issued before offline preprocessing ran."""


class OracleError(ReproError):
    """Raised when a fairness oracle is misconfigured or evaluated incorrectly."""


class ConfigurationError(ReproError):
    """Raised when user-supplied configuration values are invalid."""


class IndexIntegrityError(ConfigurationError):
    """Raised when a persisted engine file fails its integrity checks.

    Subclasses :class:`ConfigurationError` so pre-checksum callers that guard
    loads with ``except ConfigurationError`` keep working.  ``hint`` carries
    an actionable recovery step (usually: rebuild the file), and is appended
    to the rendered message.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | PathLike[str] | None = None,
        hint: str | None = None,
    ) -> None:
        super().__init__(message)
        self.path: str | PathLike[str] | None = path
        self.hint: str | None = hint

    def __str__(self) -> str:
        message = super().__str__()
        if self.hint:
            return f"{message} ({self.hint})"
        return message
