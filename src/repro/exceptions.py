"""Exception hierarchy for the ``repro`` fair-ranking library.

Every error raised by the library derives from :class:`ReproError`, so callers
can guard a whole pipeline with a single ``except ReproError`` while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    "TransientOracleError",
    "OracleTimeoutError",
    "OracleUnavailableError",
    "FallbackExhaustedError",
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


class TransientOracleError(OracleError):
    """An oracle failure that may heal on retry (network blip, flaky service).

    The resilience layer (:mod:`repro.resilience`) retries these with
    exponential backoff; every other :class:`OracleError` is treated as
    permanent and surfaces immediately.
    """


class OracleTimeoutError(TransientOracleError):
    """Raised when an oracle call exceeded its configured deadline."""


class OracleUnavailableError(OracleError):
    """Raised when the oracle cannot be reached at all.

    Either the circuit breaker is open (too many consecutive failures) or a
    bounded retry loop exhausted its attempts.  ``last_error`` carries the
    failure that exhausted the budget, when there was one.
    """

    def __init__(self, message: str, last_error: BaseException | None = None) -> None:
        super().__init__(message)
        self.last_error = last_error


class FallbackExhaustedError(ReproError):
    """Raised when every tier of a fallback engine chain failed for a query.

    ``attempts`` holds one structured record per tier that was tried (see
    :class:`repro.resilience.fallback.TierError`).
    """

    def __init__(self, message: str, attempts: Sequence[object] = ()) -> None:
        super().__init__(message)
        self.attempts: tuple[object, ...] = tuple(attempts)


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
