"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so
applications can catch a single base class.  More specific subclasses
exist for the major subsystems (data model, query layer, algorithms) so
tests and callers can assert on precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class DataModelError(ReproError):
    """Invalid uncertain-table construction (bad probabilities, rules...)."""


class InvalidProbabilityError(DataModelError):
    """A membership probability is outside the half-open interval (0, 1]."""


class MutualExclusionError(DataModelError):
    """A mutual-exclusion rule is malformed (overlap, mass > 1, ...)."""


class ScoringError(ReproError):
    """A scoring function failed or returned a non-numeric value."""


class KernelBackendError(ReproError):
    """A kernel backend was requested that is unavailable or unknown.

    Raised when ``REPRO_BACKEND=native`` is forced on a machine where
    the compiled kernel could not be built or loaded, or when the
    backend name is not one of ``python``/``native``/``auto``.
    """


class AlgorithmError(ReproError):
    """An algorithm was invoked with invalid parameters."""


class EmptyDistributionError(AlgorithmError):
    """An operation requires a non-empty score distribution."""


class QueryError(ReproError):
    """Base class for the SQL-like query layer."""


class QuerySyntaxError(QueryError):
    """The query text could not be tokenized or parsed."""


class QueryPlanError(QueryError):
    """The parsed query cannot be executed (unknown table/column...)."""


class DatasetError(ReproError):
    """A dataset generator was configured inconsistently."""


class ServiceError(ReproError):
    """Base class for the query-service layer (:mod:`repro.service`)."""


class BadRequestError(ServiceError):
    """A service request is malformed (unknown field, bad value...)."""


class BackpressureError(ServiceError):
    """The service queue is full; the caller should retry later.

    :ivar retry_after_s: optional hint (possibly fractional seconds)
        derived from the live queue depth and recent drain rate; the
        HTTP layer surfaces it as the ``Retry-After`` header.
    """

    retry_after_s: float | None = None


class RequestTimeoutError(ServiceError):
    """A queued service request was not answered within its deadline."""


class DurabilityError(ReproError):
    """The durable state layer (snapshots, WAL, manifest) failed."""


class WALCorruptError(DurabilityError):
    """A write-ahead log holds a corrupt (CRC-mismatching) record.

    Raised during recovery when a fully framed record fails its
    checksum — unlike a *torn tail* (an incomplete frame at the end of
    the file, the signature of a crash mid-write), which is silently
    truncated.  Corruption is never repaired automatically; the error
    names the file and offset so an operator can decide.
    """


class FaultInjectedError(ServiceError):
    """An error injected by the fault-injection harness (REPRO_FAULTS)."""
