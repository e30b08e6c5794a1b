"""Exception hierarchy for the Zerber reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one base class at an API boundary. Subclasses are grouped by the
subsystem that raises them; none of them carry sensitive payloads (no secrets,
no shares) so they are always safe to log.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library.

    Every exception carries a :attr:`retryable` classification read by
    :class:`repro.resilience.RetryPolicy`: True means the failure is
    transient *and* re-issuing the request cannot double-apply state
    (the server rejected it before dispatch, or the request is a pure
    read that never reached an applier). The class attribute is the
    conservative default for the type; transports override it per
    *instance* where safety depends on the request (a broken connection
    is retryable for reads, ambiguous for writes).
    """

    #: May this failure be retried without at-least-once side effects?
    retryable: bool = False


class FieldError(ReproError):
    """Invalid finite-field construction or operation (e.g. non-prime modulus)."""


class SecretSharingError(ReproError):
    """Secret-sharing failure: bad parameters, insufficient or inconsistent shares."""


class InsufficientSharesError(SecretSharingError):
    """Fewer than ``k`` distinct shares were supplied to a reconstruction."""


class PackingError(ReproError):
    """A posting element does not fit the configured bit layout."""


class MergingError(ReproError):
    """A merging heuristic was invoked with unsatisfiable parameters."""


class ConfidentialityError(ReproError):
    """An r-confidentiality computation received invalid probabilities."""


class AuthError(ReproError):
    """Authentication or authorization failure at an index server."""


class AccessDeniedError(AuthError):
    """The authenticated principal lacks the group membership for an operation."""


class IndexServerError(ReproError):
    """An index server rejected a structurally invalid request."""


class StorageError(ReproError):
    """A seat's durable store is corrupt, inconsistent, or misused
    (interior segment corruption, bad manifest, a closed store, or a
    directory holding files of the removed flat engine)."""


class TransportError(ReproError):
    """Transport failure (unknown endpoint, link down, socket error)."""


class UnknownEndpointError(TransportError):
    """A message was addressed to an endpoint no transport knows about.

    Carries the offending endpoint name so operators (and the failover
    ladder's diagnostics) can say *which* seat vanished — the kill-pod /
    retire-pod race hits this when a client still holds a routing plan
    that names a just-unregistered server.
    """

    def __init__(self, endpoint: str, message: str | None = None) -> None:
        super().__init__(message or f"unknown endpoint {endpoint!r}")
        self.endpoint = endpoint


class DeadlineExceededError(ReproError):
    """A request's deadline budget ran out before a response arrived.

    Raised client-side when the budget expires at send time or while
    waiting, and shipped server-side (as a typed ``ErrorResponse``)
    when the remaining budget is already gone before dispatch. Never
    retryable: the caller's time is spent — retrying a dead deadline
    only burns someone else's.
    """


class OverloadedError(ReproError):
    """A server shed this request at admission instead of queueing it.

    The request was rejected *before* dispatch, so nothing was applied
    — which is exactly what makes it safe to retry (with backoff), even
    for writes.
    """

    retryable = True


class ProtocolError(ReproError):
    """A wire-protocol message could not be encoded or decoded (garbage,
    truncated frame, unknown message type, or unsupported version)."""


class CorpusError(ReproError):
    """Corpus or query-log generation was configured inconsistently."""


class RankingError(ReproError):
    """Ranking was asked to score with malformed statistics."""


class ClusterError(ReproError):
    """A sharded cluster was configured or operated inconsistently."""


class ClusterDegradedError(ClusterError):
    """A pod has fewer than ``k`` live servers, so it can neither accept
    writes nor serve reconstructable lookups until servers restart."""


def error_class(name: str) -> type[ReproError]:
    """Resolve a library exception class by name.

    The wire protocol ships server-side failures as ``ErrorResponse``
    messages carrying the exception's class name; the client-side
    transport re-raises the matching class so callers see the same
    exception across every transport backend. Unknown names fall back to
    :class:`ReproError` (a newer server may know errors this client does
    not).
    """

    def walk(cls: type[ReproError]):
        yield cls
        for sub in cls.__subclasses__():
            yield from walk(sub)

    for cls in walk(ReproError):
        if cls.__name__ == name:
            return cls
    return ReproError
