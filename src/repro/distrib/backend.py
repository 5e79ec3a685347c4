"""The leased work-queue protocol and its URL scheme.

A :class:`WorkBackend` is the shared ledger a fleet of stateless workers
coordinates through: the coordinator enqueues fingerprinted work items,
workers *claim* one item at a time under a lease, extend the lease from
their heartbeat while the job runs, and *complete* (or *fail*) it when
done.  A worker that dies mid-job simply stops extending its lease; once
the lease expires, :meth:`WorkBackend.requeue_expired` returns the item
to the pending pool and another worker picks it up.

Completion is exactly-once by construction: every claim carries a
monotonically increasing *token*, and ``complete``/``fail``/``extend``
only succeed for the worker currently holding the item under that token.
A reclaimed item re-claimed by anyone — including the original worker —
gets a fresh token, so a zombie's late ``complete`` is always rejected.

The one ledger is :class:`~repro.distrib.sqlite.SqliteBackend`: one
SQLite file in WAL mode, safe across processes and across machines on a
shared filesystem (the litmus7-style "farm the battery over the lab"
shape), named by ``sqlite:///path/to/queue.db`` or a bare filesystem
path.  :class:`~repro.distrib.http_backend.HttpWorkBackend` speaks the
same protocol to the ledger a ``promising-arm serve`` instance mounts,
at ``http://host:port`` — a fleet with no shared filesystem at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Protocol, Union, runtime_checkable

from ..obs import metrics

#: Lifecycle of a work item.
STATUS_PENDING = "pending"
STATUS_LEASED = "leased"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
ITEM_STATUSES = (STATUS_PENDING, STATUS_LEASED, STATUS_DONE, STATUS_FAILED)

#: Claims a single item may consume (initial execution + reclaims) before
#: the backend marks it failed instead of requeueing it again.
DEFAULT_MAX_ATTEMPTS = 5

QUEUE_ENQUEUED = metrics.counter(
    "distrib_enqueued_total", "Work items enqueued onto a distributed backend."
)
QUEUE_CLAIMS = metrics.counter(
    "distrib_leases_claimed_total", "Leases granted to workers by a distributed backend."
)
QUEUE_COMPLETED = metrics.counter(
    "distrib_completed_total",
    "Work items completed on a distributed backend, by serving mode.",
    labels=("mode",),
)
QUEUE_RECLAIMS = metrics.counter(
    "distrib_lease_reclaims_total",
    "Expired leases requeued after their worker stopped heartbeating.",
)
QUEUE_FAILED = metrics.counter("distrib_failed_total", "Work items marked terminally failed.")
QUEUE_DEPTH = metrics.gauge(
    "distrib_queue_depth", "Pending + leased items on the most recently polled backend."
)


@dataclass(frozen=True)
class Claim:
    """One granted lease: the item, its payload, and the fencing token."""

    item_id: str
    payload: bytes
    token: int
    attempts: int
    enqueued_at: float


@dataclass(frozen=True)
class ItemView:
    """Read-only snapshot of one work item (coordinator polling)."""

    item_id: str
    status: str
    worker: Optional[str]
    attempts: int
    result: Optional[bytes]
    error: str
    served_from: str = ""


@dataclass(frozen=True)
class WorkerInfo:
    """Registration row of one fleet worker."""

    worker_id: str
    registered_at: float
    heartbeat_at: float
    jobs_done: int
    meta: Mapping = field(default_factory=dict)


@runtime_checkable
class WorkBackend(Protocol):
    """The lease ledger every queue implementation must provide.

    All mutating calls are atomic with respect to concurrent claimants;
    ``claim``/``extend``/``complete``/``fail`` implement the fencing-token
    laws exercised by ``tests/test_distrib.py`` identically across
    implementations.
    """

    def enqueue(self, item_id: str, payload: bytes) -> bool:
        """Add an item; ``False`` if ``item_id`` is already present (dedup)."""
        ...

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Claim]:
        """Atomically lease the oldest pending item, or ``None`` if idle."""
        ...

    def extend(self, item_id: str, worker_id: str, token: int, lease_seconds: float) -> bool:
        """Prolong a held lease (heartbeat); ``False`` if no longer held."""
        ...

    def complete(
        self, item_id: str, worker_id: str, token: int, result: bytes, *, mode: str = "computed"
    ) -> bool:
        """Finish a held item exactly once; ``False`` if the lease was lost."""
        ...

    def fail(
        self, item_id: str, worker_id: str, token: int, error: str, *, requeue: bool = True
    ) -> bool:
        """Record a failure; requeues while attempts remain, else fails it."""
        ...

    def requeue_expired(self) -> list[str]:
        """Return expired leases to the pending pool (stale-worker reclaim)."""
        ...

    def counts(self) -> dict[str, int]:
        """Item counts by status (every status present, zero included)."""
        ...

    def collect(self, item_ids: Iterable[str]) -> dict[str, ItemView]:
        """Terminal (done/failed) snapshots for the requested ids."""
        ...

    def register_worker(self, worker_id: str, meta: Optional[Mapping] = None) -> None: ...

    def heartbeat(self, worker_id: str) -> None: ...

    def workers(self) -> list[WorkerInfo]: ...

    def close(self) -> None: ...


def parse_backend_url(url: str) -> tuple[str, str]:
    """``("http", url)`` or ``("sqlite", path)``: a ledger URL checked, nothing opened.

    ``http://host:port`` is the queue a ``promising-arm serve`` mounts at
    ``/v1/queue/*`` (no shared filesystem needed); ``sqlite:///path`` (or
    ``sqlite://rel/path``) and a bare path are SQLite ledgers.  Any other
    scheme, or an empty ``sqlite://`` path, is a :class:`ValueError`.
    """
    if url.startswith("http://"):
        return "http", url
    if url.startswith("sqlite://"):
        path = url[len("sqlite://") :]
        # Accept both sqlite:///abs/path (canonical) and sqlite://rel/path.
        if path.startswith("//"):
            path = path[1:]
        if not path:
            raise ValueError(f"backend url {url!r} has no database path")
        return "sqlite", path
    if "://" in url:
        raise ValueError(
            f"unsupported backend url {url!r}; expected sqlite:///path, "
            "http://host:port, or a filesystem path"
        )
    return "sqlite", url


def open_backend(url: Union[str, WorkBackend]) -> WorkBackend:
    """A live :class:`WorkBackend` for a ledger URL; a backend object passes through."""
    if not isinstance(url, str):
        return url
    scheme, target = parse_backend_url(url)
    if scheme == "http":
        from .http_backend import HttpWorkBackend

        return HttpWorkBackend(target)
    from .sqlite import SqliteBackend

    return SqliteBackend(target)


__all__ = [
    "Claim",
    "DEFAULT_MAX_ATTEMPTS",
    "ITEM_STATUSES",
    "ItemView",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_LEASED",
    "STATUS_PENDING",
    "WorkBackend",
    "WorkerInfo",
    "open_backend",
    "parse_backend_url",
]
