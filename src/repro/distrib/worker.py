"""Stateless fleet worker: claim → execute → cache → complete, forever.

A worker owns nothing but a backend URL and (optionally) a shared result
cache directory.  It registers itself, then loops: claim one litmus job
under a lease, serve it from the shared cache if the fingerprint is
already there, otherwise execute it through the exact same
:func:`~repro.harness.jobs.execute_job` path the in-process scheduler
uses (so distributed outcome sets are bit-identical by construction),
persist the fresh result, and complete the item.  A background keeper
thread heartbeats the worker row and extends the lease of whatever item
is currently running, so long jobs are never reclaimed from a live
worker — while a crashed worker simply stops extending and its item
returns to the pool.

Jobs run on the worker process's **main thread**, so per-job ``SIGALRM``
deadlines fire exactly as they do under the resident pool.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..harness.cache import ResultCache, open_cache
from ..harness.jobs import Job, JobResult
from ..harness.scheduler import execute_with_delta
from ..obs import metrics
from ..obs.logging import get_logger, log_event
from .backend import WorkBackend, open_backend

_log = get_logger("distrib.worker")

WORKER_JOBS = metrics.counter(
    "distrib_worker_jobs_total",
    "Items processed by fleet workers, by how they were served.",
    labels=("mode",),
)

#: Default claim lease.  Long enough that the keeper thread (which fires
#: every ``lease/3`` seconds) refreshes it several times before expiry.
DEFAULT_LEASE_SECONDS = 30.0

#: How a completed item was served (recorded on the backend row).
MODE_COMPUTED = "computed"
MODE_CACHE = "cache"


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


# -- payload codec -----------------------------------------------------------
# Jobs and results are already plain picklable dataclasses (the
# multiprocessing pool ships them the same way); the queue just stores the
# pickled bytes, so worker and coordinator only need a matching codebase.


def encode_work(job: Job, timeout: Optional[float] = None) -> bytes:
    return pickle.dumps({"job": job, "timeout": timeout}, protocol=pickle.HIGHEST_PROTOCOL)


def decode_work(payload: bytes) -> tuple[Job, Optional[float]]:
    data = pickle.loads(payload)
    return data["job"], data.get("timeout")


def encode_result(result: JobResult) -> bytes:
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(payload: bytes) -> JobResult:
    return pickle.loads(payload)


class _LeaseKeeper:
    """Heartbeat thread: keep the worker row fresh and the held lease live.

    The worker's main thread is busy executing the job, so lease renewal
    has to happen elsewhere; the keeper uses the backend through the same
    object (SQLite connections are per-thread, so this transparently gets
    its own handle).
    """

    def __init__(
        self,
        backend: WorkBackend,
        worker_id: str,
        lease_seconds: float,
        interval: float,
    ) -> None:
        self.backend = backend
        self.worker_id = worker_id
        self.lease_seconds = lease_seconds
        self.interval = interval
        self._current: Optional[tuple[str, int]] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-keeper-{worker_id}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def hold(self, item_id: str, token: int) -> None:
        with self._lock:
            self._current = (item_id, token)

    def release(self) -> None:
        with self._lock:
            self._current = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                current = self._current
            try:
                self.backend.heartbeat(self.worker_id)
                if current is not None:
                    self.backend.extend(
                        current[0], self.worker_id, current[1], self.lease_seconds
                    )
            except Exception:
                # A transient ledger error just means this renewal is
                # skipped; the lease ages until the next round succeeds.
                pass

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did."""

    worker_id: str = ""
    claimed: int = 0
    computed: int = 0
    cache_hits: int = 0
    failures: int = 0
    lost_leases: int = 0


def run_worker(
    backend: Union[str, WorkBackend],
    cache: Union[None, str, Path, ResultCache] = None,
    *,
    worker_id: Optional[str] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = 0.1,
    max_jobs: Optional[int] = None,
    idle_exit_seconds: Optional[float] = None,
) -> WorkerStats:
    """Drive one worker until the stop condition fires.

    ``max_jobs`` bounds how many items are claimed (tests), and
    ``idle_exit_seconds`` retires a worker whose queue has stayed empty
    that long (fleets that should wind down).  With both unset the worker
    serves until it is terminated — the ``promising-arm work`` shape.
    """
    backend = open_backend(backend)
    cache = open_cache(cache)
    worker_id = worker_id or default_worker_id()
    backend.register_worker(
        worker_id, meta={"pid": os.getpid(), "host": socket.gethostname()}
    )
    keeper = _LeaseKeeper(backend, worker_id, lease_seconds, interval=max(0.05, lease_seconds / 3))
    keeper.start()
    stats = WorkerStats(worker_id=worker_id)
    log_event(_log, "worker started", worker=worker_id, lease_seconds=lease_seconds)
    idle_since = time.monotonic()
    try:
        while True:
            if max_jobs is not None and stats.claimed >= max_jobs:
                break
            claim = backend.claim(worker_id, lease_seconds)
            if claim is None:
                if (
                    idle_exit_seconds is not None
                    and time.monotonic() - idle_since >= idle_exit_seconds
                ):
                    break
                time.sleep(poll_seconds)
                continue
            idle_since = time.monotonic()
            stats.claimed += 1
            keeper.hold(claim.item_id, claim.token)
            try:
                job, timeout = decode_work(claim.payload)
                hit = cache.get(job) if cache is not None else None
                if hit is not None:
                    mode, result = MODE_CACHE, hit
                    stats.cache_hits += 1
                else:
                    mode = MODE_COMPUTED
                    result = execute_with_delta(
                        job, timeout, queue_seconds=max(0.0, time.time() - claim.enqueued_at)
                    )
                    stats.computed += 1
                    if cache is not None:
                        cache.put(job, result)
                completed = backend.complete(
                    claim.item_id, worker_id, claim.token, encode_result(result), mode=mode
                )
                if not completed:
                    # The lease was reclaimed mid-run (e.g. a long stall);
                    # someone else owns the item now, so the ledger — not
                    # this result — is authoritative.
                    stats.lost_leases += 1
                    mode = "lost-lease"
                WORKER_JOBS.inc(mode=mode)
                log_event(
                    _log,
                    "item finished",
                    worker=worker_id,
                    item=claim.item_id[:12],
                    mode=mode,
                    status=result.status,
                    attempts=claim.attempts,
                )
            except Exception as exc:
                stats.failures += 1
                backend.fail(
                    claim.item_id, worker_id, claim.token, f"{type(exc).__name__}: {exc}"
                )
                log_event(
                    _log,
                    "item failed",
                    worker=worker_id,
                    item=claim.item_id[:12],
                    error=repr(exc),
                )
            finally:
                keeper.release()
    finally:
        keeper.stop()
        log_event(
            _log,
            "worker stopped",
            worker=worker_id,
            claimed=stats.claimed,
            computed=stats.computed,
            cache_hits=stats.cache_hits,
            failures=stats.failures,
        )
    return stats


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "MODE_CACHE",
    "MODE_COMPUTED",
    "WorkerStats",
    "decode_result",
    "decode_work",
    "default_worker_id",
    "encode_result",
    "encode_work",
    "run_worker",
]
