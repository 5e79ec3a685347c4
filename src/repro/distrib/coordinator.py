"""Coordinator: enqueue a batch onto a work backend and gather the fleet.

:func:`run_distributed` is the distributed twin of
:func:`repro.harness.scheduler.run_jobs` — same signature shape, same
result contract (results in submission order, cache hits recalled,
in-batch duplicates rebound, worker metrics deltas folded
deterministically), so sweep and fuzz reports built from either path are
bit-identical for the same corpus.

The coordinator plans the batch locally (cache hits and duplicates never
reach the queue), enqueues each remaining job on ``config.backend_url``
under its content fingerprint — which doubles as cross-run dedup on a
shared queue — then polls: expired leases from crashed workers are
requeued, finished items collected, and the queue-depth gauge refreshed.
It starts no process.  The fleet is external: ``promising-arm work``
processes on this or other machines, sharing a SQLite ledger or a
service's ``/v1/queue``.  With no fleet, a batch runs on
:class:`~repro.harness.scheduler.WorkerPool` (``--workers``) instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from ..harness.cache import ResultCache, open_cache
from ..harness.jobs import Job, JobResult, STATUS_ERROR
from ..harness.scheduler import BatchStats, plan_batch, rebind_duplicates
from ..obs import metrics
from ..obs.logging import get_logger, log_event
from ..obs.tracing import span
from .backend import QUEUE_DEPTH, STATUS_DONE, open_backend
from .worker import MODE_COMPUTED, decode_result, encode_work

_log = get_logger("distrib.coordinator")

#: Seconds between two polls of the ledger while items are outstanding.
POLL_SECONDS = 0.05


@dataclass
class DistribConfig:
    """How one distributed batch is coordinated.

    ``backend_url`` names a ledger that an external fleet serves: a
    SQLite path (or ``sqlite:///path``) that ``promising-arm work``
    processes share, or ``http://host:port`` for a service's
    ``/v1/queue``.  Workers choose their own lease length
    (``promising-arm work --lease-seconds``).
    """

    backend_url: str
    #: Abort if no item completes for this long (None = wait forever).
    #: The coordinator starts no worker, so this is the only guard
    #: against a fleet that never serves the ledger.
    stall_timeout: Optional[float] = None


@dataclass
class DistribRun:
    """Results plus the fleet/queue accounting for one distributed batch."""

    results: list[JobResult]
    info: dict = field(default_factory=dict)


def _error_result(job: Job, error: str) -> JobResult:
    return JobResult(
        name=job.test.name,
        model=job.model,
        arch=job.arch,
        status=STATUS_ERROR,
        outcomes=None,
        verdict=None,
        expected=job.test.expected_verdict(job.arch),
        elapsed_seconds=0.0,
        error=error,
        fingerprint=job.fingerprint(),
    )


def run_distributed(
    jobs: Sequence[Job],
    *,
    config: DistribConfig,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    stats: Optional[BatchStats] = None,
) -> DistribRun:
    """Execute ``jobs`` through a work backend; results in submission order."""
    if not config.backend_url:
        raise ValueError("a distributed run needs the backend_url of a ledger its fleet serves")
    cache = open_cache(cache)
    backend = open_backend(config.backend_url)

    results, pending, duplicate_of = plan_batch(jobs, cache)
    item_of: dict[int, str] = {index: jobs[index].fingerprint() for index in pending}
    reclaims: list[str] = []
    enqueued_new = 0
    try:
        with span("distrib", jobs=len(jobs), pending=len(pending)):
            for index in pending:
                if backend.enqueue(item_of[index], encode_work(jobs[index], timeout)):
                    enqueued_new += 1
            log_event(
                _log,
                "batch enqueued",
                n_jobs=len(jobs),
                pending=len(pending),
                enqueued=enqueued_new,
                cache_hits=len(jobs) - len(pending) - len(duplicate_of),
                duplicates=len(duplicate_of),
            )

            outstanding = set(item_of.values())
            collected: dict[str, object] = {}
            last_progress = time.monotonic()
            while outstanding:
                reclaimed = backend.requeue_expired()
                if reclaimed:
                    reclaims.extend(reclaimed)
                    log_event(_log, "leases reclaimed", items=len(reclaimed))
                views = backend.collect(outstanding)
                counts = backend.counts()
                QUEUE_DEPTH.set(counts["pending"] + counts["leased"])
                if views:
                    collected.update(views)
                    outstanding -= views.keys()
                    last_progress = time.monotonic()
                    continue
                if (
                    config.stall_timeout is not None
                    and time.monotonic() - last_progress > config.stall_timeout
                ):
                    raise TimeoutError(
                        f"no distributed progress for {config.stall_timeout}s with "
                        f"{len(outstanding)} item(s) outstanding"
                    )
                time.sleep(POLL_SECONDS)
        worker_rows = [
            {"worker_id": w.worker_id, "jobs_done": w.jobs_done} for w in backend.workers()
        ]
    finally:
        backend.close()

    computed = cache_served = failed = 0
    for index in pending:
        view = collected[item_of[index]]
        if view.status == STATUS_DONE:
            result = decode_result(view.result)
            if view.served_from == MODE_COMPUTED:
                computed += 1
            else:
                cache_served += 1
        else:
            failed += 1
            result = _error_result(
                jobs[index],
                view.error or f"distributed item failed after {view.attempts} attempt(s)",
            )
        results[index] = result
    # Fold worker metrics deltas in submission order — one deterministic
    # merge regardless of which worker ran what, mirroring the pool path
    # (which folds in completion order but over commutative counter adds;
    # here the order is pinned outright).
    registry = metrics.get_registry()
    for index in pending:
        result = results[index]
        if result.metrics_delta:
            registry.merge(result.metrics_delta)
        result.metrics_delta = None

    rebind_duplicates(jobs, results, duplicate_of)

    if stats is not None:
        stats.total += len(jobs)
        stats.executed += computed
        stats.cache_hits += len(jobs) - len(pending) - len(duplicate_of) + cache_served
        for result in results:
            stats.statuses[result.status] = stats.statuses.get(result.status, 0) + 1

    info = {
        "backend": config.backend_url,
        "jobs_enqueued": enqueued_new,
        "jobs_computed": computed,
        "jobs_cache_served": cache_served,
        "jobs_failed": failed,
        "local_cache_hits": len(jobs) - len(pending) - len(duplicate_of),
        "in_batch_duplicates": len(duplicate_of),
        "lease_reclaims": len(reclaims),
        "workers": worker_rows,
    }
    log_event(
        _log,
        "batch collected",
        computed=computed,
        cache_served=cache_served,
        failed=failed,
        reclaims=len(reclaims),
    )
    return DistribRun(results=results, info=info)  # type: ignore[arg-type]


__all__ = ["DistribConfig", "DistribRun", "run_distributed"]
