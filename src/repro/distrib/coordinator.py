"""Coordinator: enqueue a batch onto a work backend and gather the fleet.

:func:`run_distributed` is the distributed twin of
:func:`repro.harness.scheduler.run_jobs` — same signature shape, same
result contract (results in submission order, cache hits recalled,
in-batch duplicates rebound, worker metrics deltas folded
deterministically), so sweep and fuzz reports built from either path are
bit-identical for the same corpus.

The coordinator plans the batch locally (cache hits and duplicates never
reach the queue), enqueues each remaining job under its content
fingerprint — which doubles as cross-run dedup on a shared queue — then
polls: expired leases from crashed workers are requeued, finished items
collected, and the queue-depth gauge refreshed.  It can spawn its own
local fleet (one process per worker, sharing the backend by URL) or
attach to an external one (``workers=0``), e.g. ``promising-arm work``
processes on other machines.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from ..harness.cache import ResultCache, open_cache
from ..harness.jobs import Job, JobResult, STATUS_ERROR
from ..harness.scheduler import BatchStats, _pool_context, plan_batch, rebind_duplicates
from ..obs import metrics
from ..obs.logging import get_logger, log_event
from ..obs.tracing import span
from .backend import QUEUE_DEPTH, STATUS_DONE, open_backend
from .sqlite import SqliteBackend
from .worker import (
    DEFAULT_LEASE_SECONDS,
    MODE_COMPUTED,
    decode_result,
    encode_work,
    run_worker,
)

_log = get_logger("distrib.coordinator")


@dataclass
class DistribConfig:
    """How one distributed batch is coordinated.

    ``backend_url`` empty means an ephemeral SQLite queue in a temporary
    directory (created and removed by the run) — the zero-setup local
    fleet.  ``workers=0`` spawns nothing and relies on an external fleet
    already pointed at the same backend.
    """

    backend_url: str = ""
    workers: int = 2
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    poll_seconds: float = 0.05
    #: Abort if no item completes for this long (None = wait forever).
    #: Only meaningful with an external fleet; a spawned fleet that dies
    #: is detected directly.
    stall_timeout: Optional[float] = None


@dataclass
class DistribRun:
    """Results plus the fleet/queue accounting for one distributed batch."""

    results: list[JobResult]
    info: dict = field(default_factory=dict)


def _process_worker_main(
    backend_url: str,
    cache_path: Optional[str],
    worker_id: str,
    lease_seconds: float,
    poll_seconds: float,
) -> None:
    # Forked inside _sigint_held: take back the handler a worker had
    # before the coordinator swapped in its temporary one.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    run_worker(
        backend_url,
        cache_path,
        worker_id=worker_id,
        lease_seconds=lease_seconds,
        poll_seconds=poll_seconds,
    )


@contextmanager
def _sigint_held() -> Iterator[None]:
    """Hold a SIGINT that lands inside the block until the block is done.

    Ctrl-C between a worker's fork and its entry in the fleet would leave
    a process :meth:`_Fleet.stop` never learns of.  The held signal is
    raised again, to the restored handler, once the block finishes.
    Only the main thread runs (and may set) signal handlers, so
    elsewhere this does nothing.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    held: list[int] = []
    previous = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
    if held:
        signal.raise_signal(signal.SIGINT)


class _Fleet:
    """Locally spawned worker processes with one teardown path.

    Each worker opens the ledger by URL and runs jobs on its own main
    thread, so per-job ``SIGALRM`` deadlines fire as they do under the
    resident pool.  Workers are daemonic *and* explicitly terminated in
    :meth:`stop`, so neither a clean return nor a coordinator Ctrl-C
    leaves orphaned children behind.
    """

    def __init__(self) -> None:
        self.processes: list[multiprocessing.process.BaseProcess] = []

    def spawn(
        self,
        count: int,
        backend_url: str,
        cache: Optional[ResultCache],
        config: DistribConfig,
    ) -> None:
        ctx = _pool_context()  # the resident pool's start method
        cache_path = str(cache.path) if cache is not None else None
        for index in range(count):
            process = ctx.Process(
                target=_process_worker_main,
                args=(
                    backend_url,
                    cache_path,
                    f"fleet-{index}",
                    config.lease_seconds,
                    config.poll_seconds,
                ),
                name=f"distrib-worker-{index}",
                daemon=True,
            )
            with _sigint_held():
                process.start()
                self.processes.append(process)

    @property
    def spawned(self) -> int:
        return len(self.processes)

    def any_alive(self) -> bool:
        return any(p.is_alive() for p in self.processes)

    def stop(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)


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
    config: Optional[DistribConfig] = None,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    stats: Optional[BatchStats] = None,
) -> DistribRun:
    """Execute ``jobs`` through a work backend; results in submission order."""
    config = config or DistribConfig()
    if config.workers <= 0 and not config.backend_url:
        # Nothing is spawned, and no external fleet can reach a private
        # temporary queue: the run would wait forever.
        raise ValueError("a distributed run with no local workers needs a backend_url")
    cache = open_cache(cache)
    if config.backend_url:
        backend_url, backend = config.backend_url, open_backend(config.backend_url)
    else:
        backend = SqliteBackend.temporary()
        backend_url = str(backend.path)

    results, pending, duplicate_of = plan_batch(jobs, cache)
    item_of: dict[int, str] = {index: jobs[index].fingerprint() for index in pending}
    fleet = _Fleet()
    reclaims: list[str] = []
    enqueued_new = 0
    try:
        with span("distrib", jobs=len(jobs), pending=len(pending), workers=config.workers):
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
                workers=config.workers,
            )
            if config.workers > 0 and pending:
                fleet.spawn(config.workers, backend_url, cache, config)

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
                if fleet.spawned and not fleet.any_alive():
                    raise RuntimeError(
                        f"distributed fleet exited with {len(outstanding)} item(s) "
                        "outstanding"
                    )
                if (
                    config.stall_timeout is not None
                    and time.monotonic() - last_progress > config.stall_timeout
                ):
                    raise TimeoutError(
                        f"no distributed progress for {config.stall_timeout}s with "
                        f"{len(outstanding)} item(s) outstanding"
                    )
                time.sleep(config.poll_seconds)
    finally:
        fleet.stop()
        worker_rows = [
            {"worker_id": w.worker_id, "jobs_done": w.jobs_done} for w in backend.workers()
        ]
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
        "backend": backend_url,
        "ephemeral_backend": not config.backend_url,
        "workers_requested": config.workers,
        "workers_spawned": fleet.spawned,
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
