"""Batch execution of litmus jobs: worker pool, timeouts, cache reuse.

:func:`run_jobs` is the sweep engine.  It resolves cache hits first, runs
the remaining jobs either in-process (``workers=1``, the serial fallback)
or on a ``multiprocessing`` pool, and returns results in job order
regardless of completion order — so a parallel run is indistinguishable
from a serial one apart from wall time.  Per-job deadlines and error
capture happen inside :func:`~repro.harness.jobs.execute_job`, hence a
crashing or timed-out job surfaces as a result with the matching status
instead of tearing down the batch.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from ..obs import metrics
from ..obs.logging import bind_global, get_logger, log_event
from ..obs.metrics import diff_snapshots
from .cache import ResultCache, open_cache
from .jobs import Job, JobResult, execute_job, rebind, timeouts_enforceable

_log = get_logger("harness.scheduler")

_POOL_JOBS = metrics.counter("pool_jobs_total", "Jobs executed on a WorkerPool.")
_POOL_BATCHES = metrics.counter("pool_batches_total", "Batches dispatched to a WorkerPool.")
_POOL_QUEUE_SECONDS = metrics.histogram(
    "pool_queue_seconds", "Per-job wait between batch submission and execution start."
)
_POOL_COMPUTE_SECONDS = metrics.histogram(
    "pool_compute_seconds", "Per-job execution wall time on a worker."
)
_POOL_BATCH_SIZE = metrics.histogram(
    "pool_batch_size", "Jobs per WorkerPool batch.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
)
_POOL_WORKERS = metrics.gauge("pool_workers", "Workers in the most recently created pool.")
_POOL_UTILIZATION = metrics.gauge(
    "pool_batch_utilization",
    "compute-time / (wall-time x workers) of the most recent batch.",
)


def default_workers() -> int:
    """A sensible worker count for ``--workers 0`` style requests."""
    return max(1, os.cpu_count() or 1)


class _Heartbeat:
    """Throttled structured progress log for a batch of jobs.

    Replaces ad-hoc print() progress lines: at most one ``batch progress``
    record every ``interval`` seconds, machine-parseable under
    ``--log-format json``, silent for batches that finish quickly.
    """

    def __init__(self, total: int, interval: float = 2.0) -> None:
        self.total = total
        self.done = 0
        self.interval = interval
        self._next = time.monotonic() + interval

    def tick(self, result: JobResult) -> None:
        self.done += 1
        now = time.monotonic()
        if now >= self._next or self.done == self.total:
            self._next = now + self.interval
            log_event(
                _log, "batch progress",
                done=self.done, total=self.total,
                last_test=result.name, last_status=result.status,
            )


@dataclass
class BatchStats:
    """Accounting for one :func:`run_jobs` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    statuses: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


def _invoke(payload: tuple[Job, Optional[float]]) -> JobResult:
    job, timeout = payload
    return execute_job(job, timeout=timeout)


def execute_with_delta(
    job: Job,
    timeout: Optional[float] = None,
    *,
    queue_seconds: Optional[float] = None,
) -> JobResult:
    """Run one job and attach its observability delta to the result.

    This is the single worker-side execution wrapper, shared by the
    resident pool and the distributed fleet workers: the metrics-registry
    delta accumulated while the job ran travels back on the result, where
    the coordinating process folds it into its own registry (and clears
    the field so a result can never replay its metrics).
    """
    registry = metrics.get_registry()
    before = registry.snapshot()
    result = execute_job(job, timeout=timeout)
    result.queue_seconds = queue_seconds
    result.metrics_delta = diff_snapshots(before, registry.snapshot()) or None
    return result


def _invoke_indexed(
    payload: tuple[int, Job, Optional[float], float],
) -> tuple[int, JobResult]:
    """Pool-worker wrapper around :func:`execute_with_delta`.

    ``enqueued`` is the parent's ``time.monotonic()`` at submission; both
    processes share the same clock (same boot), so ``start - enqueued``
    is the job's queue wait.
    """
    index, job, timeout, enqueued = payload
    queue_seconds = max(0.0, time.monotonic() - enqueued)
    return index, execute_with_delta(job, timeout, queue_seconds=queue_seconds)


def _worker_init() -> None:
    """Pool-worker bootstrap: bind the worker id for log correlation."""
    bind_global(worker=f"w{os.getpid()}")


def _pool_context() -> multiprocessing.context.BaseContext:
    # ``fork`` keeps job dispatch cheap, but only Linux treats it as safe;
    # elsewhere (macOS objc fork-safety, Windows) use the platform default
    # (jobs are fully picklable for spawn).
    use_fork = sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if use_fork else None)


class WorkerPool:
    """A resident multiprocessing pool that stays warm across batches.

    ``run_jobs`` spins a pool up and down per call, which is the right
    trade for one big sweep but pays process start-up, imports, and cold
    interner pools on every invocation.  A :class:`WorkerPool` is created
    once (by the exploration service, or by any long-lived driver) and
    fed micro-batches: workers persist between :meth:`run` calls, so all
    of that warm-up amortises across the whole lifetime of the pool.

    Per-job deadlines fire on each worker's main thread via ``SIGALRM``
    exactly as in the one-shot scheduler path.
    """

    def __init__(self, workers: int = 0) -> None:
        self.workers = workers if workers > 0 else default_workers()
        self._pool = _pool_context().Pool(processes=self.workers, initializer=_worker_init)
        _POOL_WORKERS.set(self.workers)
        self._closed = False
        #: Batches dispatched and jobs executed over the pool's lifetime.
        self.batches = 0
        self.jobs_executed = 0

    def run(
        self,
        jobs: Sequence[Job],
        timeout: Optional[float] = None,
        *,
        on_result=None,
    ) -> list[JobResult]:
        """Execute one batch, returning results in submission order.

        ``timeout`` is one deadline applied to each job.
        ``on_result(index, result)`` (optional) is called the moment each
        job finishes — out of submission order — so callers can persist
        results while slower jobs are still running.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if not jobs:
            return []
        if timeout is not None and not hasattr(signal, "SIGALRM"):
            warnings.warn(
                "per-job timeouts need SIGALRM, which this platform lacks; "
                "jobs will run unbounded",
                RuntimeWarning,
                stacklevel=2,
            )
        results: list[Optional[JobResult]] = [None] * len(jobs)
        enqueued = time.monotonic()
        payloads = [(index, job, timeout, enqueued) for index, job in enumerate(jobs)]
        registry = metrics.get_registry()
        batch_start = time.perf_counter()
        compute_total = 0.0
        for index, result in self._pool.imap_unordered(_invoke_indexed, payloads):
            # Fold the worker's metrics delta into this process's registry
            # (and strip it: a result must never replay its metrics).
            if result.metrics_delta:
                registry.merge(result.metrics_delta)
            result.metrics_delta = None
            if result.queue_seconds is not None:
                _POOL_QUEUE_SECONDS.observe(result.queue_seconds)
            _POOL_COMPUTE_SECONDS.observe(result.elapsed_seconds)
            compute_total += result.elapsed_seconds
            results[index] = result
            if on_result is not None:
                on_result(index, result)
        batch_wall = time.perf_counter() - batch_start
        _POOL_JOBS.inc(len(jobs))
        _POOL_BATCHES.inc()
        _POOL_BATCH_SIZE.observe(len(jobs))
        if batch_wall > 0:
            _POOL_UTILIZATION.set(min(1.0, compute_total / (batch_wall * self.workers)))
        self.batches += 1
        self.jobs_executed += len(jobs)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Graceful shutdown: wait for submitted work, then reap workers
        (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.close()
            self._pool.join()

    def terminate(self) -> None:
        """Immediate shutdown: kill workers without draining queued work
        (idempotent).  This is what an interrupted sweep wants — matching
        ``multiprocessing.Pool``'s own context-manager semantics."""
        if not self._closed:
            self._closed = True
            self._pool.terminate()
            self._pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        # Mirror ``with ctx.Pool(...)``: terminate, don't drain — a
        # KeyboardInterrupt mid-sweep must stop the workers now, not
        # after every queued job has run to completion.
        self.terminate()

    def __del__(self) -> None:
        # Last-resort reaping for pools dropped without close/terminate —
        # a leaked pool must not strand worker processes past its owner.
        try:
            self.terminate()
        except Exception:
            pass  # interpreter teardown: the pool may already be gone


def plan_batch(
    jobs: Sequence[Job], cache: Optional[ResultCache]
) -> tuple[list[Optional[JobResult]], list[int], dict[int, int]]:
    """Resolve cache hits and in-batch duplicates for one batch.

    Returns ``(results, pending, duplicate_of)``: ``results`` holds the
    recalled cache hits (``None`` elsewhere), ``pending`` the indices that
    genuinely need execution, and ``duplicate_of`` maps each
    content-identical duplicate index to the pending index that will
    compute its outcome.  Shared by :func:`run_jobs` and the distributed
    coordinator so both paths dedup and recall identically.
    """
    results: list[Optional[JobResult]] = [None] * len(jobs)
    pending: list[int] = []
    # In-batch dedup: jobs sharing a fingerprint (a generated test that
    # also appears in the catalogue, or the two architectures of an
    # exclusive-free program) are executed once and fanned back out,
    # rebound to each job like a cache hit.
    first_with: dict[str, int] = {}
    duplicate_of: dict[int, int] = {}
    for index, job in enumerate(jobs):
        hit = cache.get(job) if cache is not None else None
        if hit is not None:
            results[index] = hit
            continue
        fingerprint = job.fingerprint()
        if fingerprint in first_with:
            duplicate_of[index] = first_with[fingerprint]
        else:
            first_with[fingerprint] = index
            pending.append(index)
    return results, pending, duplicate_of


def rebind_duplicates(
    jobs: Sequence[Job],
    results: list[Optional[JobResult]],
    duplicate_of: Mapping[int, int],
) -> None:
    """Fan computed results back out to their in-batch duplicates."""
    for index, source in duplicate_of.items():
        results[index] = rebind(results[source], jobs[index])


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    cache: Union[None, str, ResultCache] = None,
    stats: Optional[BatchStats] = None,
) -> list[JobResult]:
    """Execute ``jobs`` and return their results in submission order.

    Parameters
    ----------
    workers:
        ``1`` (default) runs in-process; ``>1`` uses a process pool of that
        size; ``0`` means one worker per CPU.  Results are deterministic
        and identical for every setting.
    timeout:
        Per-job wall-clock deadline in seconds (``None`` = unbounded).
    cache:
        A :class:`ResultCache` (or a directory path for one).  Hits skip
        execution entirely; fresh ``ok`` results are stored back.
    stats:
        Optional accumulator filled with batch accounting.
    """
    cache = open_cache(cache)
    if workers == 0:
        workers = default_workers()

    results, pending, duplicate_of = plan_batch(jobs, cache)

    if pending:
        heartbeat = _Heartbeat(len(pending))
        # A single pending job skips pool setup — but only when that
        # doesn't downgrade a requested deadline (in-process enforcement
        # needs SIGALRM on the calling thread; pool workers always
        # enforce on their own main threads).
        serial_ok = timeout is None or timeouts_enforceable()
        if workers <= 1 or (len(pending) == 1 and serial_ok):
            # In-process execution: the deadline fires in *this* thread.
            if timeout is not None and not timeouts_enforceable():
                warnings.warn(
                    "per-job timeouts need SIGALRM on a main thread; "
                    "jobs will run unbounded here",
                    RuntimeWarning,
                    stacklevel=2,
                )
            for index in pending:
                results[index] = _invoke((jobs[index], timeout))
                heartbeat.tick(results[index])
                if cache is not None:
                    cache.put(jobs[index], results[index])
        else:
            # Pool execution: deadlines fire on each worker's main thread
            # (WorkerPool warns if SIGALRM is missing platform-wide).
            pending_jobs = [jobs[index] for index in pending]

            # Unordered streaming: each result is persisted the moment its
            # worker finishes, so an interrupted sweep keeps everything
            # already computed even while an early slow job is still
            # running; `results[index]` restores job order.
            def _store(batch_index: int, result: JobResult) -> None:
                index = pending[batch_index]
                results[index] = result
                heartbeat.tick(result)
                if cache is not None:
                    cache.put(jobs[index], result)

            with WorkerPool(min(workers, len(pending))) as pool:
                pool.run(pending_jobs, timeout, on_result=_store)

    rebind_duplicates(jobs, results, duplicate_of)

    if stats is not None:
        stats.total += len(jobs)
        stats.executed += len(pending)
        stats.cache_hits += len(jobs) - len(pending) - len(duplicate_of)
        for result in results:
            stats.statuses[result.status] = stats.statuses.get(result.status, 0) + 1

    return results  # type: ignore[return-value]


__all__ = [
    "BatchStats",
    "WorkerPool",
    "default_workers",
    "execute_with_delta",
    "plan_batch",
    "rebind_duplicates",
    "run_jobs",
]
