"""Batch-execution engine for litmus jobs.

The paper's headline experiment — validating the promising model against
the axiomatic one on thousands of generated litmus tests (§7) — is
embarrassingly parallel and repeats largely unchanged work between runs.
:func:`run_fuzz` is the one battery runner (the ``sweep`` and ``fuzz``
commands both use it): it turns a battery into serializable
:class:`Job`\\ s pushed through a scheduler with:

* a ``multiprocessing`` worker pool with per-job timeouts and a serial
  fallback (``workers=1``) producing bit-identical results;
* a persistent on-disk :class:`ResultCache` keyed by content fingerprint
  (program + condition + projection + configuration), so warm reruns skip
  all already-computed outcome sets;
* one cross-model comparison policy, :func:`differential_mismatches`;
* structured JSON reports (per-job timing, outcome counts and digests,
  verdicts, counterexamples, cache hit rate).
"""

from .jobs import (
    FINGERPRINT_VERSION,
    MODELS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Job,
    JobResult,
    JobTimeout,
    execute_job,
    result_from_json,
    result_to_json,
    timeouts_enforceable,
)
from .cache import LruResultCache, ResultCache, open_cache
from .scheduler import BatchStats, WorkerPool, default_workers, run_jobs
from .report import (
    DEDUP_COUNTERS,
    REPORT_SCHEMA_VERSION,
    build_report,
    describe_dedup,
    outcome_set_digest,
    write_report,
)
from .fuzz import (
    CONTAINMENT_PAIRS,
    EQUALITY_PAIRS,
    FUZZ_MODELS,
    FuzzResult,
    build_fuzz_jobs,
    differential_mismatches,
    run_fuzz,
)

__all__ = [
    "FINGERPRINT_VERSION",
    "MODELS",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "Job",
    "JobResult",
    "JobTimeout",
    "execute_job",
    "result_from_json",
    "result_to_json",
    "timeouts_enforceable",
    "LruResultCache",
    "ResultCache",
    "open_cache",
    "BatchStats",
    "WorkerPool",
    "default_workers",
    "run_jobs",
    "DEDUP_COUNTERS",
    "REPORT_SCHEMA_VERSION",
    "build_report",
    "describe_dedup",
    "outcome_set_digest",
    "write_report",
    "CONTAINMENT_PAIRS",
    "EQUALITY_PAIRS",
    "FUZZ_MODELS",
    "FuzzResult",
    "build_fuzz_jobs",
    "differential_mismatches",
    "run_fuzz",
]
