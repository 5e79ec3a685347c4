"""Structured JSON reports of battery runs (``sweep`` and ``fuzz``).

A report records per-job timings and statuses, outcome counts and
digests, verdicts, cross-model counterexamples, and the cache hit rate
of the run.  The schema is versioned and covered by the test suite so
downstream tooling can rely on it.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .jobs import JobResult, STATUS_OK, outcome_to_json

#: Bump on any backwards-incompatible change to the report layout.
#: v2: per-job ``truncated``/``warning``/``outcome_digest`` fields, plus
#: the top-level ``truncated_jobs`` count and ``dedup`` counter block.
#: v3: per-job search-strategy fields (``strategy``, ``sampled``,
#: ``samples``, ``coverage_estimate``) and the top-level ``strategies``
#: list + ``sampled_jobs`` count.
#: v4: ``sweep`` runs through the fuzz runner, so its reports carry the
#: ``extra.fuzz`` block (no ``extra.arch``/``extra.n_tests``) and every
#: mismatch entry carries ``kind`` and ``source``.
#: v5: the ``dedup`` block loses its two per-thread completion counters
#: (completion sets are read off the certification graphs).
#: v6: the ``dedup`` block gains ``step_memo_hits``/``step_memo_misses``.
#: v7: ``extra.distrib`` loses its three local-fleet fields (the
#: ephemeral-queue flag, the requested and the spawned worker counts):
#: the coordinator starts no worker.
#: v8: ``extra.workers`` is ``null`` for a distributed run: no local
#: worker runs, and the fleet's size is not known to the coordinator.
REPORT_SCHEMA_VERSION = 8

#: Explorer stats counters aggregated into the report's ``dedup`` block.
DEDUP_COUNTERS = (
    "dedup_hits",
    "cert_calls",
    "cert_memo_hits",
    "interned_keys",
    "intern_hits",
    "step_memo_hits",
    "step_memo_misses",
)


def outcome_set_digest(outcomes) -> Optional[str]:
    """Stable content hash of a projected outcome set.

    Lets report consumers (the golden-digest checks in
    ``tests/test_golden.py`` and CI) detect a semantic change without
    shipping the full outcome payload in every report row.
    """
    if outcomes is None:
        return None
    payload = sorted(
        json.dumps(outcome_to_json(o), sort_keys=True) for o in outcomes
    )
    return hashlib.sha256("\x1e".join(payload).encode()).hexdigest()[:16]


def describe_dedup(report: Mapping) -> str:
    """One-line rendering of the report's aggregated ``dedup`` block."""
    d = report.get("dedup") or {}
    steps = d.get("step_memo_hits", 0)
    return (
        f"dedup: {d.get('dedup_hits', 0)} state hits, "
        f"cert memo: {d.get('cert_memo_hits', 0)}/{d.get('cert_calls', 0)} hits, "
        f"step memo: {steps}/{steps + d.get('step_memo_misses', 0)} hits, "
        f"interning: {d.get('intern_hits', 0)} hits / {d.get('interned_keys', 0)} keys"
    )


def distinct_computations(results: Sequence[JobResult]) -> list[JobResult]:
    """The first result of each fingerprint, in order.

    Rows sharing a fingerprint (an in-batch duplicate, or the other
    architecture of an exclusive-free program) were computed once and
    fanned out, so a sum of seconds or memo counters reads each
    computation from here once.  A row without a fingerprint counts on
    its own.
    """
    first: dict = {}
    for result in results:
        first.setdefault(result.fingerprint or id(result), result)
    return list(first.values())


def job_entry(result: JobResult) -> dict:
    """The per-job row of a report (no outcome payload: summaries).

    The outcome digest is the one ``result`` carries, if it has one.
    """
    digest = result.outcome_digest
    if digest is None:
        digest = outcome_set_digest(result.outcomes)
    return {
        "name": result.name,
        "model": result.model,
        "arch": result.arch.value,
        "status": result.status,
        "verdict": result.verdict.value if result.verdict else None,
        "expected": result.expected.value if result.expected else None,
        "matches_expectation": result.matches_expectation,
        "n_outcomes": None if result.outcomes is None else len(result.outcomes),
        "outcome_digest": digest,
        "elapsed_seconds": result.elapsed_seconds,
        "cached": result.cached,
        "truncated": result.truncated,
        # Search-strategy provenance: ``strategy`` is None for models
        # without a kernel (axiomatic); ``samples``/``coverage_estimate``
        # are None for exhaustive runs.
        "strategy": result.strategy,
        "sampled": result.sampled,
        "samples": result.stats.get("samples_run") if result.sampled else None,
        "coverage_estimate": result.stats.get("coverage_estimate"),
        "warning": result.warning,
        "error": result.error,
        "fingerprint": result.fingerprint,
        "stats": result.stats,
    }


def build_report(
    results: Sequence[JobResult],
    mismatches: Sequence[dict],
    *,
    name: str = "battery",
    wall_seconds: Optional[float] = None,
    extra: Optional[Mapping] = None,
    cache=None,
) -> dict:
    """Assemble the JSON-ready report for one battery run.

    ``mismatches`` are the counterexamples of the cross-model policy
    (:func:`repro.harness.fuzz.differential_mismatches`).  The report is
    ``ok`` only when at least one job ran, every job is ``ok`` and there
    is no counterexample: a battery that timed out, crashed or checked
    nothing proved nothing.  Seconds and the ``dedup`` counters count
    each computation once (:func:`distinct_computations`).

    ``cache`` (a :class:`~repro.harness.cache.ResultCache`, optional) adds
    persistence accounting — in particular ``store_failures``, so a run
    whose results could not be written back (read-only or full cache
    volume) is visible next to the hit rate instead of silently producing
    a cold rerun.
    """
    statuses: dict[str, int] = {}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    cache_hits = sum(1 for r in results if r.cached)
    computations = distinct_computations(results)
    compute_seconds = sum(r.elapsed_seconds for r in computations if not r.cached)
    saved_seconds = sum(r.elapsed_seconds for r in computations if r.cached)
    dedup = {
        counter: sum(int(r.stats.get(counter) or 0) for r in computations)
        for counter in DEDUP_COUNTERS
    }
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "name": name,
        "generated_unix": time.time(),
        "n_jobs": len(results),
        "models": sorted({r.model for r in results}),
        "archs": sorted({r.arch.value for r in results}),
        "status_counts": statuses,
        "truncated_jobs": sum(1 for r in results if r.truncated),
        "sampled_jobs": sum(1 for r in results if r.sampled),
        "strategies": sorted({r.strategy for r in results if r.strategy}),
        "dedup": dedup,
        "ok": bool(results) and statuses.get(STATUS_OK, 0) == len(results) and not mismatches,
        "cache": {
            "hits": cache_hits,
            "misses": len(results) - cache_hits,
            "hit_rate": cache_hits / len(results) if results else 0.0,
            "saved_seconds": saved_seconds,
            "store_failures": getattr(cache, "store_failures", 0),
        },
        "compute_seconds": compute_seconds,
        "wall_seconds": wall_seconds,
        "mismatches": list(mismatches),
        "jobs": [job_entry(r) for r in results],
    }
    if extra:
        report["extra"] = dict(extra)
    return report


def write_report(report: Mapping, path: Union[str, Path]) -> Path:
    """Write a report as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


__all__ = [
    "DEDUP_COUNTERS",
    "REPORT_SCHEMA_VERSION",
    "build_report",
    "describe_dedup",
    "distinct_computations",
    "job_entry",
    "outcome_set_digest",
    "write_report",
]
