"""Structured JSON sweep and fuzz reports.

A report records per-job timings and statuses, outcome counts and
digests, verdicts, cross-model mismatches, and the cache hit rate of the
run.  The schema is versioned and covered by the test suite so
downstream tooling can rely on it.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .jobs import Job, JobResult, STATUS_OK, outcome_to_json

#: Bump on any backwards-incompatible change to the report layout.
#: v2: per-job ``truncated``/``warning``/``outcome_digest`` fields, plus
#: the top-level ``truncated_jobs`` count and ``dedup`` counter block.
#: v3: per-job search-strategy fields (``strategy``, ``sampled``,
#: ``samples``, ``coverage_estimate``) and the top-level ``strategies``
#: list + ``sampled_jobs`` count.
REPORT_SCHEMA_VERSION = 3

#: Explorer stats counters aggregated into the report's ``dedup`` block.
DEDUP_COUNTERS = (
    "dedup_hits",
    "thread_dedup_hits",
    "completion_memo_hits",
    "cert_calls",
    "cert_memo_hits",
    "interned_keys",
    "intern_hits",
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
    return (
        f"dedup: {d.get('dedup_hits', 0)} state hits "
        f"(+{d.get('thread_dedup_hits', 0)} per-thread, "
        f"+{d.get('completion_memo_hits', 0)} completion), "
        f"cert memo: {d.get('cert_memo_hits', 0)}/{d.get('cert_calls', 0)} hits, "
        f"interning: {d.get('intern_hits', 0)} hits / {d.get('interned_keys', 0)} keys"
    )


def job_entry(result: JobResult) -> dict:
    """The per-job row of a sweep report (no outcome payload: summaries)."""
    return {
        "name": result.name,
        "model": result.model,
        "arch": result.arch.value,
        "status": result.status,
        "verdict": result.verdict.value if result.verdict else None,
        "expected": result.expected.value if result.expected else None,
        "matches_expectation": result.matches_expectation,
        "n_outcomes": None if result.outcomes is None else len(result.outcomes),
        "outcome_digest": outcome_set_digest(result.outcomes),
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


def find_mismatches(jobs: Sequence[Job], results: Sequence[JobResult]) -> list[dict]:
    """Cross-model outcome-set differences, per test.

    For every test appearing under several models (on the same arch), each
    model pair with both runs ``ok`` but different projected outcome sets
    yields one mismatch entry.  This is the §7 agreement check in report
    form — an empty list is the expected result.

    Grouping is by test *identity*, not name: a battery may contain
    distinct tests sharing a name (e.g. a generated ``LB+data+po`` next
    to the hand-written catalogue one), and comparing those across models
    would fabricate mismatches between different programs.

    Truncated explorations (a state/candidate budget was hit) have
    incomplete outcome sets, so pairs involving one are skipped rather
    than reported as disagreements; the per-job ``stats`` still show the
    truncation.  Sampled runs are sound under-approximations, so a pair
    with exactly one sampled side is checked for *containment* (the
    sampled outcomes must appear in the exhaustive set) instead of
    equality, and a pair where both sides sampled proves nothing and is
    skipped.
    """
    by_test: dict[tuple[int, str], list[JobResult]] = {}
    names: dict[tuple[int, str], str] = {}
    for job, result in zip(jobs, results):
        key = (id(job.test), job.arch.value)
        by_test.setdefault(key, []).append(result)
        names[key] = job.test.name
    mismatches = []
    for (test_key, arch), group in by_test.items():
        name = names[(test_key, arch)]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                if a.model == b.model or not (a.ok and b.ok):
                    continue
                if a.stats.get("truncated") or b.stats.get("truncated"):
                    continue
                if a.sampled and b.sampled:
                    continue
                set_a, set_b = set(a.outcomes), set(b.outcomes)
                if a.sampled:
                    differ = not set_a <= set_b
                elif b.sampled:
                    differ = not set_b <= set_a
                else:
                    differ = set_a != set_b
                if differ:
                    mismatches.append(
                        {
                            "test": name,
                            "arch": arch,
                            "models": [a.model, b.model],
                            "only_first": len(set_a - set_b),
                            "only_second": len(set_b - set_a),
                        }
                    )
    return mismatches


def build_report(
    jobs: Sequence[Job],
    results: Sequence[JobResult],
    *,
    name: str = "sweep",
    wall_seconds: Optional[float] = None,
    extra: Optional[Mapping] = None,
    cache=None,
    mismatches: Optional[Sequence[dict]] = None,
) -> dict:
    """Assemble the JSON-ready report for one sweep.

    ``cache`` (a :class:`~repro.harness.cache.ResultCache`, optional) adds
    persistence accounting — in particular ``store_failures``, so a sweep
    whose results could not be written back (read-only or full cache
    volume) is visible next to the hit rate instead of silently producing
    a cold rerun.

    ``mismatches`` overrides the generic pairwise :func:`find_mismatches`
    pass — callers with their own comparison policy (the differential
    fuzzer) supply the already-computed list instead of paying for a
    pairwise sweep whose result would be discarded.
    """
    statuses: dict[str, int] = {}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    cache_hits = sum(1 for r in results if r.cached)
    compute_seconds = sum(r.elapsed_seconds for r in results if not r.cached)
    saved_seconds = sum(r.elapsed_seconds for r in results if r.cached)
    dedup = {
        counter: sum(int(r.stats.get(counter) or 0) for r in results)
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
        "ok": statuses.get(STATUS_OK, 0) == len(results),
        "cache": {
            "hits": cache_hits,
            "misses": len(results) - cache_hits,
            "hit_rate": cache_hits / len(results) if results else 0.0,
            "saved_seconds": saved_seconds,
            "store_failures": getattr(cache, "store_failures", 0),
        },
        "compute_seconds": compute_seconds,
        "wall_seconds": wall_seconds,
        "mismatches": (
            list(mismatches) if mismatches is not None else find_mismatches(jobs, results)
        ),
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
    "find_mismatches",
    "job_entry",
    "outcome_set_digest",
    "write_report",
]
