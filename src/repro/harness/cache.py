"""Persistent on-disk cache of job results.

Results are keyed by the job fingerprint (see :meth:`Job.fingerprint`), so
a warm rerun of an agreement battery or a benchmark sweep skips every
already-computed outcome set: the fingerprint covers program, condition,
projection, model, architecture, and the full effective configuration.

Layout: one JSON file per entry, sharded by the first two hex digits of
the fingerprint (``<cache-dir>/ab/abcdef….json``).  Entries are written
atomically (write + rename) so a crashed sweep never leaves a truncated
entry behind; a corrupt or mismatched file is treated as a miss and
overwritten on the next store.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from ..obs import metrics
from ..outcomes import OutcomeSet
from .jobs import Job, JobResult, STATUS_OK, rebind, result_from_json, result_to_json
from .report import outcome_set_digest

# One shared vocabulary for every cache tier: the disk cache here, the
# LRU below, and the service's in-flight coalescing all label the same
# two counters (layer="disk"|"lru"|"coalesced").
CACHE_REQUESTS = metrics.counter(
    "cache_requests_total", "Cache lookups by layer and outcome.",
    labels=("layer", "outcome"),
)
CACHE_STORES = metrics.counter(
    "cache_stores_total", "Cache stores by layer and outcome.",
    labels=("layer", "outcome"),
)


class ResultCache:
    """Filesystem-backed result cache with hit/miss accounting."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Stores that could not be persisted (full/read-only volume, …).
        #: Surfaced in sweep reports so a cache that silently drops every
        #: entry is visible instead of just "0% hit rate next run".
        self.store_failures = 0

    def _entry_path(self, fingerprint: str) -> Path:
        return self.path / fingerprint[:2] / f"{fingerprint}.json"

    # -- lookup --------------------------------------------------------------
    def get(self, job: Job) -> Optional[JobResult]:
        """Recall the result of ``job``, or ``None`` on a miss."""
        fingerprint = job.fingerprint()
        entry = self._entry_path(fingerprint)
        try:
            data = json.loads(entry.read_text())
            if data.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            result = result_from_json(data)
        except (OSError, KeyError, TypeError, ValueError, AttributeError):
            # Unreadable, schema-drifted, or mismatched entries are
            # misses; the next store overwrites them.
            self.misses += 1
            CACHE_REQUESTS.inc(layer="disk", outcome="miss")
            return None
        self.hits += 1
        CACHE_REQUESTS.inc(layer="disk", outcome="hit")
        return rebind(result, job, cached=True)

    # -- store ---------------------------------------------------------------
    def put(self, job: Job, result: JobResult) -> bool:
        """Persist an ``ok`` result (errors and timeouts are not cached:
        they depend on machine load and deadlines, not on the job)."""
        if result.status != STATUS_OK:
            CACHE_STORES.inc(layer="disk", outcome="rejected")
            return False
        fingerprint = result.fingerprint or job.fingerprint()
        entry = self._entry_path(fingerprint)
        payload = result_to_json(result)
        payload["fingerprint"] = fingerprint
        # Unique temp name per writer: concurrent sweeps sharing a cache
        # dir must not interleave writes into the same scratch file.
        tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, entry)
        except OSError:
            # A full or read-only cache volume must never sink the sweep
            # that already holds its results in memory; the entry is not
            # persisted, but the failure is counted and reported.
            self.store_failures += 1
            CACHE_STORES.inc(layer="disk", outcome="failure")
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        CACHE_STORES.inc(layer="disk", outcome="stored")
        return True

    # -- maintenance ---------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry (and any orphaned scratch file left by a
        killed writer); returns how many entries were removed."""
        removed = 0
        for entry in self.path.glob("*/*.json"):
            entry.unlink(missing_ok=True)
            removed += 1
        for orphan in self.path.glob("*/*.tmp"):
            orphan.unlink(missing_ok=True)
        return removed

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0


class LruResultCache:
    """Process-resident LRU cache of job results, keyed by fingerprint.

    This is the hot layer the exploration service puts in front of the
    persistent :class:`ResultCache`: a bounded in-memory map whose hits
    cost a dict lookup instead of a file read + JSON parse.  Entries are
    evicted least-recently-used once ``capacity`` is exceeded (a ``get``
    refreshes recency); only ``ok`` results are admitted, mirroring the
    disk cache's policy that errors and timeouts are not reusable.

    Like :meth:`ResultCache.get`, a recalled result is rebound to the
    *incoming* job (:func:`~repro.harness.jobs.rebind`).  The returned
    object is a fresh copy, so callers may mutate it without corrupting
    the cached entry.  Each entry's outcome digest is computed once, when
    it is stored, and every copy carries it.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, JobResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, job: Job) -> Optional[JobResult]:
        """Recall the result of ``job``, or ``None`` on a miss."""
        fingerprint = job.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            CACHE_REQUESTS.inc(layer="lru", outcome="miss")
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        CACHE_REQUESTS.inc(layer="lru", outcome="hit")
        return rebind(
            entry,
            job,
            outcomes=None if entry.outcomes is None else OutcomeSet(entry.outcomes),
            stats=dict(entry.stats),
            cached=True,
        )

    def put(self, job: Job, result: JobResult) -> bool:
        """Admit an ``ok`` result, evicting the least-recently-used entry
        beyond capacity; returns whether the result was stored.

        The stored result's outcome digest is also recorded on ``result``,
        so the answer that filled the entry is not hashed a second time.
        """
        if result.status != STATUS_OK:
            CACHE_STORES.inc(layer="lru", outcome="rejected")
            return False
        if result.outcome_digest is None:
            result.outcome_digest = outcome_set_digest(result.outcomes)
        fingerprint = result.fingerprint or job.fingerprint()
        # Defensive copy, including the mutable outcome set: callers
        # routinely rebind name/expected (and could grow outcomes) on the
        # objects they hold, and that must not reach the cached entry.
        self._entries[fingerprint] = dataclasses.replace(
            result,
            outcomes=None if result.outcomes is None else OutcomeSet(result.outcomes),
            stats=dict(result.stats),
        )
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            CACHE_STORES.inc(layer="lru", outcome="evicted")
        CACHE_STORES.inc(layer="lru", outcome="stored")
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0


def open_cache(cache: Union[None, str, Path, ResultCache]) -> Optional[ResultCache]:
    """Coerce a ``--cache-dir``-style argument into a :class:`ResultCache`."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


__all__ = ["CACHE_REQUESTS", "CACHE_STORES", "LruResultCache", "ResultCache", "open_cache"]
