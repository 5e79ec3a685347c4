"""Direct unit tests for the result-cache layers.

The persistent :class:`ResultCache` is exercised indirectly by every
sweep test; these tests hit its recovery paths head-on — corrupt
entries, schema drift, fingerprint mismatches, failed stores — plus the
process-resident :class:`LruResultCache` eviction policy the service
builds on.
"""

import dataclasses
import json
import os

import pytest

from repro.flat import FlatConfig
from repro.harness.cache import LruResultCache, ResultCache
from repro.harness.jobs import Job, execute_job
from repro.lang.kinds import Arch
from repro.litmus import get_test
from repro.promising import ExploreConfig


@pytest.fixture(scope="module")
def sb_result():
    job = Job(test=get_test("SB"), model="axiomatic")
    return job, execute_job(job)


def other_job(model="promising"):
    return Job(test=get_test("MP"), model=model)


class TestLruResultCache:
    def test_roundtrip_rebinds_annotations(self, sb_result):
        job, result = sb_result
        lru = LruResultCache(capacity=4)
        assert lru.put(job, result)
        recalled = lru.get(job)
        assert recalled is not None and recalled.cached
        assert recalled.name == job.test.name
        assert recalled.expected == job.test.expected_verdict(job.arch)
        assert set(recalled.outcomes) == set(result.outcomes)
        assert lru.hits == 1 and lru.misses == 0

    def test_miss_counts(self, sb_result):
        job, _result = sb_result
        lru = LruResultCache(capacity=4)
        assert lru.get(job) is None
        assert lru.misses == 1 and lru.hit_rate == 0.0

    def test_eviction_is_least_recently_used(self):
        lru = LruResultCache(capacity=2)
        jobs = [
            Job(test=get_test(name), model="axiomatic")
            for name in ("SB", "MP", "LB")
        ]
        results = [execute_job(job) for job in jobs]
        lru.put(jobs[0], results[0])
        lru.put(jobs[1], results[1])
        # Touch job 0 so job 1 becomes the eviction candidate.
        assert lru.get(jobs[0]) is not None
        lru.put(jobs[2], results[2])
        assert lru.evictions == 1 and len(lru) == 2
        assert lru.get(jobs[1]) is None  # evicted
        assert lru.get(jobs[0]) is not None
        assert lru.get(jobs[2]) is not None

    def test_put_refreshes_recency_and_overwrites(self, sb_result):
        job, result = sb_result
        lru = LruResultCache(capacity=2)
        lru.put(job, result)
        lru.put(other_job("axiomatic"), execute_job(other_job("axiomatic")))
        # Re-putting the first entry must not grow the cache and must
        # move it to the fresh end.
        lru.put(job, result)
        assert len(lru) == 2
        lru.put(other_job(), execute_job(other_job()))
        assert lru.get(job) is not None

    def test_only_ok_results_admitted(self, sb_result):
        job, result = sb_result
        lru = LruResultCache(capacity=2)
        failed = dataclasses.replace(result, status="error", error="boom")
        assert not lru.put(job, failed)
        assert len(lru) == 0

    def test_returned_copy_is_isolated(self, sb_result):
        job, result = sb_result
        lru = LruResultCache(capacity=2)
        lru.put(job, result)
        first = lru.get(job)
        first.name = "mutated"
        first.stats["mutated"] = True
        second = lru.get(job)
        assert second.name == job.test.name
        assert "mutated" not in second.stats

    def test_outcome_sets_are_isolated(self, sb_result):
        # The outcome set is mutable; neither the caller's post-put
        # mutations nor mutations of a served copy may reach the entry.
        job, result = sb_result
        lru = LruResultCache(capacity=2)
        lru.put(job, result)
        baseline = len(result.outcomes)
        served = lru.get(job)
        bogus = next(iter(served.outcomes))
        served.outcomes.add(
            type(bogus)(registers=bogus.registers, memory=tuple())
        )
        again = lru.get(job)
        assert len(again.outcomes) == baseline

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruResultCache(capacity=0)


class TestResultCacheRecovery:
    def entry_path(self, cache, job):
        return cache._entry_path(job.fingerprint())

    def test_corrupt_entry_is_a_miss_then_overwritten(self, tmp_path, sb_result):
        job, result = sb_result
        cache = ResultCache(tmp_path)
        assert cache.put(job, result)
        entry = self.entry_path(cache, job)
        entry.write_text("{ not json at all")
        assert cache.get(job) is None
        assert cache.misses == 1
        # The next store repairs the entry in place.
        assert cache.put(job, result)
        recalled = cache.get(job)
        assert recalled is not None and recalled.cached

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path, sb_result):
        job, result = sb_result
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        entry = self.entry_path(cache, job)
        payload = json.loads(entry.read_text())
        payload["fingerprint"] = "0" * 64
        entry.write_text(json.dumps(payload))
        assert cache.get(job) is None

    def test_schema_drift_is_a_miss(self, tmp_path, sb_result):
        job, result = sb_result
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        entry = self.entry_path(cache, job)
        payload = json.loads(entry.read_text())
        del payload["outcomes"]
        entry.write_text(json.dumps(payload))
        assert cache.get(job) is None

    def test_store_failure_is_counted_not_raised(self, tmp_path, sb_result, monkeypatch):
        job, result = sb_result
        cache = ResultCache(tmp_path)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert not cache.put(job, result)
        assert cache.store_failures == 1
        # The scratch file must not be left behind.
        assert not list(cache.path.glob("*/*.tmp"))

    def test_non_ok_results_not_persisted(self, tmp_path, sb_result):
        job, result = sb_result
        cache = ResultCache(tmp_path)
        failed = dataclasses.replace(result, status="timeout")
        assert not cache.put(job, failed)
        assert len(cache) == 0

    def test_clear_removes_entries_and_orphans(self, tmp_path, sb_result):
        job, result = sb_result
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        entry = self.entry_path(cache, job)
        orphan = entry.with_name(entry.name + ".999.tmp")
        orphan.write_text("half-written")
        assert cache.clear() == 1
        assert len(cache) == 0
        assert not orphan.exists()

    def test_annotations_follow_incoming_job(self, tmp_path):
        # Two jobs sharing a fingerprint-relevant payload but differing in
        # arch-dependent expectations must each see their own verdict.
        cache = ResultCache(tmp_path)
        arm = Job(test=get_test("SB"), model="axiomatic", arch=Arch.ARM)
        cache.put(arm, execute_job(arm))
        recalled = cache.get(arm)
        assert recalled.expected == get_test("SB").expected_verdict(Arch.ARM)


#: Default ``MP`` fingerprints, recorded before the sampling fields
#: stopped keying ``dfs`` jobs: a default config must key exactly as it
#: did, so no cache entry is invalidated.
MP_FINGERPRINTS = {
    "promising": "adf9a09b3dd5aa362193dd338a278930696de9e48751d93b05de018f9d8e7d35",
    "promising-naive": "ecd6d6481f934b553abff421b21c683c739b28314e005f507916b95faa1046a2",
    "axiomatic": "a88ba750775f6e6b0b62f86e222f0c99bf7ba88cc8061842e432de702672c9ae",
    "flat": "0789b56d14643a5dd2bc44c514a2b3e7a3df6ee1386a0466b2b849f8f82b19b2",
}


def mp_job(model, **fields):
    if model == "flat":
        return Job(test=get_test("MP"), model=model, flat_config=FlatConfig(**fields))
    return Job(test=get_test("MP"), model=model, explore_config=ExploreConfig(**fields))


class TestFingerprints:
    @pytest.mark.parametrize("model", sorted(MP_FINGERPRINTS))
    def test_default_fingerprints_are_unchanged(self, model):
        assert Job(test=get_test("MP"), model=model).fingerprint() == MP_FINGERPRINTS[model]

    @pytest.mark.parametrize("model", ["promising", "promising-naive", "flat"])
    def test_only_sampled_jobs_key_the_sampling_fields(self, model):
        # An exhaustive search never reads them, so they must not split
        # its cache entries; a sampled run keys its own.
        seeded = mp_job(model, seed=7, samples=3, sample_depth=9)
        assert seeded.fingerprint() == mp_job(model).fingerprint() == MP_FINGERPRINTS[model]
        sampled = mp_job(model, strategy="sample", seed=7)
        assert sampled.fingerprint() != mp_job(model, strategy="sample").fingerprint()

    def test_seeded_sweep_is_served_from_a_warm_cache(self, tmp_path, capsys):
        from repro.tools.cli import main

        argv = ["sweep", "--max-tests", "8", "--models", "promising,flat"]
        argv += ["--workers", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["--seed", "7"] + argv) == 0
        assert "cache hit rate 100%" in capsys.readouterr().out
