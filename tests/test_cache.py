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
from repro.harness.jobs import MODELS, Job, execute_job
from repro.harness.scheduler import BatchStats, run_jobs
from repro.lang.kinds import Arch
from repro.litmus import all_tests, generate_cycle_battery, get_test
from repro.litmus.test import Verdict
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


#: Default ``MP`` fingerprints (``FINGERPRINT_VERSION`` 4, ARM or
#: RISC-V alike): a seed or walk budget a ``dfs`` job never reads must
#: key exactly as the defaults do.
MP_FINGERPRINTS = {
    "promising": "17295e7bdc697b0e36cc1479c3e2bcfdaad8f8d08f3348f26ee9a46a2fa66eda",
    "promising-naive": "24671bf22efd8c6844f0caba9eedea1c8b6b281ab4c88bd1cdb9b23ccc91c1a4",
    "axiomatic": "737f0e5ad58a832eb0a34e7ffd588a21284ebaa6853c32005eb807c3a959e26c",
    "flat": "ee54055c2f6bc3bb92fe1e4063a2429769f4e5d3826b9cb4c6b3d682afe5b1f1",
}

#: The catalogue tests with an exclusive access, the only ones whose
#: fingerprint keys the architecture.
LSE_TESTS = ("LSE-atomicity", "LSE-inc-inc", "LSE-fwd-acq")


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

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", LSE_TESTS)
    def test_exclusive_accesses_key_the_architecture(self, name, model):
        test = get_test(name)
        assert test.program.has_exclusive
        arm = Job(test=test, model=model, arch=Arch.ARM)
        assert arm.fingerprint() != Job(test=test, model=model, arch=Arch.RISCV).fingerprint()

    @pytest.mark.parametrize("model", MODELS)
    def test_architecture_neutral_jobs_compute_alike(self, model):
        # The law behind an exclusive-free program keying no ``arch``: its
        # ARM and RISC-V runs, computed apart, agree on everything a
        # result carries from the computation.
        tests = [t for t in all_tests() if not t.program.has_exclusive]
        tests += generate_cycle_battery(max_per_family=1)
        for test in tests:
            arm = execute_job(Job(test=test, model=model, arch=Arch.ARM))
            riscv = execute_job(Job(test=test, model=model, arch=Arch.RISCV))
            assert arm.ok and riscv.ok, test.name
            assert arm.outcomes == riscv.outcomes, test.name
            assert arm.verdict is riscv.verdict, test.name
            assert arm.stats == riscv.stats, test.name
            assert arm.fingerprint == riscv.fingerprint, test.name


def twin_of(test, arch):
    """``test`` under another name, expected (allowed) on ``arch`` only:
    the same fingerprint, other annotations."""
    return dataclasses.replace(test, name=test.name + "-twin", expected={arch: Verdict.ALLOWED})


class TestServedToTheOtherArchitecture:
    """A result computed on ARM answers a RISC-V job of the same content
    under that job's name, arch and expected verdict."""

    @pytest.fixture(scope="class")
    def arm_mp(self):
        job = Job(test=get_test("MP"), model="promising", arch=Arch.ARM)
        return job, execute_job(job)

    @staticmethod
    def riscv_twin():
        return Job(test=twin_of(get_test("MP"), Arch.RISCV), model="promising", arch=Arch.RISCV)

    @staticmethod
    def assert_answers(result, job):
        assert result.name == "MP-twin"
        assert result.arch is Arch.RISCV
        assert result.expected is Verdict.ALLOWED
        assert result.fingerprint == job.fingerprint()

    def test_batch_duplicate(self):
        arm = Job(test=get_test("MP"), model="promising", arch=Arch.ARM)
        riscv = self.riscv_twin()
        stats = BatchStats()
        results = run_jobs([arm, riscv], stats=stats)
        assert stats.executed == 1
        assert (results[0].name, results[0].arch) == ("MP", Arch.ARM)
        assert results[0].expected is get_test("MP").expected_verdict(Arch.ARM)
        self.assert_answers(results[1], riscv)
        assert results[1].outcomes == results[0].outcomes

    def test_disk_hit(self, tmp_path, arm_mp):
        cache = ResultCache(tmp_path)
        cache.put(*arm_mp)
        riscv = self.riscv_twin()
        recalled = cache.get(riscv)
        assert recalled is not None and recalled.cached
        self.assert_answers(recalled, riscv)

    def test_lru_hit(self, arm_mp):
        lru = LruResultCache(capacity=4)
        lru.put(*arm_mp)
        riscv = self.riscv_twin()
        recalled = lru.get(riscv)
        assert recalled is not None and recalled.cached
        self.assert_answers(recalled, riscv)
        assert lru.get(arm_mp[0]).arch is Arch.ARM
