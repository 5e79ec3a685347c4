"""Tests for the harness: scheduler, cache, fingerprints, reports, runner.

The guarantees pinned here are the ones the rest of the codebase builds
on: parallel and serial runs are interchangeable, the persistent cache
round-trips results and invalidates on configuration changes, one bad job
never poisons a batch, the JSON report schema stays stable, and ``sweep``
and ``fuzz`` judge their batteries by one cross-model policy.
"""

import json

import pytest

from repro.harness import (
    Job,
    REPORT_SCHEMA_VERSION,
    ResultCache,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    build_report,
    execute_job,
    result_from_json,
    result_to_json,
    run_fuzz,
    run_jobs,
)
from repro.lang.kinds import Arch
from repro.litmus import generate_cycle_battery, get_family, get_test, synthesize
from repro.promising import ExploreConfig
from repro.tools.cli import main
from repro.workloads import spinlock_cxx, spinlock_rust


def battery(n=8):
    return generate_cycle_battery(max_tests=n)


def sweep(tests, models=("promising", "axiomatic"), **kwargs):
    """What ``promising-arm sweep`` runs: one architecture, ARM."""
    return run_fuzz(tests, models, (Arch.ARM,), name="litmus-sweep", **kwargs)


def digests(run):
    return [job["outcome_digest"] for job in run.report["jobs"]]


def exit_code(argv) -> int:
    """``main``'s exit code, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# Jobs and fingerprints
# ---------------------------------------------------------------------------


class TestJobs:
    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError):
            Job(test=get_test("MP"), model="nosuch")

    def test_execute_matches_litmus_runner_projection(self):
        test = get_test("MP+dmb+addr")
        result = execute_job(Job(test=test, model="promising"))
        assert result.ok
        assert result.verdict is test.expected_verdict(Arch.ARM)
        assert result.matches_expectation is True
        assert result.stats["promise_states"] > 0

    def test_fingerprint_is_stable_and_config_sensitive(self):
        test = get_test("MP")
        base = Job(test=test, model="promising")
        assert base.fingerprint() == Job(test=test, model="promising").fingerprint()
        # Any semantic knob must invalidate: config, arch, model, test.
        assert (
            Job(test=test, model="promising",
                explore_config=ExploreConfig(loop_bound=3)).fingerprint()
            != base.fingerprint()
        )
        assert Job(test=test, model="axiomatic").fingerprint() != base.fingerprint()
        # The architecture keys a program with an exclusive access only:
        # without one no rule reads it, so MP's two jobs share a key.
        assert Job(test=test, model="promising", arch=Arch.RISCV).fingerprint() == base.fingerprint()
        lse = get_test("LSE-atomicity")
        assert (
            Job(test=lse, model="promising", arch=Arch.RISCV).fingerprint()
            != Job(test=lse, model="promising").fingerprint()
        )
        assert Job(test=get_test("SB"), model="promising").fingerprint() != base.fingerprint()

    def test_fingerprint_distinguishes_same_named_locations(self):
        # Two MemEq conditions over swapped addresses render identically
        # ("x=1 /\ y=0") but observe different memory; their fingerprints
        # must differ or the cache would serve one test's verdict to the
        # other.
        from repro.litmus.conditions import MemEq, cond_and
        from repro.litmus.test import LitmusTest

        program = get_test("SB").program
        cond_a = cond_and(MemEq(0, 1, "x"), MemEq(8, 0, "y"))
        cond_b = cond_and(MemEq(8, 1, "x"), MemEq(0, 0, "y"))
        assert repr(cond_a) == repr(cond_b)
        job_a = Job(test=LitmusTest("T", program, cond_a), model="promising")
        job_b = Job(test=LitmusTest("T", program, cond_b), model="promising")
        assert job_a.fingerprint() != job_b.fingerprint()

    def test_partial_projection_override_derives_the_other_side(self):
        test = get_test("MP")
        job = Job(test=test, model="promising", project_locations=(0,))
        regs, locs = job.observables()
        assert locs == [0]
        # Registers still come from the condition, not an empty override.
        assert regs == {tid: sorted(n) for tid, n in test.observable_registers().items()}

    def test_for_program_covers_all_observables(self):
        workload = spinlock_rust(2, 1, 1)
        job = Job.for_program(workload.program, "promising")
        regs, locs = job.observables()
        assert set(locs) == set(workload.program.loc_names)
        assert all(regs[tid] for tid in workload.program.thread_ids)
        result = execute_job(job)
        assert result.ok and workload.check(result.outcomes)

    def test_result_json_round_trip(self):
        result = execute_job(Job(test=get_test("MP"), model="promising"))
        clone = result_from_json(json.loads(json.dumps(result_to_json(result))))
        assert clone.name == result.name
        assert clone.verdict is result.verdict
        assert set(clone.outcomes) == set(result.outcomes)
        assert clone.stats == result.stats


# ---------------------------------------------------------------------------
# Scheduler: parallel == serial, faults stay contained
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_parallel_agreement_report_matches_serial(self):
        tests = battery(10)
        serial = sweep(tests, workers=1)
        parallel = sweep(tests, workers=4)
        assert serial.report["n_jobs"] == parallel.report["n_jobs"] == 20
        assert serial.ok and parallel.ok
        assert digests(serial) == digests(parallel)
        assert serial.counterexamples == parallel.counterexamples == []

    def test_parallel_results_are_bit_identical(self):
        jobs = [Job(test=t, model="promising") for t in battery(6)]
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=3)
        for a, b in zip(serial, parallel):
            assert a.name == b.name
            assert a.verdict is b.verdict
            assert set(a.outcomes) == set(b.outcomes)
            assert a.stats == b.stats

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_does_not_poison_the_batch(self, workers):
        # The first and last jobs finish in a few milliseconds; the middle
        # one (Table 3's SLC-2) takes about 30 s in process, 600 times its
        # deadline, and must surface as a timeout result.  The alarm stops
        # it at the deadline, so the test stays fast.
        quick = get_test("MP")
        slow = Job.for_program(spinlock_cxx(2, 2).program, "promising", name="slow")
        jobs = [Job(test=quick, model="promising"), slow, Job(test=quick, model="axiomatic")]
        results = run_jobs(jobs, workers=workers, timeout=0.05)
        statuses = [r.status for r in results]
        assert statuses[1] == STATUS_TIMEOUT
        assert results[1].outcomes is None
        assert statuses[0] == STATUS_OK and statuses[2] == STATUS_OK

    def test_host_garbage_waits_out_the_deadline(self, monkeypatch):
        # A collection during a job must not run the host's finalizers:
        # the alarm raised inside one is swallowed ("Exception ignored
        # in") and the job runs on unbounded.  Nor may it scan the host's
        # heap on the job's clock.  The garbage here is collected after
        # the job instead, and the job still times out.
        import gc
        import time

        import repro.harness.jobs as jobs_module

        finalized = []

        class Slow:
            def __del__(self):
                finalized.append(True)
                end = time.perf_counter() + 0.2
                while time.perf_counter() < end:
                    pass

        def busy(program, cfg):
            gc.collect()  # as a full collection triggered mid-job would
            end = time.perf_counter() + 2
            while time.perf_counter() < end:
                pass
            raise AssertionError("the deadline never fired")

        monkeypatch.setattr(jobs_module, "explore", busy)
        gc.disable()  # no automatic collection before the job starts
        try:
            garbage = Slow()
            garbage.cycle = garbage
            del garbage
            result = execute_job(Job(test=get_test("MP"), model="promising"), timeout=0.05)
            assert result.status == STATUS_TIMEOUT, result.error
            assert finalized == []
            assert gc.get_freeze_count() == 0
            gc.collect()
            assert finalized == [True]
        finally:
            gc.enable()

    def test_content_identical_jobs_execute_once(self, monkeypatch):
        import repro.harness.scheduler as scheduler_module

        calls = []
        original = scheduler_module._invoke

        def counting(payload):
            calls.append(payload[0].test.name)
            return original(payload)

        monkeypatch.setattr(scheduler_module, "_invoke", counting)
        from repro.litmus.test import LitmusTest

        base = get_test("MP")
        twin = LitmusTest("MP-twin", base.program, base.condition, base.expected)
        results = run_jobs([Job(test=base, model="promising"), Job(test=twin, model="promising")])
        assert calls == ["MP"]  # the content-identical twin was not re-run
        assert [r.name for r in results] == ["MP", "MP-twin"]
        assert set(results[0].outcomes) == set(results[1].outcomes)
        assert results[1].expected is twin.expected_verdict(Arch.ARM)

    def test_cache_write_failure_does_not_sink_the_batch(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache_module

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cache_module.os, "replace", broken_replace)
        cache = ResultCache(tmp_path)
        results = run_jobs([Job(test=t, model="promising") for t in battery(3)], cache=cache)
        assert all(r.ok for r in results)
        assert len(cache) == 0  # nothing persisted, nothing crashed

    def test_error_is_captured_per_job(self):
        from repro.lang import make_program
        from repro.litmus.conditions import TrueCond
        from repro.litmus.test import LitmusTest

        broken = LitmusTest("broken", make_program([None]), TrueCond())
        jobs = [Job(test=broken, model="promising"), Job(test=get_test("SB"), model="promising")]
        results = run_jobs(jobs, workers=1)
        assert results[0].status == STATUS_ERROR
        assert results[0].error
        assert results[1].status == STATUS_OK


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class TestCache:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [Job(test=t, model="promising") for t in battery(5)]
        cold = run_jobs(jobs, cache=cache)
        assert cache.hits == 0 and cache.misses == 5 and len(cache) == 5
        warm = run_jobs(jobs, cache=cache)
        assert cache.hits == 5
        for a, b in zip(cold, warm):
            assert not a.cached and b.cached
            assert a.verdict is b.verdict
            assert set(a.outcomes) == set(b.outcomes)

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        test = get_test("MP")
        run_jobs([Job(test=test, model="promising")], cache=cache)
        rerun = run_jobs(
            [Job(test=test, model="promising", explore_config=ExploreConfig(loop_bound=3))],
            cache=cache,
        )
        assert not rerun[0].cached
        assert cache.misses == 2 and len(cache) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job(test=get_test("MP"), model="promising")
        run_jobs([job], cache=cache)
        for entry in tmp_path.glob("*/*.json"):
            entry.write_text("{not json")
        result = run_jobs([job], cache=cache)[0]
        assert not result.cached and result.ok

    def test_schema_drifted_entry_is_a_miss(self, tmp_path):
        # Valid JSON with the right fingerprint but an undecodable payload
        # (e.g. written by an older schema) must degrade to a miss, not
        # crash the sweep.
        cache = ResultCache(tmp_path)
        job = Job(test=get_test("MP"), model="promising")
        run_jobs([job], cache=cache)
        entry = next(tmp_path.glob("*/*.json"))
        entry.write_text(json.dumps({"fingerprint": job.fingerprint(), "arch": "vax"}))
        result = run_jobs([job], cache=cache)[0]
        assert not result.cached and result.ok

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([Job(test=t, model="promising") for t in battery(3)], cache=cache)
        assert cache.clear() == 3 and len(cache) == 0

    def test_hit_reflects_incoming_annotations(self, tmp_path):
        # Name and expected verdict are outside the fingerprint; a recalled
        # result must carry the *current* job's annotations, so fixing a
        # catalogue expectation is not masked by a stale cache entry.
        from repro.litmus.test import LitmusTest, Verdict

        cache = ResultCache(tmp_path)
        original = get_test("MP")
        run_jobs([Job(test=original, model="promising")], cache=cache)
        flipped = Verdict.ALLOWED if original.expected_verdict(Arch.ARM) is Verdict.FORBIDDEN else Verdict.FORBIDDEN
        relabelled = LitmusTest(
            "MP-renamed", original.program, original.condition, {Arch.ARM: flipped}
        )
        hit = run_jobs([Job(test=relabelled, model="promising")], cache=cache)[0]
        assert hit.cached
        assert hit.name == "MP-renamed"
        assert hit.expected is flipped
        assert hit.matches_expectation is False

    def test_store_failures_are_counted_and_reported(self, tmp_path):
        # A cache that cannot persist results (read-only/full volume) must
        # be visible in the sweep report next to the hit rate, not just
        # show up as a mysteriously cold rerun.
        cache = ResultCache(tmp_path)
        tests = battery(2)
        for test in tests:
            job = Job(test=test, model="promising")
            # Occupy the shard path with a *file* so the entry's mkdir
            # fails deterministically (works even when running as root,
            # unlike a chmod-based read-only directory).
            shard = tmp_path / job.fingerprint()[:2]
            if not shard.exists():
                shard.write_text("not a directory")
        run = sweep(tests, ("promising",), cache=cache)
        assert run.ok
        assert cache.store_failures == len(tests)
        assert run.report["cache"]["store_failures"] == len(tests)
        assert "store failures" in run.describe()
        # And a healthy cache reports zero.
        healthy = ResultCache(tmp_path / "healthy")
        run = sweep(tests, ("promising",), cache=healthy)
        assert healthy.store_failures == 0
        assert run.report["cache"]["store_failures"] == 0

    def test_warm_agreement_run_is_much_faster(self, tmp_path):
        tests = battery(16)
        cache = ResultCache(tmp_path)
        cold = sweep(tests, cache=cache)
        warm = sweep(tests, cache=cache)
        assert cold.ok and warm.ok
        assert cache.hits == 32 and cache.misses == 32
        # The warm run does no model work at all; a loose factor keeps this
        # robust on noisy CI (the ≥5x assertion lives in the bench tier).
        assert warm.wall_seconds * 2 <= cold.wall_seconds

    def test_agreement_accepts_an_iterator(self):
        run = sweep(t for t in battery(4))
        assert run.report["extra"]["fuzz"]["corpus_size"] == 4 and run.ok


# ---------------------------------------------------------------------------
# Reports and the sweep entry points
# ---------------------------------------------------------------------------

REPORT_KEYS = {
    "schema_version", "name", "generated_unix", "n_jobs", "models", "archs",
    "status_counts", "truncated_jobs", "sampled_jobs", "strategies",
    "dedup", "ok", "cache", "compute_seconds", "wall_seconds", "mismatches",
    "jobs",
}

JOB_ENTRY_KEYS = {
    "name", "model", "arch", "status", "verdict", "expected",
    "matches_expectation", "n_outcomes", "outcome_digest", "elapsed_seconds",
    "cached", "truncated", "strategy", "sampled", "samples",
    "coverage_estimate", "warning", "error", "fingerprint", "stats",
}


class TestReport:
    def test_schema_is_stable(self):
        jobs = [Job(test=t, model=m) for t in battery(3) for m in ("promising", "axiomatic")]
        results = run_jobs(jobs)
        report = build_report(results, [], name="unit")
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert set(report) == REPORT_KEYS
        assert all(set(entry) == JOB_ENTRY_KEYS for entry in report["jobs"])
        assert report["ok"] is True and report["mismatches"] == []
        json.dumps(report)  # must be JSON-serializable as-is

    def test_sweep_writes_artifact(self, tmp_path):
        out = tmp_path / "report.json"
        run = sweep(battery(4), workers=2, cache=tmp_path / "cache", report_path=out)
        assert run.ok
        artifact = json.loads(out.read_text())
        assert artifact["n_jobs"] == 8
        assert artifact["cache"]["hit_rate"] == 0.0
        # Schema v4: a sweep report is a fuzz report.
        assert set(artifact["extra"]) == {"workers", "timeout_seconds", "fuzz"}
        assert artifact["extra"]["workers"] == 2
        fuzz = artifact["extra"]["fuzz"]
        assert fuzz["archs"] == ["ARM"] and fuzz["corpus_size"] == 4
        assert fuzz["families"] == ["MP"]

    def test_cli_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main([
            "sweep", "--max-tests", "4", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"), "--report", str(out),
            "--models", "promising,axiomatic",
        ])
        assert code == 0
        assert "cache hit rate" in capsys.readouterr().out
        artifact = json.loads(out.read_text())
        assert artifact["status_counts"] == {"ok": 8}
        assert artifact["mismatches"] == []

    def test_cli_catalogue_sweep_judges_flat_by_containment(self, tmp_path, capsys):
        # Flat lacking a relaxed outcome that promising allows (MP+fwd) is
        # the documented explained direction, not a mismatch, and Flat
        # invents no outcome anywhere in the catalogue.  Catalogue
        # descriptions name no family.
        out = tmp_path / "r.json"
        argv = ["sweep", "--catalogue", "--max-tests", "0", "--models", "promising,flat"]
        assert main(argv + ["--report", str(out)]) == 0
        artifact = json.loads(out.read_text())
        assert artifact["mismatches"] == []
        assert artifact["extra"]["fuzz"]["explained_differences"] == 1
        assert artifact["extra"]["fuzz"]["families"] == []
        assert "MP+fwd" not in capsys.readouterr().out

    def test_cli_sweep_runs_a_prefix_of_the_cycle_battery(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["sweep", "--max-tests", "5", "--models", "promising", "--report", str(out)]
        assert main(argv) == 0
        names = [job["name"] for job in json.loads(out.read_text())["jobs"]]
        assert names == [t.name for t in generate_cycle_battery()[:5]]

    def test_cli_sweep_rejects_unknown_model(self):
        assert main(["sweep", "--models", "bogus"]) == 2

    def test_truncated_runs_are_not_reported_as_mismatches(self):
        # A budget-capped exploration has an incomplete outcome set; it
        # must not be compared against a complete one as a disagreement.
        from repro.harness import differential_mismatches
        from repro.flat import FlatConfig

        test = get_test("MP")
        jobs = [
            Job(test=test, model="promising"),
            Job(test=test, model="flat", flat_config=FlatConfig(max_states=1)),
        ]
        results = run_jobs(jobs)
        assert results[1].stats["truncated"] is True
        assert set(results[0].outcomes) != set(results[1].outcomes)
        assert differential_mismatches(jobs, results) == ([], 0)

    def test_truncated_result_carries_a_warning_and_unverified_verdict(self):
        # A budget hit must not masquerade as a verified verdict: the
        # result is flagged, the expectation check abstains, and both the
        # per-job row and the report-level count carry the warning.  The
        # cases: a max_states hit, and certification fuel running out
        # inside the naive explorer's per-step checks (with one unit of
        # fuel it finds only 3 of LB's 4 outcomes and answers forbidden).
        cases = [
            ("MP", "promising", ExploreConfig(max_states=1)),
            ("LB", "promising-naive", ExploreConfig(cert_fuel=1)),
        ]
        for name, model, config in cases:
            test = get_test(name)
            job = Job(test=test, model=model, explore_config=config)
            result = execute_job(job)
            assert result.ok and result.truncated, name
            assert result.warning and "truncated" in result.warning
            assert result.matches_expectation is None
            assert "[TRUNCATED]" in result.describe()
            # The fuel counters tell the two budgets apart.
            if config.cert_fuel == 1:
                assert result.stats["cert_fuel_hits"] > 0, name
                assert result.stats["max_cert_nodes"] >= 1, name
            else:
                assert result.stats["cert_fuel_hits"] == 0, name
            report = build_report([result], [])
            assert report["truncated_jobs"] == 1
            entry = report["jobs"][0]
            assert entry["truncated"] is True and entry["warning"]
            # An untruncated run of the same test stays clean.
            clean = execute_job(Job(test=test, model=model))
            assert not clean.truncated and clean.warning is None
            assert clean.matches_expectation is True

    def test_truncation_warning_reaches_sweep_describe(self):
        run = sweep([get_test("MP")], ("promising",), explore_config=ExploreConfig(max_states=1))
        assert run.report["truncated_jobs"] == 1
        assert "WARNING" in run.describe() and "truncated" in run.describe()

    def test_dedup_counters_are_aggregated_into_reports(self):
        jobs = [Job(test=t, model=m) for t in battery(2) for m in ("promising", "flat")]
        results = run_jobs(jobs)
        report = build_report(results, [])
        dedup = report["dedup"]
        assert dedup["cert_calls"] > 0
        assert dedup["dedup_hits"] >= 0 and dedup["interned_keys"] > 0
        # Both explorers' step memos are summed in.
        for counter in ("step_memo_hits", "step_memo_misses"):
            assert dedup[counter] == sum(r.stats[counter] for r in results) > 0
        # And the human rendering mentions the counters.
        from repro.harness import describe_dedup

        text = describe_dedup(report)
        assert "cert memo" in text and "interning" in text
        hits, misses = dedup["step_memo_hits"], dedup["step_memo_misses"]
        assert f"step memo: {hits}/{hits + misses} hits" in text

    def test_reports_count_each_computation_once(self):
        # MP's RISC-V jobs share the ARM jobs' fingerprints: computed once
        # and fanned out, so their seconds and memo counters count once.
        test = get_test("MP")
        models = ("promising", "flat")
        jobs = [Job(test=test, model=m, arch=a) for a in (Arch.ARM, Arch.RISCV) for m in models]
        results = run_jobs(jobs)
        arm = results[: len(models)]
        report = build_report(results, [])
        assert report["n_jobs"] == 4
        assert report["compute_seconds"] == sum(r.elapsed_seconds for r in arm)
        for counter, total in report["dedup"].items():
            assert total == sum(int(r.stats.get(counter) or 0) for r in arm), counter
        assert report["dedup"]["cert_calls"] > 0

    def test_outcome_digest_tracks_outcome_sets(self):
        from repro.harness import outcome_set_digest

        a = execute_job(Job(test=get_test("MP"), model="promising"))
        b = execute_job(Job(test=get_test("MP"), model="axiomatic"))
        c = execute_job(Job(test=get_test("SB"), model="promising"))
        assert outcome_set_digest(a.outcomes) == outcome_set_digest(b.outcomes)
        assert outcome_set_digest(a.outcomes) != outcome_set_digest(c.outcomes)
        assert outcome_set_digest(None) is None

    def test_distinct_tests_sharing_a_name_are_not_cross_compared(self):
        # The generated battery and the hand-written catalogue both contain
        # e.g. an LB+data+po; mismatch detection must group by test
        # content, not name, or it would compare different programs.
        generated = synthesize(
            next(c for c in get_family("LB").expand() if c.name == "LB+data+po")
        )
        catalogue = get_test("LB+data+po")
        assert generated is not catalogue
        run = sweep([generated, catalogue])
        assert run.ok, run.counterexamples


# ---------------------------------------------------------------------------
# Differential fuzzing
# ---------------------------------------------------------------------------


class TestFuzz:
    def _small_fuzz(self, **kwargs):
        from repro.harness import run_fuzz

        return run_fuzz(
            families=("MP",), max_tests=2,
            models=("promising", "axiomatic"), archs=(Arch.ARM,), **kwargs,
        )

    def test_agreeing_corpus_has_no_counterexamples(self, tmp_path):
        fuzz = self._small_fuzz(report_path=tmp_path / "fuzz.json")
        assert fuzz.ok
        assert fuzz.counterexamples == []
        info = fuzz.report["extra"]["fuzz"]
        assert info["corpus_size"] == 2 and info["families"] == ["MP"]
        assert json.loads((tmp_path / "fuzz.json").read_text())["mismatches"] == []

    def test_doctored_disagreement_is_a_counterexample_with_source(self):
        from repro.harness import build_fuzz_jobs, differential_mismatches
        from repro.litmus import generate_cycle_battery
        from repro.outcomes import OutcomeSet

        tests = generate_cycle_battery(families=("MP",), max_tests=2)
        jobs = build_fuzz_jobs(tests, ("promising", "axiomatic"), (Arch.ARM,))
        results = [execute_job(job) for job in jobs]
        outcomes = list(results[1].outcomes)
        results[1].outcomes = OutcomeSet(outcomes[:-1])  # drop one outcome
        counterexamples, _explained = differential_mismatches(jobs, results)
        assert len(counterexamples) == 1
        ce = counterexamples[0]
        assert ce["kind"] == "outcome-sets-differ"
        assert ce["models"] == ["promising", "axiomatic"]
        assert "cycle MP" in ce["source"] and "exists" in ce["source"]

    def test_flat_subset_policy(self):
        # Flat lacking a promising outcome is explained; flat inventing
        # one is a counterexample.
        from repro.harness import build_fuzz_jobs, differential_mismatches
        from repro.litmus import generate_cycle_battery
        from repro.outcomes import Outcome, OutcomeSet

        tests = generate_cycle_battery(families=("MP",), max_tests=1)
        jobs = build_fuzz_jobs(tests, ("promising", "flat"), (Arch.ARM,))
        results = [execute_job(job) for job in jobs]
        assert set(results[1].outcomes) <= set(results[0].outcomes)
        missing = OutcomeSet(list(results[1].outcomes)[:-1])
        results[1].outcomes = missing
        counterexamples, explained = differential_mismatches(jobs, results)
        assert counterexamples == [] and explained == 1
        invented = Outcome.make([{"r1": 9}, {"r1": 9, "r2": 9}], {})
        results[1].outcomes = OutcomeSet(list(missing) + [invented])
        counterexamples, _explained = differential_mismatches(jobs, results)
        assert [ce["kind"] for ce in counterexamples] == ["subset-violated"]

    def test_expected_verdict_mismatch_is_a_counterexample(self):
        # A single-model fuzz against an oracle-stamped corpus must still
        # fail loudly when the model contradicts the expectation.
        import dataclasses

        from repro.harness import build_fuzz_jobs, differential_mismatches
        from repro.litmus import generate_cycle_battery
        from repro.litmus.test import Verdict

        test = generate_cycle_battery(families=("CoRR",), max_tests=1)[0]
        # CoRR violates coherence: every model forbids it. Stamp the
        # opposite expectation to simulate a model/oracle disagreement.
        wrong = dataclasses.replace(test, expected={Arch.ARM: Verdict.ALLOWED})
        jobs = build_fuzz_jobs([wrong], ("promising",), (Arch.ARM,))
        results = [execute_job(job) for job in jobs]
        counterexamples, _explained = differential_mismatches(jobs, results)
        assert [ce["kind"] for ce in counterexamples] == ["expected-verdict-mismatch"]
        assert counterexamples[0]["models"] == ["promising", "expected"]

    def test_cli_fuzz_subcommand(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--families", "CoRR", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"), "--report", str(out),
            "--expected",
        ])
        assert code == 0
        assert "counterexamples: 0" in capsys.readouterr().out
        artifact = json.loads(out.read_text())
        assert artifact["extra"]["fuzz"]["families"] == ["CoRR"]
        assert artifact["mismatches"] == []
        # Every stamped expectation matched.
        assert all(job["matches_expectation"] for job in artifact["jobs"])

    def test_cli_fuzz_rejects_bad_arguments(self):
        for argv in (
            ["fuzz", "--models", "bogus"],
            ["fuzz", "--families", "NOPE"],
            ["fuzz", "--archs", "x86"],
            # Empty lists would run a vacuous 0-job battery.
            ["fuzz", "--models", ","],
            ["fuzz", "--archs", ","],
            ["sweep", "--models", ","],
            # Negative bounds would empty the battery or, as a slice,
            # silently drop its last test.
            ["fuzz", "--max-tests", "-1"],
            ["fuzz", "--max-per-family", "-1"],
            ["sweep", "--max-tests", "-1"],
            # NaN, infinite or non-positive seconds would run with no
            # deadline, or lease a queue item forever.
            ["fuzz", "--timeout", "nan"],
            ["fuzz", "--timeout", "-1"],
            ["fuzz", "--timeout", "0"],
            ["sweep", "--timeout", "inf"],
            ["fuzz", "--stall-timeout", "nan"],
            # Fleet flags without --distributed would be ignored.  The
            # fleet is external: --distributed needs the ledger it serves,
            # and no local worker would use --workers.
            ["sweep", "--backend-url", "q.db"],
            ["sweep", "--stall-timeout", "5"],
            ["sweep", "--distributed"],
            ["fuzz", "--distributed", "--stall-timeout", "5"],
            ["fuzz", "--distributed", "--workers", "2", "--backend-url", "q.db"],
            # A negative worker count would run the battery serially, and a
            # worker with no positive job budget exits having claimed nothing.
            ["sweep", "--workers", "-1"],
            ["fuzz", "--workers", "-1"],
            ["work", "--backend-url", "q.db", "--max-jobs", "0"],
            ["work", "--backend-url", "q.db", "--max-jobs", "-1"],
            ["serve", "--timeout", "0"],
            ["work", "--backend-url", "queue.db", "--lease-seconds", "nan"],
            # A worker would crash on its first idle sleep, or never exit.
            ["work", "--backend-url", "queue.db", "--poll-seconds", "-1"],
            ["work", "--backend-url", "queue.db", "--poll-seconds", "nan"],
            ["work", "--backend-url", "queue.db", "--idle-exit", "nan"],
            # Serve settings that crash at start-up, refuse every request,
            # or run inline while reporting -1 workers (the crashers first:
            # the others would start a server).
            ["serve", "--lru-capacity", "0"],
            ["serve", "--quota-tokens", "-1"],
            ["serve", "--quota-refill", "0"],
            ["serve", "--quota-tokens", "nan"],
            ["serve", "--max-pending-jobs", "-1"],
            ["serve", "--workers", "-1"],
            # A misspelt architecture must not silently run ARM.
            ["--arch", "rsicv", "run", "--test", "MP"],
            ["--arch", "x86", "sweep"],
            ["--arch", "nope", "catalogue"],
            # The verb is gone: ``sweep`` runs the same battery.
            ["agreement"],
            # So is the bfs strategy: dfs enumerates the same outcome sets.
            ["--strategy", "bfs", "run"],
            # Unrolling needs a bound of at least 1.
            ["--loop-bound", "0", "run", "--test", "MP"],
            ["--loop-bound", "-1", "run", "--file", "x.litmus"],
            # An unknown test is a usage error, not a KeyError traceback.
            ["run", "--test", "NOPE"],
            ["interactive", "--test", "NOPE"],
            # bind() overflows outside 0..65535.
            ["serve", "--port", "-1"],
            ["serve", "--port", "70000"],
        ):
            assert exit_code(argv) == 2, argv
        # A battery that checked nothing fails and says so.
        assert main(["fuzz", "--max-tests", "0"]) == 1
        assert main(["sweep", "--max-tests", "0"]) == 1

    def test_equal_but_distinct_test_objects_still_pair_up(self):
        # Grouping must be by content, not object identity: jobs built
        # from two separate battery generations (equal tests, distinct
        # objects) would otherwise compare nothing — a vacuous pass.
        from repro.harness import build_fuzz_jobs, differential_mismatches
        from repro.litmus import generate_cycle_battery
        from repro.outcomes import OutcomeSet

        first = generate_cycle_battery(families=("MP",), max_tests=1)
        second = generate_cycle_battery(families=("MP",), max_tests=1)
        assert first[0] is not second[0]
        jobs = build_fuzz_jobs(first, ("promising",), (Arch.ARM,)) + build_fuzz_jobs(
            second, ("axiomatic",), (Arch.ARM,)
        )
        results = [execute_job(job) for job in jobs]
        assert differential_mismatches(jobs, results) == ([], 0)
        results[1].outcomes = OutcomeSet(list(results[1].outcomes)[:-1])
        counterexamples, _explained = differential_mismatches(jobs, results)
        assert [ce["kind"] for ce in counterexamples] == ["outcome-sets-differ"]

    def test_all_timeouts_fail_the_battery(self):
        # A battery that never ran to completion proved nothing: it must
        # not report success just because no counterexample surfaced.
        # The deadline must expire before even the smallest warm-cache job
        # can finish (well under a millisecond now), so make it absurdly
        # small rather than merely small.
        fuzz = self._small_fuzz(timeout=1e-07)
        assert fuzz.report["status_counts"] == {STATUS_TIMEOUT: 4}
        assert fuzz.counterexamples == []
        assert not fuzz.ok
