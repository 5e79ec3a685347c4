"""The unified search kernel and its two strategies.

Pins the kernel's contract:

* the kernel itself — frontier discipline, dedup accounting, state and
  wall-clock budgets, truncation flags — on a toy graph;
* ``sample`` is a *sound under-approximation*: over a randomized corpus
  slice on both architectures, every sampled outcome appears in the
  exhaustive set (property test), and a fixed seed reproduces the exact
  same outcome set (determinism test);
* sampled results are never authoritative: fingerprints (and hence the
  persistent/LRU caches) key strategy + sampling budget, the fuzz policy
  compares them by containment only, and verdict checks abstain on a
  sampled ``forbidden``.
"""

import dataclasses
import random

import pytest

from repro.explore import STRATEGIES, BaseSearchConfig, SearchKernel
from repro.flat import FlatConfig, explore_flat
from repro.harness import (
    Job,
    LruResultCache,
    ResultCache,
    differential_mismatches,
    execute_job,
)
from repro.lang.kinds import Arch
from repro.litmus import generate_cycle_battery, get_test, run_promising
from repro.litmus.test import Verdict
from repro.outcomes import Outcome, OutcomeSet
from repro.promising import ExploreConfig, explore, explore_naive


def corpus_sample(count=6, seed=11):
    """Deterministic random sample of small cycle-corpus tests."""
    tests = generate_cycle_battery(
        families=("MP", "SB", "LB", "S", "R", "2+2W", "WRC", "CoRR"),
        max_per_family=5,
    )
    return random.Random(seed).sample(tests, count)


# ---------------------------------------------------------------------------
# Kernel mechanics on a toy graph
# ---------------------------------------------------------------------------


def _binary_tree(depth):
    """Successors of a toy binary tree of the given depth, with a sink."""

    def successors(node):
        if len(node) >= depth:
            return []
        return [node + (0,), node + (1,)]

    return successors


class TestSearchKernel:
    def test_dfs_visits_the_whole_tree_once(self):
        kernel = SearchKernel(_binary_tree(3), BaseSearchConfig(max_states=1000))
        kernel.run([()])
        # 1 + 2 + 4 + 8 nodes, every edge taken, nothing deduplicated.
        assert kernel.stats.states == 15
        assert kernel.stats.transitions == 14
        assert kernel.stats.dedup_hits == 0
        assert not kernel.stats.truncated

    def test_dedup_prunes_reconverging_paths(self):
        # A diamond: two paths reconverge on the same node.
        graph = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
        kernel = SearchKernel(graph.__getitem__, BaseSearchConfig(max_states=1000))
        kernel.run(["a"])
        assert kernel.stats.states == 4  # d expanded once
        assert kernel.stats.dedup_hits == 1

    def test_max_states_budget_marks_truncated(self):
        kernel = SearchKernel(_binary_tree(10), BaseSearchConfig(max_states=5))
        kernel.run([()])
        assert kernel.stats.truncated
        assert kernel.stats.states == 6  # the budget-tripping pop is counted

    def test_deadline_marks_truncated_and_deadline_hit(self):
        config = BaseSearchConfig(max_states=10**6, deadline_seconds=0.0)
        kernel = SearchKernel(_binary_tree(10), config)
        kernel.run([()])
        assert kernel.stats.truncated and kernel.stats.deadline_hit

    def test_sample_walks_are_seeded_and_counted(self):
        config = BaseSearchConfig(
            strategy="sample", samples=7, sample_depth=100, seed=42, max_states=10**6
        )
        kernel = SearchKernel(_binary_tree(4), config)
        kernel.run([()])
        assert kernel.stats.samples_run == 7
        assert kernel.stats.sample_steps == 7 * 4  # every walk reaches a leaf
        assert 0 < kernel.stats.coverage_estimate <= 1.0
        # Sampling must not prune: no visited set is consulted.
        assert kernel.stats.dedup_hits == 0

    def test_sample_depth_bound_abandons_walks(self):
        def endless(node):
            return [node + 1]

        config = BaseSearchConfig(
            strategy="sample", samples=3, sample_depth=5, seed=0, max_states=10**6
        )
        kernel = SearchKernel(endless, config)
        kernel.run([0])
        assert kernel.stats.sample_depth_hits == 3
        # Abandoned walks are not "completed": samples_run must not count
        # them, or a run whose every walk died at the depth bound would
        # report itself as fully executed.
        assert kernel.stats.samples_run == 0

    def test_strategy_registry(self):
        assert set(STRATEGIES) == {"dfs", "sample"}
        assert BaseSearchConfig().exhaustive
        assert not BaseSearchConfig(strategy="sample").exhaustive
        # A bad strategy or walk budget is refused when the config is
        # built, before any search starts.
        with pytest.raises(ValueError):
            BaseSearchConfig(strategy="montecarlo")
        with pytest.raises(ValueError):
            BaseSearchConfig(strategy="sample", samples=0)
        with pytest.raises(ValueError):
            ExploreConfig(strategy="sample", sample_depth=0)
        with pytest.raises(ValueError):
            dataclasses.replace(FlatConfig(), strategy="bfs")
        # dfs never reads the walk budget.
        assert BaseSearchConfig(samples=0, sample_depth=0).exhaustive


# ---------------------------------------------------------------------------
# Strategy properties on the real explorers
# ---------------------------------------------------------------------------


SAMPLE = dict(strategy="sample", samples=48, sample_depth=512)


class TestSampleSoundness:
    """sample ⊆ exhaustive, per explorer, both architectures, fixed seeds."""

    @pytest.mark.parametrize("arch", [Arch.ARM, Arch.RISCV], ids=lambda a: a.value)
    @pytest.mark.parametrize("test", corpus_sample(), ids=lambda t: t.name)
    def test_promising_sample_subset_of_exhaustive(self, test, arch):
        locs = tuple(test.observable_locations())
        full = explore(test.program, ExploreConfig(arch=arch, shared_locations=locs))
        sampled = explore(
            test.program,
            ExploreConfig(arch=arch, shared_locations=locs, seed=13, **SAMPLE),
        )
        assert set(sampled.outcomes) <= set(full.outcomes), test.name
        assert sampled.stats.sampled and sampled.stats.strategy == "sample"
        assert sampled.stats.samples_run > 0
        assert sampled.stats.coverage_estimate is not None

    @pytest.mark.parametrize("test", corpus_sample(count=3, seed=7), ids=lambda t: t.name)
    def test_naive_sample_subset_of_exhaustive(self, test):
        locs = tuple(test.observable_locations())
        full = explore_naive(test.program, ExploreConfig(shared_locations=locs))
        sampled = explore_naive(
            test.program, ExploreConfig(shared_locations=locs, seed=5, **SAMPLE)
        )
        assert set(sampled.outcomes) <= set(full.outcomes), test.name

    @pytest.mark.parametrize("name", ["MP", "SB", "LB", "CoRR"])
    def test_flat_sample_subset_of_exhaustive(self, name):
        test = get_test(name)
        full = explore_flat(test.program, FlatConfig())
        sampled = explore_flat(test.program, FlatConfig(seed=23, **SAMPLE))
        assert set(sampled.outcomes) <= set(full.outcomes), name

    @pytest.mark.parametrize("arch", [Arch.ARM, Arch.RISCV], ids=lambda a: a.value)
    @pytest.mark.parametrize("test", corpus_sample(count=3, seed=19), ids=lambda t: t.name)
    def test_same_seed_reproduces_the_outcome_set(self, test, arch):
        locs = tuple(test.observable_locations())
        config = ExploreConfig(arch=arch, shared_locations=locs, seed=99, **SAMPLE)
        first = explore(test.program, config)
        second = explore(test.program, config)
        assert set(first.outcomes) == set(second.outcomes)
        assert first.stats.samples_run == second.stats.samples_run
        assert first.stats.sample_steps == second.stats.sample_steps
        assert first.stats.unique_sample_states == second.stats.unique_sample_states


# ---------------------------------------------------------------------------
# Seeded walks replay across versions
# ---------------------------------------------------------------------------

#: ``test/model/arch[/field=value]`` -> ``(outcome digest, samples_run,
#: sample_steps, sample_depth_hits, unique_sample_states,
#: coverage_estimate, states, transitions)`` of a 16-walk, depth-64,
#: seed-5 ``sample`` run (the optional ``field=value`` overrides one
#: config field), recorded before the strategy classes were folded into
#: the kernel.  Holds the kernel's own order of ``rng`` calls (and its
#: walk accounting) fixed, which comparing two runs of the same build
#: cannot do.  ``unique_sample_states`` counts distinct packed states,
#: and a packed state names a memory by its footprint memories and final
#: values: on 2+2W, where nobody loads, states whose memories differ only
#: in the order of writes that leave the same final values count once.
#: So its two promising rows read fewer distinct states, and a lower
#: coverage estimate, than when a state named its full memory; the walks
#: themselves are unchanged.
SEEDED_WALKS = {
    "MP/promising/arm": ("2a68ac11e4e0be3b", 16, 32, 0, 5, 0.104167, 48, 48),
    "MP/promising-naive/arm": ("2a68ac11e4e0be3b", 16, 84, 0, 34, 0.34, 100, 246),
    "MP/flat/arm": ("2a68ac11e4e0be3b", 16, 128, 0, 47, 0.326389, 144, 295),
    "SB/promising/arm": ("e77bf89a00539702", 16, 32, 0, 5, 0.104167, 48, 48),
    "SB/promising-naive/arm": ("e77bf89a00539702", 16, 80, 0, 33, 0.34375, 96, 228),
    "SB/flat/arm": ("e77bf89a00539702", 16, 128, 0, 47, 0.326389, 144, 295),
    "MP+dmb+addr/promising/arm": ("01231587ee0286aa", 16, 32, 0, 3, 0.0625, 48, 32),
    "MP+dmb+addr/promising-naive/arm": ("01231587ee0286aa", 16, 103, 0, 33, 0.277311, 119, 256),
    "MP+dmb+addr/flat/arm": ("01231587ee0286aa", 16, 160, 0, 53, 0.301136, 176, 354),
    "2+2W/promising/arm": ("9dc88857a34913b0", 16, 64, 0, 33, 0.4125, 80, 160),
    "2+2W/promising-naive/arm": ("9dc88857a34913b0", 16, 101, 0, 63, 0.538462, 117, 348),
    "2+2W/flat/arm": ("9dc88857a34913b0", 16, 128, 0, 47, 0.326389, 144, 295),
    "MP/promising/riscv": ("2a68ac11e4e0be3b", 16, 32, 0, 5, 0.104167, 48, 48),
    "MP/promising-naive/riscv": ("2a68ac11e4e0be3b", 16, 84, 0, 34, 0.34, 100, 246),
    "MP/flat/riscv": ("2a68ac11e4e0be3b", 16, 128, 0, 47, 0.326389, 144, 295),
    # Every walk abandoned at the depth bound: no outcome, no walk run.
    "SB/promising-naive/arm/sample_depth=3": ("e3b0c44298fc1c14", 0, 48, 16, 13, 0.270833, 48, 156),
    # The state budget cuts the run short mid-walk.
    "MP/flat/arm/max_states=20": ("c0997f0da2d45aa6", 2, 18, 0, 17, 0.809524, 21, 41),
    "2+2W/promising/arm/max_states=20": ("1fc77cbf4e1f941d", 4, 16, 0, 16, 0.761905, 21, 40),
}


@pytest.mark.parametrize("key", list(SEEDED_WALKS))
def test_seeded_walk_replays_its_recorded_trace(key):
    from repro.harness.report import outcome_set_digest

    name, model, arch, *overrides = key.split("/")
    fields = dict(strategy="sample", samples=16, sample_depth=64, seed=5)
    for override in overrides:
        field, value = override.split("=")
        fields[field] = int(value)
    job = Job(
        test=get_test(name),
        model=model,
        arch=Arch.ARM if arch == "arm" else Arch.RISCV,
        explore_config=None if model == "flat" else ExploreConfig(**fields),
        flat_config=FlatConfig(**fields) if model == "flat" else None,
    )
    result = execute_job(job, capture_errors=False)
    stats = result.stats
    prefix = "" if model == "flat" else "promise_"
    observed = (
        outcome_set_digest(result.outcomes),
        stats["samples_run"],
        stats["sample_steps"],
        stats["sample_depth_hits"],
        stats["unique_sample_states"],
        stats["coverage_estimate"],
        stats[prefix + "states"],
        stats[prefix + "transitions"],
    )
    assert observed == SEEDED_WALKS[key]
    assert stats["truncated"] is ("max_states" in fields)


# ---------------------------------------------------------------------------
# Sampled results through the harness: caching, reports, fuzz policy
# ---------------------------------------------------------------------------


def _jobs_for(test, *, sample_seed=1):
    exhaustive = Job(test=test, model="promising")
    sampled = Job(
        test=test,
        model="promising",
        explore_config=ExploreConfig(seed=sample_seed, **SAMPLE),
    )
    return exhaustive, sampled


class TestSampledRunsAreNeverAuthoritative:
    def test_fingerprints_key_strategy_and_sampling_budget(self):
        test = get_test("MP")
        exhaustive, sampled = _jobs_for(test)
        assert exhaustive.fingerprint() != sampled.fingerprint()
        # A different sample budget (or seed) is a different result.
        _, other_budget = _jobs_for(test)
        other_budget = dataclasses.replace(
            other_budget,
            explore_config=ExploreConfig(strategy="sample", samples=7, seed=1),
        )
        assert sampled.fingerprint() != other_budget.fingerprint()
        _, other_seed = _jobs_for(test, sample_seed=2)
        assert sampled.fingerprint() != other_seed.fingerprint()

    def test_persistent_cache_never_serves_a_sample_for_an_exhaustive_job(self, tmp_path):
        test = get_test("MP")
        exhaustive, sampled = _jobs_for(test)
        cache = ResultCache(tmp_path)
        sampled_result = execute_job(sampled)
        assert cache.put(sampled, sampled_result)
        assert cache.get(exhaustive) is None  # different fingerprint: miss
        recalled = cache.get(sampled)
        assert recalled is not None and recalled.sampled

    def test_lru_cache_never_serves_a_sample_for_an_exhaustive_job(self):
        test = get_test("MP")
        exhaustive, sampled = _jobs_for(test)
        lru = LruResultCache(capacity=8)
        lru.put(sampled, execute_job(sampled))
        assert lru.get(exhaustive) is None
        assert lru.get(sampled) is not None

    def test_job_result_flags_and_warning(self):
        test = get_test("MP")
        _, sampled = _jobs_for(test)
        result = execute_job(sampled)
        assert result.ok and result.sampled and result.strategy == "sample"
        assert "under-approximation" in result.warning

    def test_sampled_forbidden_verdict_abstains(self):
        # MP's relaxed outcome is reachable; a sample that misses it must
        # not be scored against the expected verdict.  The single-test
        # runner returns the same JobResult, so it abstains the same way:
        # two one-step walks miss the witness and answer 'forbidden'.
        test = get_test("MP")
        sparse = ExploreConfig(strategy="sample", samples=2, sample_depth=1, seed=1)
        runner_result = run_promising(test, config=sparse)
        assert runner_result.verdict is Verdict.FORBIDDEN
        assert "[SAMPLED]" in runner_result.describe()
        for result in (execute_job(_jobs_for(test)[1]), runner_result):
            if result.verdict is Verdict.ALLOWED:
                assert result.matches_expectation is (result.expected is Verdict.ALLOWED)
            else:
                assert result.matches_expectation is None


class TestSampledComparisonPolicy:
    def test_fuzz_compares_sampled_by_containment(self):
        test = get_test("MP")
        _, sampled = _jobs_for(test)
        axiomatic = Job(test=test, model="axiomatic")
        jobs = [sampled, axiomatic]
        results = [execute_job(j) for j in jobs]
        counterexamples, _explained = differential_mismatches(jobs, results)
        # sampled promising ⊆ axiomatic holds, so no counterexample even
        # if the sample missed outcomes (equality would flag that).
        assert counterexamples == []

    def test_fuzz_flags_sampled_outcomes_outside_the_exhaustive_set(self):
        test = get_test("MP")
        _, sampled = _jobs_for(test)
        axiomatic = Job(test=test, model="axiomatic")
        sampled_result = execute_job(sampled)
        invented = Outcome.make([{"r1": 77}, {"r2": 77}], {})
        tampered = dataclasses.replace(
            sampled_result,
            outcomes=OutcomeSet(list(sampled_result.outcomes) + [invented]),
        )
        counterexamples, _ = differential_mismatches(
            [sampled, axiomatic], [tampered, execute_job(axiomatic)]
        )
        assert [ce["kind"] for ce in counterexamples] == ["sampled-outcomes-not-contained"]

    def test_fuzz_skips_pairs_where_both_sides_sampled(self):
        test = get_test("MP")
        _, sampled = _jobs_for(test)
        naive_sampled = Job(
            test=test,
            model="promising-naive",
            explore_config=ExploreConfig(seed=4, **SAMPLE),
        )
        sampled_result = execute_job(sampled)
        invented = Outcome.make([{"r1": 88}, {"r2": 88}], {})
        tampered = dataclasses.replace(
            sampled_result,
            outcomes=OutcomeSet(list(sampled_result.outcomes) + [invented]),
        )
        counterexamples, _ = differential_mismatches(
            [sampled, naive_sampled], [tampered, execute_job(naive_sampled)]
        )
        assert counterexamples == []  # two under-approximations: no verdict

    def test_cli_rejects_out_of_range_sampling_flags(self):
        from repro.tools.cli import main

        for argv in (
            ["--strategy", "sample", "--samples", "0", "run", "--test", "MP"],
            ["--strategy", "sample", "--sample-depth", "-3", "run", "--test", "MP"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_cli_run_axiomatic_uses_containment_for_samples(self, capsys):
        from repro.tools.cli import main

        code = main(
            ["--strategy", "sample", "--samples", "2", "--sample-depth", "1",
             "--seed", "1", "run", "--test", "SB", "--axiomatic"]
        )
        out = capsys.readouterr().out
        assert code == 0
        # A sparse sample is a subset of the axiomatic set; the old
        # equality wording would report "DIFFER" here.
        assert "contained in axiomatic" in out and "DIFFER" not in out

    def test_report_rows_carry_strategy_fields(self):
        from repro.harness.report import job_entry

        test = get_test("MP")
        exhaustive, sampled = _jobs_for(test)
        row = job_entry(execute_job(sampled))
        assert row["strategy"] == "sample" and row["sampled"] is True
        assert row["samples"] > 0 and 0 < row["coverage_estimate"] <= 1.0
        row = job_entry(execute_job(exhaustive))
        assert row["strategy"] == "dfs" and row["sampled"] is False
        assert row["samples"] is None and row["coverage_estimate"] is None


class TestServiceStrategyOptions:
    def _service(self):
        from repro.service import ExplorationService, ServiceConfig

        return ExplorationService(ServiceConfig(workers=1))

    def test_normalize_threads_strategy_into_both_configs(self):
        service = self._service()
        request = service.normalize(
            {
                "test": "MP",
                "models": ["promising", "flat"],
                "options": {"strategy": "sample", "samples": 12, "sample_depth": 99, "seed": 7},
            }
        )
        for job in request.jobs:
            config = (
                job.effective_explore_config()
                if job.model == "promising"
                else job.effective_flat_config()
            )
            assert config.strategy == "sample"
            assert config.samples == 12 and config.seed == 7
            assert config.sample_depth == 99

    def test_normalize_rejects_bad_strategy_options(self):
        from repro.service import ServiceError

        service = self._service()
        for options in (
            {"strategy": "montecarlo"},
            {"strategy": "bfs"},
            {"samples": 0},
            {"samples": 10**9},
            {"samples": True},
            {"sample_depth": 0},
            {"sample_depth": True},
            {"seed": "abc"},
            {"seed": True},
        ):
            with pytest.raises(ServiceError):
                service.normalize({"test": "MP", "options": options})
