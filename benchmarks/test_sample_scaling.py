"""Random-walk sampling vs. exhaustive enumeration on a blown-up workload.

The PR 5 capability claim: on state spaces where exhaustive exploration
*truncates* (its ``max_states`` budget trips long before the frontier is
exhausted), the ``sample`` strategy — N seeded bounded random walks with
restart — still returns a verdict-relevant outcome set, finding distinct
outcomes at a higher rate (outcomes per second) than the truncated run.

The workload is the 3-thread C++-style CAS spinlock (``SLC``) protecting
a shared counter: its interleaved state space under the Flat and naive
promising explorers explodes far past any reasonable budget, while a
single random schedule runs to completion in a few hundred steps.  Every
sampled outcome is a genuinely reachable execution, so each one is
checked against the workload's mutual-exclusion safety condition — a
violation would be a real bug, which is exactly what statistical
litmus-style running is for.

Because the walks are seeded, a run with more samples replays the same
walk prefix: the outcome sets at 8/32/128 samples form a chain, so
coverage is monotone in the number of samples.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.flat import FlatConfig
from repro.harness import Job, execute_job
from repro.promising import ExploreConfig
from repro.workloads.spinlock import spinlock_cxx

pytestmark = pytest.mark.bench

#: The blown-up workload: 3 threads contending on one CAS spinlock.
N_THREADS = 3
#: Exhaustive state budgets chosen so the truncation demonstrably trips
#: in seconds (the true state spaces are orders of magnitude larger —
#: at 100k states the flat explorer is still <5% done after ~25s).
FLAT_BUDGET = 25_000
NAIVE_BUDGET = 15_000
SAMPLE_COUNTS = (8, 32, 128)
SAMPLE_DEPTH = 512
SEED = 0

_rows: dict = {"exhaustive": [], "sample_runs": []}

#: Built once: the workload factory mints fresh scratch-register names per
#: construction, and every run here must execute the *same* program.
_WORKLOAD = spinlock_cxx(n_threads=N_THREADS, acquisitions=1)


def _workload():
    return _WORKLOAD


def _job(model: str, **search_kwargs) -> Job:
    workload = _workload()
    if model == "flat":
        kwargs = {"flat_config": FlatConfig(**search_kwargs)}
    else:
        kwargs = {"explore_config": ExploreConfig(**search_kwargs)}
    return Job.for_program(workload.program, model, **kwargs)


def _violations(outcomes) -> int:
    condition = _workload().condition
    return sum(0 if condition(outcome) else 1 for outcome in outcomes)


@pytest.mark.parametrize(
    "model,budget",
    [("flat", FLAT_BUDGET), ("promising-naive", NAIVE_BUDGET)],
    ids=["flat", "promising-naive"],
)
def test_exhaustive_truncates(model, budget):
    start = time.perf_counter()
    result = execute_job(_job(model, max_states=budget), timeout=120)
    elapsed = time.perf_counter() - start
    assert result.ok, result.error
    assert result.truncated, (
        f"{model} finished within {budget} states — raise N_THREADS or "
        "lower the budget so the benchmark keeps demonstrating truncation"
    )
    assert _violations(result.outcomes) == 0
    _rows["exhaustive"].append(
        {
            "model": model,
            "max_states": budget,
            "n_outcomes": len(result.outcomes),
            "elapsed_seconds": round(elapsed, 3),
        }
    )


def _sample_row(model: str, samples: int) -> dict:
    start = time.perf_counter()
    result = execute_job(
        _job(
            model,
            strategy="sample",
            samples=samples,
            sample_depth=SAMPLE_DEPTH,
            seed=SEED,
        ),
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert result.ok, result.error
    assert not result.truncated and result.sampled
    assert len(result.outcomes) >= 1, "a sampled run must produce outcomes"
    violations = _violations(result.outcomes)
    assert violations == 0, "mutual exclusion violated — a real model bug"
    return {
        "model": model,
        "samples": samples,
        "n_outcomes": len(result.outcomes),
        "coverage_estimate": result.stats["coverage_estimate"],
        "elapsed_seconds": round(elapsed, 3),
        "outcome_digests": sorted(
            json.dumps(
                {"registers": list(o.registers), "memory": list(o.memory)},
                sort_keys=True,
                default=list,
            )
            for o in result.outcomes
        ),
    }


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_flat_sample_scaling(samples):
    _rows["sample_runs"].append(_sample_row("flat", samples))


def test_naive_sample():
    _rows["sample_runs"].append(_sample_row("promising-naive", SAMPLE_COUNTS[1]))


def test_sampling_claims(table_printer):
    assert _rows["exhaustive"] and _rows["sample_runs"], "runs must execute first"
    flat_runs = sorted(
        (r for r in _rows["sample_runs"] if r["model"] == "flat"),
        key=lambda r: r["samples"],
    )
    # Seeded walks replay as a prefix: more samples ⇒ a superset of
    # outcomes, which makes the coverage curve monotone.
    for smaller, larger in zip(flat_runs, flat_runs[1:]):
        assert set(smaller["outcome_digests"]) <= set(larger["outcome_digests"])

    # Every walk batch (outcomes found, 0 violations, asserted per row
    # above) finds more distinct outcomes per second than its model's
    # truncated exhaustive run.  Wall time alone is no claim: a cheap
    # exhaustive step can hit the state budget sooner than the walks end.
    def outcomes_per_second(row: dict) -> float:
        return row["n_outcomes"] / max(row["elapsed_seconds"], 1e-3)

    by_model = {r["model"]: r for r in _rows["exhaustive"]}
    less_productive = [
        (row["model"], row["samples"])
        for row in _rows["sample_runs"]
        if outcomes_per_second(row) <= outcomes_per_second(by_model[row["model"]])
    ]
    assert not less_productive, less_productive

    exhaustive_cells = [
        [
            r["model"],
            f"exhaustive({r['max_states']}) TRUNCATED",
            r["n_outcomes"],
            "-",
            f"{r['elapsed_seconds']:.1f}s",
        ]
        for r in _rows["exhaustive"]
    ]
    sample_cells = [
        [
            r["model"],
            f"sample(n={r['samples']})",
            r["n_outcomes"],
            r["coverage_estimate"],
            f"{r['elapsed_seconds']:.1f}s",
        ]
        for r in _rows["sample_runs"]
    ]
    table_printer(
        "sample vs exhaustive (3-thread CAS spinlock)",
        ["model", "mode", "outcomes", "coverage est.", "time"],
        exhaustive_cells + sample_cells,
    )
