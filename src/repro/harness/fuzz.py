"""Running and judging a litmus battery across models and architectures.

This is the scaled-up §7 experiment and the one batch runner: the
``fuzz`` command pumps the cycle-generated corpus through every model
on both architectures, the ``sweep`` command does the same for the
generated battery (plus, optionally, the catalogue) on one
architecture, and both treat any disagreement as a counterexample.
The comparison policy is per model pair, because the models make
different promises:

* ``promising`` vs ``axiomatic`` — must produce **equal** projected
  outcome sets (the paper's equivalence theorem, checked experimentally);
* ``promising`` vs ``promising-naive`` — must be **equal** (the
  promise-first exploration strategy is a pure optimisation);
* ``flat`` vs ``promising`` — flat outcomes must be a **subset** of
  promising ones (Flat is the weaker operational reference; promising
  deliberately admits more relaxed behaviour, so flat-only outcomes are
  bugs while promising-only outcomes are explained differences).

Pairs involving a failed, timed-out, or truncated run are skipped (the
per-job status still lands in the report).  Runs produced by the
``sample`` strategy are sound *under-approximations* — every sampled
outcome is genuinely reachable — so a pair with exactly one sampled side
is checked for **containment** (sampled ⊆ exhaustive), never equality,
and a pair where both sides sampled proves nothing and is skipped.
Every counterexample carries the reproducing test source — the program
listing, the condition, and the originating cycle spec — so a mismatch
can be replayed in isolation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..axiomatic.model import AxiomaticConfig
from ..flat.explorer import FlatConfig
from ..lang.kinds import Arch
from ..obs.logging import get_logger, log_event
from ..obs.tracing import span
from ..promising.exhaustive import ExploreConfig

_log = get_logger("harness.fuzz")

if TYPE_CHECKING:  # litmus imports harness (runner); keep ours lazy.
    from ..distrib.coordinator import DistribConfig
    from ..litmus.test import LitmusTest
from .cache import ResultCache, open_cache
from .jobs import Job, JobResult
from .report import build_report, describe_dedup, distinct_computations, write_report
from .scheduler import BatchStats, run_jobs

#: Default model line-up of the differential battery.
FUZZ_MODELS = ("promising", "promising-naive", "axiomatic", "flat")

#: Model pairs whose projected outcome sets must be identical.
EQUALITY_PAIRS = (("promising", "axiomatic"), ("promising", "promising-naive"))

#: (subset, superset) pairs: the first model must not invent outcomes.
CONTAINMENT_PAIRS = (("flat", "promising"),)


def _comparable(result: Optional[JobResult]) -> bool:
    return (
        result is not None
        and result.ok
        and result.outcomes is not None
        and not result.stats.get("truncated")
    )


def _test_source(job: Job) -> str:
    """The reproducing source of a counterexample's test."""
    lines = [job.test.program.describe()]
    if job.test.description:
        lines.insert(0, job.test.description)
    lines.append(f"exists {job.test.condition!r}")
    return "\n".join(lines)


@dataclass
class FuzzResult:
    """Everything one battery run produced."""

    jobs: list[Job]
    results: list[JobResult]
    report: dict
    stats: BatchStats
    wall_seconds: float

    @property
    def counterexamples(self) -> list[dict]:
        return self.report["mismatches"]

    @property
    def explained_differences(self) -> int:
        return self.report["extra"]["fuzz"]["explained_differences"]

    @property
    def ok(self) -> bool:
        """At least one job ran, every job is ``ok``, no counterexample."""
        return self.report["ok"]

    def describe(self) -> str:
        fuzz = self.report["extra"]["fuzz"]
        statuses = ", ".join(
            f"{count} {status}"
            for status, count in sorted(self.report["status_counts"].items())
        )
        lines = [
            f"{self.report['name']}: {fuzz['corpus_size']} tests × "
            f"{'+'.join(fuzz['models'])} × {'+'.join(fuzz['archs'])}: "
            f"{self.report['n_jobs']} jobs ({statuses}) in {self.wall_seconds:.1f}s",
            f"  families: {', '.join(fuzz['families']) or '-'}",
            f"  cache hit rate {self.report['cache']['hit_rate'] * 100:.0f}%"
            + (
                f", {self.report['cache']['store_failures']} store failures"
                if self.report["cache"].get("store_failures")
                else ""
            ),
            "  " + describe_dedup(self.report),
            f"  counterexamples: {len(self.counterexamples)} (explained differences: "
            f"{fuzz['explained_differences']}, Flat lacking a promising outcome)",
        ]
        if not self.jobs:
            lines.append("  FAILED: the battery is empty — no job ran, nothing was checked")
        truncated = self.report.get("truncated_jobs", 0)
        if truncated:
            lines.append(
                f"  WARNING: {truncated} truncated job(s) skipped by every "
                "comparison — their verdicts are unverified"
            )
        sampled = self.report.get("sampled_jobs", 0)
        if sampled:
            lines.append(
                f"  note: {sampled} sampled job(s) compared by containment "
                "(sampled ⊆ exhaustive), never equality"
            )
        for ce in self.counterexamples:
            lines.append(
                f"  COUNTEREXAMPLE {ce['test']} [{ce['arch']}] "
                f"{ce['models'][0]} vs {ce['models'][1]} ({ce['kind']})"
            )
            lines.extend("    " + line for line in ce["source"].splitlines())
        return "\n".join(lines)


def differential_mismatches(
    jobs: Sequence[Job], results: Sequence[JobResult]
) -> tuple[list[dict], int]:
    """Policy-aware cross-model comparison.

    Returns the counterexample entries plus the count of *explained*
    differences (flat missing relaxed outcomes that promising admits).
    Besides the model-pair policies, any model contradicting a test's
    attached expected verdict (the axiomatic oracle, see
    :func:`repro.litmus.synth.attach_expected`) is a counterexample too —
    so a single-model fuzz against a stamped corpus still fails loudly.

    Grouping is by test *content* (program + condition), not by object
    identity or name: jobs built from equal-but-distinct test objects
    still pair up (identity grouping would silently compare nothing — a
    vacuous pass), while distinct programs sharing a name are never
    cross-compared.
    """
    from ..litmus.synth import canonical_fingerprint

    by_test: dict[tuple[str, str], dict[str, tuple[Job, JobResult]]] = {}
    for job, result in zip(jobs, results):
        key = (canonical_fingerprint(job.test), job.arch.value)
        by_test.setdefault(key, {})[job.model] = (job, result)

    counterexamples: list[dict] = []
    explained = 0
    for (_test_id, arch), group in by_test.items():
        def entry(models: tuple[str, str], kind: str, only_first: int, only_second: int, job: Job) -> dict:
            return {
                "test": job.test.name,
                "arch": arch,
                "models": list(models),
                "kind": kind,
                "only_first": only_first,
                "only_second": only_second,
                "source": _test_source(job),
            }

        for pair in EQUALITY_PAIRS:
            if pair[0] not in group or pair[1] not in group:
                continue
            (job_a, a), (_job_b, b) = group[pair[0]], group[pair[1]]
            if not (_comparable(a) and _comparable(b)):
                continue
            if a.sampled and b.sampled:
                # Two under-approximations constrain each other in
                # neither direction; nothing to check.
                continue
            set_a, set_b = set(a.outcomes), set(b.outcomes)
            if a.sampled or b.sampled:
                # Sampled outcomes are genuinely reachable, so they must
                # appear in the exhaustive side's set; equality is never
                # required of a sample.
                sampled_set, full_set = (set_a, set_b) if a.sampled else (set_b, set_a)
                if not sampled_set <= full_set:
                    counterexamples.append(
                        entry(pair, "sampled-outcomes-not-contained",
                              len(set_a - set_b), len(set_b - set_a), job_a)
                    )
            elif set_a != set_b:
                counterexamples.append(
                    entry(pair, "outcome-sets-differ",
                          len(set_a - set_b), len(set_b - set_a), job_a)
                )
        for sub_name, super_name in CONTAINMENT_PAIRS:
            if sub_name not in group or super_name not in group:
                continue
            (job_sub, sub), (_job_sup, sup) = group[sub_name], group[super_name]
            if not (_comparable(sub) and _comparable(sup)):
                continue
            if sup.sampled:
                # The superset side under-approximates: containment can
                # no longer be falsified soundly.
                continue
            sub_set, super_set = set(sub.outcomes), set(sup.outcomes)
            extra = sub_set - super_set
            if extra:
                # Valid even when ``sub`` sampled: sampled flat outcomes
                # are real flat outcomes and must still be ⊆ promising.
                counterexamples.append(
                    entry((sub_name, super_name), "subset-violated",
                          len(extra), len(super_set - sub_set), job_sub)
                )
            elif super_set - sub_set and not sub.sampled:
                explained += 1
        for model, (job, result) in sorted(group.items()):
            if not (_comparable(result) and result.matches_expectation is False):
                continue
            if model == "flat" and result.verdict.value == "forbidden":
                # Flat is intentionally weaker: missing a relaxed outcome
                # the oracle allows is the explained direction.  Only a
                # flat-*allowed* against an oracle-*forbidden* (invented
                # outcome) is a bug, and that also trips subset-violated.
                continue
            counterexamples.append(
                entry((model, "expected"), "expected-verdict-mismatch", 0, 0, job)
            )
    return counterexamples, explained


def build_fuzz_jobs(
    tests: Sequence[LitmusTest],
    models: Sequence[str] = FUZZ_MODELS,
    archs: Sequence[Arch] = (Arch.ARM, Arch.RISCV),
    *,
    explore_config: Optional[ExploreConfig] = None,
    axiomatic_config: Optional[AxiomaticConfig] = None,
    flat_config: Optional[FlatConfig] = None,
) -> list[Job]:
    """One job per test × model × architecture, grouped per test."""
    return [
        Job(
            test=test,
            model=model,
            arch=arch,
            explore_config=explore_config,
            axiomatic_config=axiomatic_config,
            flat_config=flat_config,
        )
        for test in tests
        for arch in archs
        for model in models
    ]


def run_fuzz(
    tests: Optional[Sequence[LitmusTest]] = None,
    models: Sequence[str] = FUZZ_MODELS,
    archs: Sequence[Arch] = (Arch.ARM, Arch.RISCV),
    *,
    families: Optional[Sequence[str]] = None,
    max_tests: Optional[int] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    report_path: Union[None, str, Path] = None,
    name: str = "fuzz-battery",
    explore_config: Optional[ExploreConfig] = None,
    axiomatic_config: Optional[AxiomaticConfig] = None,
    flat_config: Optional[FlatConfig] = None,
    distrib: Optional[DistribConfig] = None,
) -> FuzzResult:
    """Run the differential fuzzing battery and (optionally) write a report.

    With ``tests=None`` the corpus is the deterministic cycle-generated
    battery (optionally restricted to ``families`` and truncated to
    ``max_tests``).  All jobs — every architecture and model — go through
    the scheduler as one batch, so the worker pool stays saturated.  With
    ``distrib`` set the batch is enqueued instead on the ledger that an
    external fleet serves (``distrib.backend_url``), and ``workers`` is
    unused (recorded as ``None``); digests are bit-identical either way.
    """
    from ..litmus.synth import generate_cycle_battery

    if tests is None:
        tests = generate_cycle_battery(families=families, max_tests=max_tests)
    tests = list(tests)

    cache = open_cache(cache)
    jobs = build_fuzz_jobs(
        tests,
        models,
        archs,
        explore_config=explore_config,
        axiomatic_config=axiomatic_config,
        flat_config=flat_config,
    )
    # Only cycle-generated tests name a family ("cycle MP: po rfe ...");
    # catalogue descriptions are free text.
    families_of_corpus = sorted(
        {
            t.description.split(":")[0].removeprefix("cycle ")
            for t in tests
            if t.description.startswith("cycle ")
        }
    )
    local_workers = None if distrib is not None else workers
    log_event(
        _log, "fuzz started",
        fuzz=name, corpus_size=len(tests), n_jobs=len(jobs),
        families=families_of_corpus, models=sorted(set(models)),
        archs=[arch.value for arch in archs], workers=local_workers,
    )
    stats = BatchStats()
    distrib_info = None
    start = time.perf_counter()
    with span("fuzz", name=name, jobs=len(jobs)):
        if distrib is not None:
            from ..distrib.coordinator import run_distributed

            run = run_distributed(jobs, config=distrib, timeout=timeout, cache=cache, stats=stats)
            results, distrib_info = run.results, run.info
        else:
            results = run_jobs(jobs, workers=workers, timeout=timeout, cache=cache, stats=stats)
    wall = time.perf_counter() - start

    counterexamples, explained = differential_mismatches(jobs, results)
    model_seconds: dict[str, float] = {}
    for result in distinct_computations(results):
        model_seconds[result.model] = (
            model_seconds.get(result.model, 0.0) + result.elapsed_seconds
        )
    report = build_report(
        results,
        counterexamples,
        name=name,
        wall_seconds=wall,
        cache=cache,
        extra={
            "workers": local_workers,
            "timeout_seconds": timeout,
            **({"distrib": distrib_info} if distrib_info is not None else {}),
            "fuzz": {
                "corpus_size": len(tests),
                "families": families_of_corpus,
                "models": sorted(set(models)),
                "archs": [arch.value for arch in archs],
                "model_seconds": {m: round(s, 3) for m, s in sorted(model_seconds.items())},
                "explained_differences": explained,
                "counterexample_count": len(counterexamples),
            },
        },
    )
    if report_path is not None:
        write_report(report, report_path)
    log_event(
        _log, "fuzz finished",
        fuzz=name, n_jobs=len(jobs), seconds=round(wall, 3),
        statuses=dict(stats.statuses), counterexamples=len(counterexamples),
        explained_differences=explained,
    )
    return FuzzResult(jobs=jobs, results=results, report=report, stats=stats, wall_seconds=wall)


__all__ = [
    "FUZZ_MODELS",
    "EQUALITY_PAIRS",
    "CONTAINMENT_PAIRS",
    "FuzzResult",
    "differential_mismatches",
    "build_fuzz_jobs",
    "run_fuzz",
]
