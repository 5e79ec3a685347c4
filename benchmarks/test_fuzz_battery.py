"""Differential fuzzing battery — the scaled-up §7 agreement experiment.

The cycle generator synthesizes a corpus far larger than the hand-written
catalogue (hundreds of tests over MP/SB/LB/S/R/2+2W, the three-thread
WRC/ISA2/3.2W/3.LB shapes, the four-thread IRIW, and internal rf/fr
variants), and the differential harness cross-validates every model on it:

* the **full** corpus must show ``promising == axiomatic`` on both
  architectures (the paper's headline experimental-equivalence claim);
* a bounded slice additionally runs ``promising-naive`` (must equal
  promising) and ``flat`` (must stay a subset of promising);
* the JSON fuzz report artifact records corpus size, per-model timings,
  counterexample count, and the cache hit rate.
"""

from __future__ import annotations

import json

import pytest

from repro.harness import default_workers, run_fuzz
from repro.lang.kinds import Arch
from repro.litmus import attach_expected, generate_cycle_battery
from repro.litmus.test import Verdict

pytestmark = pytest.mark.bench

#: Bounded slice for the four-model comparison (promising-naive explodes
#: combinatorially, which is exactly what the ablation benchmark shows).
SLICE_SIZE = 48


def _workers() -> int:
    return min(8, default_workers())


def test_full_corpus_promising_equals_axiomatic(tmp_path, table_printer):
    """Every generated test agrees between promising and axiomatic, both archs."""
    corpus = generate_cycle_battery()
    assert len(corpus) >= 200, "corpus must stay ≥ 200 tests"
    families = {t.description.split(":")[0].removeprefix("cycle ") for t in corpus}
    assert len(families) >= 6, families

    fuzz = run_fuzz(
        corpus,
        ("promising", "axiomatic"),
        (Arch.ARM, Arch.RISCV),
        workers=_workers(),
        cache=tmp_path / "cache",
        report_path=tmp_path / "fuzz-full.json",
    )
    table_printer(
        "differential fuzz: full corpus, promising vs axiomatic",
        ["corpus", "jobs", "statuses", "counterexamples", "wall"],
        [[
            len(corpus),
            fuzz.report["n_jobs"],
            dict(fuzz.report["status_counts"]),
            len(fuzz.counterexamples),
            f"{fuzz.wall_seconds:.1f}s",
        ]],
    )
    assert fuzz.report["status_counts"] == {"ok": fuzz.report["n_jobs"]}
    assert fuzz.counterexamples == [], "\n".join(
        f"{ce['test']} [{ce['arch']}]: {ce['kind']}\n{ce['source']}"
        for ce in fuzz.counterexamples
    )


def test_all_models_bounded_slice(tmp_path, table_printer):
    """promising == promising-naive == axiomatic, flat ⊆ promising."""
    corpus = generate_cycle_battery(max_tests=SLICE_SIZE)
    fuzz = run_fuzz(
        corpus,
        ("promising", "promising-naive", "axiomatic", "flat"),
        (Arch.ARM, Arch.RISCV),
        workers=_workers(),
        cache=tmp_path / "cache",
    )
    table_printer(
        "differential fuzz: all models (bounded slice)",
        ["corpus", "jobs", "counterexamples", "flat-only explained", "wall"],
        [[
            len(corpus),
            fuzz.report["n_jobs"],
            len(fuzz.counterexamples),
            fuzz.explained_differences,
            f"{fuzz.wall_seconds:.1f}s",
        ]],
    )
    assert fuzz.ok, fuzz.describe()


def test_expected_verdicts_from_axiomatic_oracle(tmp_path):
    """attach_expected stamps the oracle verdict and the models match it."""
    corpus = attach_expected(
        generate_cycle_battery(max_tests=16),
        (Arch.ARM,),
        workers=_workers(),
        cache=tmp_path / "cache",
    )
    assert all(t.expected_verdict(Arch.ARM) is not None for t in corpus)
    # The derived conditions pin exactly the relaxed outcome, so the
    # weakest linkage of each family must be allowed and a battery this
    # size must contain both verdicts.
    verdicts = {t.expected_verdict(Arch.ARM) for t in corpus}
    assert verdicts == {Verdict.ALLOWED, Verdict.FORBIDDEN}

    fuzz = run_fuzz(
        corpus,
        ("promising",),
        (Arch.ARM,),
        workers=_workers(),
        cache=tmp_path / "cache",
    )
    assert all(r.matches_expectation for r in fuzz.results)


def test_fuzz_report_artifact(tmp_path):
    report_path = tmp_path / "fuzz.json"
    fuzz = run_fuzz(
        families=("MP", "CoRR"),
        models=("promising", "axiomatic"),
        workers=_workers(),
        cache=tmp_path / "cache",
        report_path=report_path,
    )
    artifact = json.loads(report_path.read_text())
    assert artifact["schema_version"] == fuzz.report["schema_version"]
    info = artifact["extra"]["fuzz"]
    assert info["corpus_size"] == len({j.test.name for j in fuzz.jobs})
    assert info["families"] == ["CoRR", "MP"]
    assert info["archs"] == ["ARM", "RISC-V"]
    assert set(info["model_seconds"]) == {"promising", "axiomatic"}
    assert info["counterexample_count"] == len(artifact["mismatches"])
    assert "store_failures" in artifact["cache"]
    # Warm rerun: everything recalled from the cache.
    warm = run_fuzz(
        families=("MP", "CoRR"),
        models=("promising", "axiomatic"),
        workers=_workers(),
        cache=tmp_path / "cache",
    )
    assert warm.report["cache"]["hit_rate"] == 1.0
