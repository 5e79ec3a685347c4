"""Frozen golden outcome digests: an oracle independent of today's code.

``tests/golden/digests.json`` was computed by the reference object-graph
backend (since deleted) at the commit the file records.  Each entry is a
report row's ``outcome_digest`` (the projected outcome set, hashed by
:func:`~repro.harness.report.outcome_set_digest`), keyed
``name|model|arch``:

* ``catalogue`` — every catalogue test under all four models on both
  architectures, recomputed here on every run;
* ``fuzz_smoke`` — the CI fuzz-smoke corpus
  (``generate_cycle_battery(max_per_family=4)``) under the three
  exploring models; too slow for tier-1, so CI's fuzz-smoke job diffs
  its report against it;
* ``sweep`` — 40 classic two-thread tests under promising and axiomatic
  on ARM, recomputed here.  Copied verbatim from an older sweep report
  written by the same object backend at the commit the section records;
  most of its tests appear in neither other section.  The tests are
  rebuilt from the cycle core by name: all 28 of the ``MP`` family plus
  12 from an ``SB`` skeleton whose W→R slots range over the W→W
  linkages (``dmb.st`` included, which the battery's ``SB`` family
  rightly leaves out).

A digest that moves is a semantic change, never a refactor: regenerate
the file only on purpose, and record the commit that did.  The Flat
catalogue entries of SB+rel+acq, MP+dmb+addr+coh, PPOAA and LSE-fwd-acq
(both architectures) were re-frozen by hand when Flat stopped admitting
outcomes the axiomatic oracle forbids; each now equals its test's
axiomatic digest.
"""

import json
from pathlib import Path

import pytest

from repro.harness.jobs import MODELS, Job, execute_job
from repro.harness.report import outcome_set_digest
from repro.lang.kinds import Arch
from repro.litmus import all_tests, synthesize
from repro.litmus.cycles import FAMILIES_BY_NAME, LINKS_WW, READ, WRITE, Family, Fre, Slot

GOLDEN = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())
ARCHS = [Arch.ARM, Arch.RISCV]


def _digests(tests, model, arch) -> dict:
    actual = {}
    for test in tests:
        result = execute_job(Job(test=test, model=model, arch=arch), capture_errors=False)
        assert not result.truncated, test.name
        actual[f"{test.name}|{model}|{arch.value}"] = outcome_set_digest(result.outcomes)
    return actual


def _golden(section: str, model: str, arch: Arch) -> dict:
    return {
        key: digest
        for key, digest in GOLDEN[section]["digests"].items()
        if key.split("|")[1:] == [model, arch.value]
    }


@pytest.mark.parametrize("arch", ARCHS, ids=[a.value for a in ARCHS])
@pytest.mark.parametrize("model", MODELS)
def test_catalogue_matches_golden_digests(model, arch):
    actual = _digests(all_tests(), model, arch)
    expected = _golden("catalogue", model, arch)
    assert actual.keys() == expected.keys()
    assert {key for key in actual if actual[key] != expected[key]} == set()


def _sweep_tests() -> list:
    """The tests the ``sweep`` section names, rebuilt from the cycle core."""
    sb = Family(
        "SB", (Slot(WRITE, READ, links=LINKS_WW), Fre, Slot(WRITE, READ, links=LINKS_WW), Fre)
    )
    names = {key.split("|")[0] for key in GOLDEN["sweep"]["digests"]}
    cycles = [*FAMILIES_BY_NAME["MP"].expand(), *sb.expand()]
    return [synthesize(cycle) for cycle in cycles if cycle.name in names]


@pytest.mark.parametrize("model", ["promising", "axiomatic"])
def test_sweep_battery_matches_golden_digests(model):
    actual = _digests(_sweep_tests(), model, Arch.ARM)
    expected = _golden("sweep", model, Arch.ARM)
    assert actual.keys() == expected.keys()
    assert {key for key in actual if actual[key] != expected[key]} == set()


def test_golden_corpus_part_covers_the_exploring_models():
    # CI's fuzz-smoke job diffs against this part; it must stay populated.
    assert GOLDEN["backend"] == "object" and len(GOLDEN["commit"]) == 40
    corpus_models = {key.split("|")[1] for key in GOLDEN["fuzz_smoke"]["digests"]}
    assert corpus_models == {"promising", "promising-naive", "flat"}
    sweep = GOLDEN["sweep"]
    assert sweep["backend"] == "object" and len(sweep["commit"]) == 40
    assert len(sweep["digests"]) == 80
