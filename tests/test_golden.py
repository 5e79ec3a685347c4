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
  its report against it.

A digest that moves is a semantic change, never a refactor: regenerate
the file only on purpose, and record the commit that did.
"""

import json
from pathlib import Path

import pytest

from repro.harness.jobs import MODELS, Job, execute_job
from repro.harness.report import outcome_set_digest
from repro.lang.kinds import Arch
from repro.litmus import all_tests

GOLDEN = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())
ARCHS = [Arch.ARM, Arch.RISCV]


@pytest.mark.parametrize("arch", ARCHS, ids=[a.value for a in ARCHS])
@pytest.mark.parametrize("model", MODELS)
def test_catalogue_matches_golden_digests(model, arch):
    actual = {}
    for test in all_tests():
        result = execute_job(Job(test=test, model=model, arch=arch), capture_errors=False)
        assert not result.truncated, test.name
        actual[f"{test.name}|{model}|{arch.value}"] = outcome_set_digest(result.outcomes)
    expected = {
        key: digest
        for key, digest in GOLDEN["catalogue"]["digests"].items()
        if key.split("|")[1:] == [model, arch.value]
    }
    assert actual.keys() == expected.keys()
    assert {key for key in actual if actual[key] != expected[key]} == set()


def test_golden_corpus_part_covers_the_exploring_models():
    # CI's fuzz-smoke job diffs against this part; it must stay populated.
    assert GOLDEN["backend"] == "object" and len(GOLDEN["commit"]) == 40
    corpus_models = {key.split("|")[1] for key in GOLDEN["fuzz_smoke"]["digests"]}
    assert corpus_models == {"promising", "promising-naive", "flat"}
