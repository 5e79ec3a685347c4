"""Experimental equivalence of the promising and axiomatic models.

The paper proves the two models equivalent in Coq (Theorems 6.1/6.2) and
additionally checks the executable tool against the axiomatic models on
thousands of litmus tests (§7).  These tests reproduce the experimental
check: on the catalogue and on a generated battery, the *projected outcome
sets* of the two implementations must coincide exactly — not just the
verdict of the named condition.
"""

import pytest

from repro.lang.kinds import Arch
from repro.litmus import all_tests, run_axiomatic, run_promising, synthesize
from repro.litmus.cycles import (
    LINKS_RR,
    LINKS_RW,
    LINKS_WW,
    READ,
    WRITE,
    Family,
    Fre,
    Rfe,
    Slot,
)

CATALOGUE = [t for t in all_tests() if t.program.n_threads <= 3]


def _outcomes_agree(test, arch):
    promising = run_promising(test, arch)
    axiomatic = run_axiomatic(test, arch)
    assert set(promising.outcomes) == set(axiomatic.outcomes), (
        f"{test.name} ({arch}): models disagree\n"
        f"promising only: {set(promising.outcomes) - set(axiomatic.outcomes)}\n"
        f"axiomatic only: {set(axiomatic.outcomes) - set(promising.outcomes)}"
    )


@pytest.mark.parametrize("test", CATALOGUE, ids=[t.name for t in CATALOGUE])
def test_catalogue_outcome_sets_agree_on_arm(test):
    _outcomes_agree(test, Arch.ARM)


@pytest.mark.parametrize("test", CATALOGUE, ids=[t.name for t in CATALOGUE])
def test_catalogue_outcome_sets_agree_on_riscv(test):
    _outcomes_agree(test, Arch.RISCV)


# Small cycle families over the first few linkages of each slot (the full
# battery runs in the benchmark harness; here we keep a deterministic, fast
# selection).
SLICE_FAMILIES = (
    Family(
        "MP",
        (Slot(WRITE, WRITE, links=LINKS_WW[:3]), Rfe, Slot(READ, READ, links=LINKS_RR[:5]), Fre),
    ),
    Family(
        "SB",
        (Slot(WRITE, READ, links=LINKS_WW[:3]), Fre, Slot(WRITE, READ, links=LINKS_WW[:3]), Fre),
    ),
    Family(
        "LB",
        (Slot(READ, WRITE, links=LINKS_RW[:4]), Rfe, Slot(READ, WRITE, links=LINKS_RW[:4]), Rfe),
    ),
)
GENERATED = [synthesize(cycle) for family in SLICE_FAMILIES for cycle in family.expand()]


@pytest.mark.parametrize("test", GENERATED, ids=[t.name for t in GENERATED])
def test_generated_battery_agreement_on_arm(test):
    _outcomes_agree(test, Arch.ARM)
