"""Tests for the cycle-based litmus generator (cycles + synth).

Pinned guarantees: cycle validation catches malformed specifications, the
same cycle spec always synthesizes a byte-identical test, the generated
battery is duplicate-free by canonical fingerprint, truncation is a
deterministic prefix, and the derived programs/conditions of the classic
shapes are exactly the known litmus forms.
"""

import pytest

from repro.lang.kinds import Arch
from repro.litmus import run_axiomatic, run_promising
from repro.litmus.cycles import (
    Coe,
    Cycle,
    CycleError,
    Edge,
    FAMILIES,
    Fre,
    LINKS_RR,
    LINKS_RW,
    LINKS_WW,
    Linkage,
    READ,
    Rfe,
    Rfi,
    WRITE,
    get_family,
    links_for,
    po,
)
from repro.litmus.synth import (
    attach_expected,
    canonical_fingerprint,
    generate_cycle_battery,
    synthesize,
)
from repro.litmus.test import Verdict


# ---------------------------------------------------------------------------
# Cycle validation
# ---------------------------------------------------------------------------


class TestCycleValidation:
    def test_direction_chain_must_close(self):
        # rfe ends in R but coe starts in W.
        with pytest.raises(CycleError, match="ends in"):
            Cycle("bad", (Rfe, Coe))

    def test_comm_edge_directions_are_fixed(self):
        with pytest.raises(CycleError, match="rf edges"):
            Edge("rf", READ, WRITE, external=True)

    def test_needs_two_external_edges(self):
        # rfi ; fri chains correctly but never leaves thread 0.
        from repro.litmus.cycles import Fri

        with pytest.raises(CycleError, match="external"):
            Cycle("bad", (Rfi, Fri))

    def test_wrap_edge_must_be_external(self):
        with pytest.raises(CycleError, match="wrap-around"):
            Cycle("bad", (Rfe, Fre, po(WRITE, WRITE)))

    def test_single_location_change_cannot_close(self):
        with pytest.raises(CycleError, match="location change"):
            Cycle(
                "bad",
                (po(WRITE, READ), Fre, po(WRITE, READ, same_loc=True), Fre),
            )

    def test_links_for_covers_all_direction_pairs(self):
        assert links_for(READ, READ) == LINKS_RR
        assert links_for(READ, WRITE) == LINKS_RW
        assert links_for(WRITE, WRITE) == LINKS_WW
        assert all(l.name in ("po", "dmb.sy") for l in links_for(WRITE, READ))

    def test_unknown_family_is_rejected(self):
        with pytest.raises(CycleError, match="unknown cycle family"):
            get_family("nosuch")

    def test_co_closed_single_location_cycle_is_rejected(self):
        # CoWW: W —coe→ W —coe→ back demands a cyclic coherence order; no
        # final state can witness it, so synthesis must refuse rather
        # than emit a test whose condition answers a different question.
        with pytest.raises(CycleError, match="cyclic coherence"):
            synthesize(Cycle("CoWW", (Coe, Coe)))

    def test_contradictory_rf_fr_read_is_rejected(self):
        # A read forced to return both its rf source's value and the
        # value coherence-before its fr target cannot be pinned when the
        # two differ: W(1) —coi→ W(2) —rfe→ R —fre→ back to the first
        # write asks the read for 2 (rf) and 0 (fr) at once.
        from repro.litmus.cycles import Coi

        with pytest.raises(CycleError, match="contradict"):
            synthesize(Cycle("CoRW2-ish", (Coi, Rfe, Fre)))


# ---------------------------------------------------------------------------
# Synthesis: classic shapes come out exactly right
# ---------------------------------------------------------------------------


class TestSynthesis:
    def test_mp_shape(self):
        test = synthesize(Cycle("MP+po+po", (po(WRITE, WRITE), Rfe, po(READ, READ), Fre)))
        assert test.program.n_threads == 2
        assert repr(test.condition) == "1:r1=1 /\\ 1:r2=0"

    def test_same_cycle_synthesizes_byte_identical_tests(self):
        cycle = Cycle(
            "ISA2+dmb.sy+data+addr",
            (
                po(WRITE, WRITE, Linkage("dmb.sy", barrier=LINKS_WW[1].barrier)),
                Rfe,
                po(READ, WRITE, Linkage("data", data=True)),
                Rfe,
                po(READ, READ, Linkage("addr", addr=True)),
                Fre,
            ),
        )
        a, b = synthesize(cycle), synthesize(cycle)
        assert repr(a.program.threads) == repr(b.program.threads)
        assert dict(a.program.initial) == dict(b.program.initial)
        assert a.condition.canonical() == b.condition.canonical()
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_coherence_order_and_final_memory(self):
        # 2+2W: both locations have two writes; the condition pins the
        # coherence-final value of each.
        test = synthesize(Cycle("2+2W", (po(WRITE, WRITE), Coe, po(WRITE, WRITE), Coe)))
        assert repr(test.condition) == "x=2 /\\ y=2"

    def test_internal_rf_reads_forwarded_value(self):
        test = synthesize(Cycle("SB-RFI", (Rfi, po(READ, READ), Fre, Rfi, po(READ, READ), Fre)))
        # Both rfi reads must see their own thread's write, both fre reads
        # the coherence predecessor (the initial value).
        assert repr(test.condition) == "0:r1=1 /\\ 0:r2=0 /\\ 1:r3=1 /\\ 1:r4=0"

    def test_four_thread_and_three_location_families_exist(self):
        by_name = {f.name: f for f in FAMILIES}
        iriw = next(by_name["IRIW"].expand(max_cycles=1))
        assert iriw.n_threads == 4
        assert any(
            next(f.expand(max_cycles=1)).n_locations >= 3 for f in FAMILIES
        )

    def test_release_on_read_target_degrades_to_po(self):
        # A release annotation can only strengthen a write; on a W→R edge
        # it must fall back to plain po rather than corrupt the load.
        rel = Linkage("rel", release_second=True)
        with_rel = synthesize(Cycle("SB+rel+po", (po(WRITE, READ, rel), Fre, po(WRITE, READ), Fre)))
        plain = synthesize(Cycle("SB+po+po", (po(WRITE, READ), Fre, po(WRITE, READ), Fre)))
        assert canonical_fingerprint(with_rel) == canonical_fingerprint(plain)


# ---------------------------------------------------------------------------
# Battery: determinism, dedup, truncation
# ---------------------------------------------------------------------------


class TestCycleBattery:
    def test_battery_is_large_and_covers_families(self):
        battery = generate_cycle_battery()
        assert len(battery) >= 200
        families = {t.description.split(":")[0].removeprefix("cycle ") for t in battery}
        assert len(families) >= 6
        assert any(t.program.n_threads >= 4 for t in battery)
        assert any(len(t.program.loc_names) >= 3 for t in battery)

    def test_battery_is_deterministic(self):
        a = generate_cycle_battery()
        b = generate_cycle_battery()
        assert [t.name for t in a] == [t.name for t in b]
        assert [canonical_fingerprint(t) for t in a] == [
            canonical_fingerprint(t) for t in b
        ]

    def test_no_two_tests_share_a_fingerprint(self):
        battery = generate_cycle_battery()
        fingerprints = [canonical_fingerprint(t) for t in battery]
        assert len(fingerprints) == len(set(fingerprints))
        names = [t.name for t in battery]
        assert len(names) == len(set(names))

    def test_truncation_is_a_deterministic_prefix(self):
        full = generate_cycle_battery()
        for n in (0, 1, 37, 200):
            sliced = generate_cycle_battery(max_tests=n)
            assert [t.name for t in sliced] == [t.name for t in full[:n]]

    def test_family_selection(self):
        battery = generate_cycle_battery(families=("CoRR",))
        assert battery
        assert all(t.name.startswith("CoRR+") for t in battery)


# ---------------------------------------------------------------------------
# Semantics: derived conditions ask the intended question
# ---------------------------------------------------------------------------


SEMANTIC_CASES = [
    ("MP+po+po", (po(WRITE, WRITE), Rfe, po(READ, READ), Fre), Verdict.ALLOWED),
    (
        "MP+dmb.sy+addr",
        (
            po(WRITE, WRITE, Linkage("dmb.sy", barrier=LINKS_WW[1].barrier)),
            Rfe,
            po(READ, READ, Linkage("addr", addr=True)),
            Fre,
        ),
        Verdict.FORBIDDEN,
    ),
    ("CoRR+po", (Rfe, po(READ, READ, same_loc=True), Fre), Verdict.FORBIDDEN),
]


@pytest.mark.parametrize(
    "name,edges,expected", SEMANTIC_CASES, ids=[c[0] for c in SEMANTIC_CASES]
)
def test_cycle_semantics_and_agreement(name, edges, expected):
    test = synthesize(Cycle(name, edges))
    promising = run_promising(test, Arch.ARM)
    axiomatic = run_axiomatic(test, Arch.ARM)
    assert promising.verdict is expected
    assert set(promising.outcomes) == set(axiomatic.outcomes)


def test_attach_expected_records_axiomatic_oracle(tmp_path):
    tests = generate_cycle_battery(families=("CoRR",), max_tests=3)
    stamped = attach_expected(tests, (Arch.ARM, Arch.RISCV), cache=tmp_path / "cache")
    assert len(stamped) == len(tests)
    for original, test in zip(tests, stamped):
        assert original.expected == {}  # input untouched
        # Coherence violations are forbidden on both architectures.
        assert test.expected_verdict(Arch.ARM) is Verdict.FORBIDDEN
        assert test.expected_verdict(Arch.RISCV) is Verdict.FORBIDDEN
