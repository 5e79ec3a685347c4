"""Catalogue of classic ARMv8/RISC-V litmus tests with expected verdicts.

These are the standard shapes from the relaxed-memory literature (and from
the paper's own examples in §2/§4/§A): message passing, store buffering,
load buffering, coherence, write-to-read causality, IRIW, PPOCA/PPOAA, and
load/store-exclusive tests.  The expected verdicts are the architectural
ones for ARMv8 and RISC-V (which agree on all tests below) and serve as
the ground truth for the model test-suites and for the litmus-agreement
experiment (§7).

Every test is built in the paper's calculus; the same tests are available
through the assembly front ends in :mod:`repro.isa` (see
``tests/test_isa_litmus.py`` for the correspondence).
"""

from __future__ import annotations

import functools

from ..lang import (
    DMB_LD,
    DMB_ST,
    DMB_SY,
    Isb,
    LocationEnv,
    R,
    ReadKind,
    WriteKind,
    dependency_idiom,
    fence_tso,
    if_,
    load,
    make_program,
    seq,
    store,
)
from .conditions import MemEq, RegEq, cond_and
from .test import LitmusTest, allowed


def _env() -> LocationEnv:
    return LocationEnv(stride=8)


def _test(name, threads, condition, expected, env, description="", initial=None):
    program = make_program(threads, env=env, name=name, initial=initial or {})
    return LitmusTest(name, program, condition, expected, description)


# ---------------------------------------------------------------------------
# Message passing (MP) family
# ---------------------------------------------------------------------------


def mp_family() -> list[LitmusTest]:
    tests = []

    def writer(env, barrier=DMB_SY, rel=False):
        x, y = env["x"], env["y"]
        if rel:
            return seq(store(x, 1), store(y, 1, kind=WriteKind.REL))
        return seq(store(x, 1), barrier, store(y, 1))

    def cond(env):
        return cond_and(RegEq(1, "r1", 1), RegEq(1, "r2", 0))

    env = _env()
    tests.append(
        _test(
            "MP",
            [seq(store(env["x"], 1), store(env["y"], 1)),
             seq(load("r1", env["y"]), load("r2", env["x"]))],
            cond(env),
            allowed(True),
            env,
            "plain message passing: reads may be satisfied out of order",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb+po",
            [writer(env), seq(load("r1", env["y"]), load("r2", env["x"]))],
            cond(env),
            allowed(True),
            env,
            "barrier on the writer only does not order the reader's loads",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmbs",
            [writer(env), seq(load("r1", env["y"]), DMB_SY, load("r2", env["x"]))],
            cond(env),
            allowed(False),
            env,
            "full barriers on both sides forbid the relaxed outcome",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb+addr",
            [writer(env), seq(load("r1", env["y"]), load("r2", dependency_idiom(env["x"], "r1")))],
            cond(env),
            allowed(False),
            env,
            "address dependency orders the reader's loads",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb+ctrl",
            [writer(env),
             seq(load("r1", env["y"]),
                 if_(R("r1").eq(1), load("r2", env["x"]), load("r2", env["x"])))],
            cond(env),
            allowed(True),
            env,
            "control dependency does not order loads (branch speculation)",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb+ctrlisb",
            [writer(env),
             seq(load("r1", env["y"]),
                 if_(R("r1").eq(1), seq(Isb(), load("r2", env["x"])),
                     seq(Isb(), load("r2", env["x"]))))],
            cond(env),
            allowed(False),
            env,
            "control dependency plus isb orders the loads",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb.st+addr",
            [seq(store(env["x"], 1), DMB_ST, store(env["y"], 1)),
             seq(load("r1", env["y"]), load("r2", dependency_idiom(env["x"], "r1")))],
            cond(env),
            allowed(False),
            env,
            "dmb.st orders the writes; addr orders the reads",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+po+addr",
            [seq(store(env["x"], 1), store(env["y"], 1)),
             seq(load("r1", env["y"]), load("r2", dependency_idiom(env["x"], "r1")))],
            cond(env),
            allowed(True),
            env,
            "without write-side ordering the writes may be reordered",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+rel+acq",
            [writer(env, rel=True),
             seq(load("r1", env["y"], kind=ReadKind.ACQ), load("r2", env["x"]))],
            cond(env),
            allowed(False),
            env,
            "release/acquire message passing is forbidden",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+rel+po",
            [writer(env, rel=True), seq(load("r1", env["y"]), load("r2", env["x"]))],
            cond(env),
            allowed(True),
            env,
            "release write alone does not order the reader",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb+acq",
            [writer(env), seq(load("r1", env["y"], kind=ReadKind.ACQ), load("r2", env["x"]))],
            cond(env),
            allowed(False),
            env,
            "acquire load orders everything po-after it",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb+wacq",
            [writer(env), seq(load("r1", env["y"], kind=ReadKind.WACQ), load("r2", env["x"]))],
            cond(env),
            allowed(False),
            env,
            "weak acquire (LDAPR-style) also orders po-later accesses",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb.ld",
            [writer(env), seq(load("r1", env["y"]), DMB_LD, load("r2", env["x"]))],
            cond(env),
            allowed(False),
            env,
            "dmb.ld orders the reader's loads",
        )
    )

    env = _env()
    tests.append(
        _test(
            "MP+dmb.st+dmb.ld",
            [seq(store(env["x"], 1), DMB_ST, store(env["y"], 1)),
             seq(load("r1", env["y"]), DMB_LD, load("r2", env["x"]))],
            cond(env),
            allowed(False),
            env,
            "the weak barriers suffice for message passing",
        )
    )
    return tests


# ---------------------------------------------------------------------------
# Store buffering (SB), load buffering (LB), S, R, 2+2W
# ---------------------------------------------------------------------------


def sb_family() -> list[LitmusTest]:
    tests = []

    def cond():
        return cond_and(RegEq(0, "r1", 0), RegEq(1, "r2", 0))

    env = _env()
    tests.append(
        _test(
            "SB",
            [seq(store(env["x"], 1), load("r1", env["y"])),
             seq(store(env["y"], 1), load("r2", env["x"]))],
            cond(),
            allowed(True),
            env,
            "store buffering: both reads may miss the other thread's write",
        )
    )

    env = _env()
    tests.append(
        _test(
            "SB+dmbs",
            [seq(store(env["x"], 1), DMB_SY, load("r1", env["y"])),
             seq(store(env["y"], 1), DMB_SY, load("r2", env["x"]))],
            cond(),
            allowed(False),
            env,
            "full barriers forbid store buffering",
        )
    )

    env = _env()
    tests.append(
        _test(
            "SB+rel+acq",
            [seq(store(env["x"], 1, kind=WriteKind.REL), load("r1", env["y"], kind=ReadKind.ACQ)),
             seq(store(env["y"], 1, kind=WriteKind.REL), load("r2", env["x"], kind=ReadKind.ACQ))],
            cond(),
            allowed(False),
            env,
            "a strong release is ordered before a po-later strong acquire ([RL];po;[AQ])",
        )
    )

    env = _env()
    tests.append(
        _test(
            "SB+rel+wacq",
            [seq(store(env["x"], 1, kind=WriteKind.REL), load("r1", env["y"], kind=ReadKind.WACQ)),
             seq(store(env["y"], 1, kind=WriteKind.REL), load("r2", env["x"], kind=ReadKind.WACQ))],
            cond(),
            allowed(True),
            env,
            "weak acquires are not ordered after earlier releases, so SB stays allowed",
        )
    )

    env = _env()
    tests.append(
        _test(
            "SB+dmb.st+dmb.ld",
            [seq(store(env["x"], 1), DMB_ST, load("r1", env["y"])),
             seq(store(env["y"], 1), DMB_LD, load("r2", env["x"]))],
            cond(),
            allowed(True),
            env,
            "the weak barriers do not order store→load",
        )
    )
    return tests


def lb_family() -> list[LitmusTest]:
    tests = []

    def cond():
        return cond_and(RegEq(0, "r1", 1), RegEq(1, "r2", 1))

    env = _env()
    tests.append(
        _test(
            "LB",
            [seq(load("r1", env["x"]), store(env["y"], 1)),
             seq(load("r2", env["y"]), store(env["x"], 1))],
            cond(),
            allowed(True),
            env,
            "load buffering: stores may execute before the loads",
        )
    )

    env = _env()
    tests.append(
        _test(
            "LB+datas",
            [seq(load("r1", env["x"]), store(env["y"], R("r1"))),
             seq(load("r2", env["y"]), store(env["x"], R("r2")))],
            cond(),
            allowed(False),
            env,
            "data dependencies on both sides forbid load buffering",
        )
    )

    env = _env()
    tests.append(
        _test(
            "LB+data+po",
            [seq(load("r1", env["x"]), store(env["y"], R("r1"))),
             seq(load("r2", env["y"]), store(env["x"], 1))],
            cond(),
            allowed(True),
            env,
            "a dependency on only one side leaves the cycle possible",
        )
    )

    env = _env()
    tests.append(
        _test(
            "LB+ctrls",
            [seq(load("r1", env["x"]), if_(R("r1").eq(1), store(env["y"], 1))),
             seq(load("r2", env["y"]), if_(R("r2").eq(1), store(env["x"], 1)))],
            cond(),
            allowed(False),
            env,
            "control dependencies order stores after the loads they depend on",
        )
    )

    env = _env()
    tests.append(
        _test(
            "LB+addrs",
            [seq(load("r1", env["x"]), store(dependency_idiom(env["y"], "r1"), 1)),
             seq(load("r2", env["y"]), store(dependency_idiom(env["x"], "r2"), 1))],
            cond(),
            allowed(False),
            env,
            "address dependencies to the stores forbid load buffering",
        )
    )

    env = _env()
    tests.append(
        _test(
            "LB+rels",
            [seq(load("r1", env["x"]), store(env["y"], 1, kind=WriteKind.REL)),
             seq(load("r2", env["y"]), store(env["x"], 1, kind=WriteKind.REL))],
            cond(),
            allowed(False),
            env,
            "release stores are ordered after all program-order earlier accesses",
        )
    )
    return tests


def s_r_w_family() -> list[LitmusTest]:
    tests = []

    # S: the write of T1 must not fall coherence-before T0's first write.
    env = _env()
    tests.append(
        _test(
            "S+dmb+data",
            [seq(store(env["x"], 2), DMB_SY, store(env["y"], 1)),
             seq(load("r1", env["y"]), store(env["x"], R("r1")))],
            cond_and(RegEq(1, "r1", 1), MemEq(env["x"], 2, "x")),
            allowed(False),
            env,
            "S with data dependency: the dependent write cannot lose to the first write",
        )
    )
    env = _env()
    tests.append(
        _test(
            "S+dmb+po",
            [seq(store(env["x"], 2), DMB_SY, store(env["y"], 1)),
             seq(load("r1", env["y"]), store(env["x"], 1))],
            cond_and(RegEq(1, "r1", 1), MemEq(env["x"], 2, "x")),
            allowed(True),
            env,
            "without the dependency the independent write may be promised early",
        )
    )

    # R
    env = _env()
    tests.append(
        _test(
            "R+dmbs",
            [seq(store(env["x"], 1), DMB_SY, store(env["y"], 1)),
             seq(store(env["y"], 2), DMB_SY, load("r1", env["x"]))],
            cond_and(RegEq(1, "r1", 0), MemEq(env["y"], 2, "y")),
            allowed(False),
            env,
            "R with barriers on both threads",
        )
    )

    # 2+2W
    env = _env()
    tests.append(
        _test(
            "2+2W+dmbs",
            [seq(store(env["x"], 1), DMB_SY, store(env["y"], 2)),
             seq(store(env["y"], 1), DMB_SY, store(env["x"], 2))],
            cond_and(MemEq(env["x"], 1, "x"), MemEq(env["y"], 1, "y")),
            allowed(False),
            env,
            "2+2W with barriers",
        )
    )
    env = _env()
    tests.append(
        _test(
            "2+2W",
            [seq(store(env["x"], 1), store(env["y"], 2)),
             seq(store(env["y"], 1), store(env["x"], 2))],
            cond_and(MemEq(env["x"], 1, "x"), MemEq(env["y"], 1, "y")),
            allowed(True),
            env,
            "2+2W without barriers is allowed",
        )
    )
    return tests


# ---------------------------------------------------------------------------
# Multi-copy atomicity: WRC, IRIW
# ---------------------------------------------------------------------------


def mca_family() -> list[LitmusTest]:
    tests = []

    env = _env()
    tests.append(
        _test(
            "WRC+addrs",
            [store(env["x"], 1),
             seq(load("r1", env["x"]), store(dependency_idiom(env["y"], "r1"), 1)),
             seq(load("r2", env["y"]), load("r3", dependency_idiom(env["x"], "r2")))],
            cond_and(RegEq(1, "r1", 1), RegEq(2, "r2", 1), RegEq(2, "r3", 0)),
            allowed(False),
            env,
            "write-to-read causality with address dependencies (multicopy atomic)",
        )
    )

    env = _env()
    tests.append(
        _test(
            "WRC+pos",
            [store(env["x"], 1),
             seq(load("r1", env["x"]), store(env["y"], 1)),
             seq(load("r2", env["y"]), load("r3", env["x"]))],
            cond_and(RegEq(1, "r1", 1), RegEq(2, "r2", 1), RegEq(2, "r3", 0)),
            allowed(True),
            env,
            "without dependencies WRC is allowed",
        )
    )

    env = _env()
    tests.append(
        _test(
            "IRIW+addrs",
            [store(env["x"], 1),
             store(env["y"], 1),
             seq(load("r1", env["x"]), load("r2", dependency_idiom(env["y"], "r1"))),
             seq(load("r3", env["y"]), load("r4", dependency_idiom(env["x"], "r3")))],
            cond_and(RegEq(2, "r1", 1), RegEq(2, "r2", 0), RegEq(3, "r3", 1), RegEq(3, "r4", 0)),
            allowed(False),
            env,
            "IRIW with address dependencies is forbidden in multicopy-atomic models",
        )
    )

    env = _env()
    tests.append(
        _test(
            "IRIW+pos",
            [store(env["x"], 1),
             store(env["y"], 1),
             seq(load("r1", env["x"]), load("r2", env["y"])),
             seq(load("r3", env["y"]), load("r4", env["x"]))],
            cond_and(RegEq(2, "r1", 1), RegEq(2, "r2", 0), RegEq(3, "r3", 1), RegEq(3, "r4", 0)),
            allowed(True),
            env,
            "IRIW without dependencies is allowed",
        )
    )
    return tests


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------


def coherence_family() -> list[LitmusTest]:
    tests = []

    env = _env()
    tests.append(
        _test(
            "CoRR",
            [store(env["x"], 1), seq(load("r1", env["x"]), load("r2", env["x"]))],
            cond_and(RegEq(1, "r1", 1), RegEq(1, "r2", 0)),
            allowed(False),
            env,
            "same-location reads must not go backwards in coherence order",
        )
    )

    env = _env()
    tests.append(
        _test(
            "CoWW",
            [seq(store(env["x"], 1), store(env["x"], 2))],
            MemEq(env["x"], 1, "x"),
            allowed(False),
            env,
            "program-order same-location writes are coherence-ordered",
        )
    )

    env = _env()
    tests.append(
        _test(
            "CoWR",
            [seq(store(env["x"], 1), load("r1", env["x"])), store(env["x"], 2)],
            RegEq(0, "r1", 0),
            allowed(False),
            env,
            "a read may not ignore the thread's own earlier write",
        )
    )

    env = _env()
    tests.append(
        _test(
            "CoRW1",
            [seq(load("r1", env["x"]), store(env["x"], 1))],
            RegEq(0, "r1", 1),
            allowed(False),
            env,
            "a read may not read from a program-order later write",
        )
    )

    env = _env()
    tests.append(
        _test(
            "CoRW2",
            [seq(load("r1", env["x"]), store(env["x"], 2)), store(env["x"], 1)],
            cond_and(RegEq(0, "r1", 1), MemEq(env["x"], 1, "x")),
            allowed(False),
            env,
            "reading a write forbids one's own later write from being co-before it",
        )
    )

    # The paper's §4.1 coherence example: r1=42, r2=37, r3=0 forbidden.
    env = _env()
    tests.append(
        _test(
            "MP+dmb+addr+coh",
            [seq(store(env["x"], 37), DMB_SY, store(env["y"], 42)),
             seq(load("r1", env["y"]),
                 load("r2", dependency_idiom(env["x"], "r1")),
                 load("r3", env["x"]))],
            cond_and(RegEq(1, "r1", 42), RegEq(1, "r2", 37), RegEq(1, "r3", 0)),
            allowed(False),
            env,
            "the coherence view forbids reading a superseded write (§4.1)",
        )
    )
    return tests


# ---------------------------------------------------------------------------
# Forwarding: PPOCA / PPOAA, and the §4.1 forwarding example
# ---------------------------------------------------------------------------


def forwarding_family() -> list[LitmusTest]:
    tests = []

    env = _env()
    tests.append(
        _test(
            "PPOCA",
            [seq(store(env["x"], 1), DMB_SY, store(env["y"], 1)),
             seq(load("r0", env["y"]),
                 if_(R("r0").eq(1),
                     seq(store(env["z"], 1),
                         load("r1", env["z"]),
                         load("r2", dependency_idiom(env["x"], "r1")))))],
            cond_and(RegEq(1, "r0", 1), RegEq(1, "r1", 1), RegEq(1, "r2", 0)),
            allowed(True),
            env,
            "forwarding a speculative write resolves the dependency early",
        )
    )

    env = _env()
    tests.append(
        _test(
            "PPOAA",
            [seq(store(env["x"], 1), DMB_SY, store(env["y"], 1)),
             seq(load("r0", env["y"]),
                 store(dependency_idiom(env["z"], "r0"), 1),
                 load("r1", env["z"]),
                 load("r2", dependency_idiom(env["x"], "r1")))],
            cond_and(RegEq(1, "r0", 1), RegEq(1, "r1", 1), RegEq(1, "r2", 0)),
            allowed(False),
            env,
            "forwarding from an address-dependent write keeps the dependency",
        )
    )

    # §4.1 store-forwarding example (allowed).
    env = _env()
    tests.append(
        _test(
            "MP+fwd",
            [seq(store(env["x"], 37), DMB_SY, store(env["y"], 42)),
             seq(load("r0", env["y"]),
                 store(env["y"], 51),
                 load("r1", env["y"]),
                 load("r2", dependency_idiom(env["x"], "r1")))],
            cond_and(RegEq(1, "r0", 42), RegEq(1, "r1", 51), RegEq(1, "r2", 0)),
            allowed(True),
            env,
            "reading one's own store by forwarding yields the small view (§4.1)",
        )
    )
    return tests


# ---------------------------------------------------------------------------
# Load/store exclusives
# ---------------------------------------------------------------------------


def exclusives_family() -> list[LitmusTest]:
    tests = []

    # §A.2 atomicity example.
    env = _env()
    tests.append(
        _test(
            "LSE-atomicity",
            [seq(load("r1", env["x"], exclusive=True),
                 store(env["x"], 42, exclusive=True, succ_reg="r2")),
             seq(store(env["x"], 37), store(env["x"], 51), load("r3", env["x"]))],
            cond_and(RegEq(0, "r1", 37), RegEq(0, "r2", 0), RegEq(1, "r3", 42)),
            allowed(False),
            env,
            "a successful store exclusive is coherence-adjacent to the read (§A.2)",
        )
    )

    # Two LL/SC increments that both succeed must not lose an update.
    env = _env()
    tests.append(
        _test(
            "LSE-inc-inc",
            [seq(load("r1", env["x"], exclusive=True),
                 store(env["x"], R("r1") + 1, exclusive=True, succ_reg="r2")),
             seq(load("r1", env["x"], exclusive=True),
                 store(env["x"], R("r1") + 1, exclusive=True, succ_reg="r2"))],
            cond_and(RegEq(0, "r2", 0), RegEq(1, "r2", 0), MemEq(env["x"], 1, "x")),
            allowed(False),
            env,
            "two successful LL/SC increments cannot both read the initial value",
        )
    )

    # Acquire loads may not be satisfied by forwarding from a store exclusive
    # (ARM), so MP through an exclusive write with an acquire read is ordered.
    env = _env()
    tests.append(
        _test(
            "LSE-fwd-acq",
            [seq(store(env["x"], 1), DMB_SY, store(env["y"], 1)),
             seq(load("r0", env["y"]),
                 load("r5", env["z"], exclusive=True),
                 if_(R("r0").eq(1),
                     seq(store(env["z"], 1, exclusive=True, succ_reg="r6"),
                         load("r1", env["z"], kind=ReadKind.ACQ),
                         load("r2", dependency_idiom(env["x"], "r1")))))],
            cond_and(RegEq(1, "r0", 1), RegEq(1, "r6", 0), RegEq(1, "r1", 1), RegEq(1, "r2", 0)),
            allowed(False),
            env,
            "an acquire load may not forward from an exclusive write (ρ13)",
        )
    )
    return tests


# ---------------------------------------------------------------------------
# RISC-V specific fences
# ---------------------------------------------------------------------------


def riscv_family() -> list[LitmusTest]:
    tests = []
    env = _env()
    tests.append(
        LitmusTest(
            "MP+fence.tso+addr",
            make_program(
                [seq(store(env["x"], 1), fence_tso(), store(env["y"], 1)),
                 seq(load("r1", env["y"]), load("r2", dependency_idiom(env["x"], "r1")))],
                env=env,
                name="MP+fence.tso+addr",
            ),
            cond_and(RegEq(1, "r1", 1), RegEq(1, "r2", 0)),
            {**allowed(False)},
            "fence.tso orders write→write, so MP is forbidden",
        )
    )
    env = _env()
    tests.append(
        LitmusTest(
            "SB+fence.tso",
            make_program(
                [seq(store(env["x"], 1), fence_tso(), load("r1", env["y"])),
                 seq(store(env["y"], 1), fence_tso(), load("r2", env["x"]))],
                env=env,
                name="SB+fence.tso",
            ),
            cond_and(RegEq(0, "r1", 0), RegEq(1, "r2", 0)),
            {**allowed(True)},
            "fence.tso does not order store→load, so SB stays allowed",
        )
    )
    return tests


def all_tests() -> list[LitmusTest]:
    """The full catalogue."""
    return (
        mp_family()
        + sb_family()
        + lb_family()
        + s_r_w_family()
        + mca_family()
        + coherence_family()
        + forwarding_family()
        + exclusives_family()
        + riscv_family()
    )


def tests_by_name() -> dict[str, LitmusTest]:
    return {test.name: test for test in all_tests()}


@functools.cache
def _index() -> dict[str, LitmusTest]:
    # Built once per process: the service looks a test up on every
    # request, and a test (a frozen dataclass) is safe to share.
    return tests_by_name()


def get_test(name: str) -> LitmusTest:
    """Look up a catalogue test by name."""
    tests = _index()
    if name not in tests:
        raise KeyError(f"unknown litmus test {name!r}; known: {sorted(tests)}")
    return tests[name]


__all__ = [
    "all_tests",
    "tests_by_name",
    "get_test",
    "mp_family",
    "sb_family",
    "lb_family",
    "s_r_w_family",
    "mca_family",
    "coherence_family",
    "forwarding_family",
    "exclusives_family",
    "riscv_family",
]
