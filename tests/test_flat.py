"""Tests for the Flat-style baseline model."""

import pytest

from repro.flat import FlatConfig, explore_flat
from repro.harness import Job, differential_mismatches, execute_job, run_jobs
from repro.lang import LocationEnv, R, if_, load, make_program, seq, store
from repro.lang.kinds import Arch
from repro.litmus import all_tests, get_test, run_flat

#: Shapes on which the approximate Flat-style model must agree with the
#: architectural verdict (and hence with the promising model).
CORE_SHAPES = [
    "MP", "MP+dmbs", "MP+dmb+addr", "MP+rel+acq", "MP+dmb+ctrlisb",
    "SB", "SB+dmbs", "LB", "LB+datas", "LB+ctrls",
    "CoRR", "CoWW", "CoWR", "PPOCA", "2+2W", "2+2W+dmbs",
]


@pytest.mark.parametrize("name", CORE_SHAPES)
def test_flat_matches_architectural_verdict(name):
    test = get_test(name)
    result = run_flat(test)
    assert result.verdict is test.expected_verdict(Arch.ARM), name


@pytest.mark.parametrize("name", ["MP", "SB", "LB", "CoRR"])
def test_flat_outcomes_contained_in_promising(name):
    """The baseline under-approximates at worst; it must not invent outcomes."""
    jobs = [Job.for_program(get_test(name).program, model) for model in ("promising", "flat")]
    results = run_jobs(jobs)
    assert all(r.ok and not r.truncated for r in results)
    counterexamples, _explained = differential_mismatches(jobs, results)
    assert counterexamples == []


def test_flat_explores_more_states_than_promising():
    test = get_test("MP")
    flat = explore_flat(test.program, FlatConfig())
    from repro.promising import ExploreConfig, explore

    promising = explore(test.program, ExploreConfig())
    assert flat.stats.states > promising.stats.promise_states


def test_flat_speculation_and_restart_are_exercised():
    env = LocationEnv()
    t0 = seq(store(env["x"], 1))
    t1 = seq(
        load("r1", env["x"]),
        # The branch direction depends on the racy read, so one of the two
        # speculated fetch paths must be squashed in some executions.
        if_(R("r1").eq(1), load("r2", env["y"]), load("r3", env["y"])),
    )
    program = make_program([t0, t1], env=env)
    result = explore_flat(program, FlatConfig())
    assert result.stats.restarts > 0
    assert len(result.outcomes) > 0


def test_flat_exclusives_monitor():
    test = get_test("LSE-atomicity")
    result = run_flat(test)
    assert result.verdict is test.expected_verdict(Arch.ARM)


def test_flat_window_size_limits_state():
    test = get_test("MP")
    small = explore_flat(test.program, FlatConfig(window_size=1))
    large = explore_flat(test.program, FlatConfig(window_size=8))
    assert small.stats.states <= large.stats.states
    # A window of one instruction is effectively in-order execution, which
    # still terminates and produces outcomes (a strict subset is fine).
    assert len(small.outcomes) >= 1


def test_flat_truncation_reported():
    test = get_test("MP")
    result = explore_flat(test.program, FlatConfig(max_states=1))
    assert result.stats.truncated


def test_restart_squashing_an_exclusive_load_clears_the_reservation():
    """A mis-speculated LDAXR must take its monitor with it (PR 5 bugfix).

    T1's branch is never taken (y stays 0), but its speculated path
    contains a second load-exclusive of x.  If that squashed load's
    reservation survived the restart, T1's store-exclusive could pair
    with a load that architecturally never happened and *succeed* across
    T0's intervening write — observable as x=5 with r0=0, an outcome the
    promising reference forbids (found by random-walk sampling of the
    3-thread CAS spinlock, where it manifests as a mutual-exclusion
    violation).
    """
    from repro.lang.kinds import VSUCC
    from repro.promising import ExploreConfig, explore

    env = LocationEnv()
    x, y = env["x"], env["y"]
    t0 = store(x, 7)
    t1 = seq(
        load("r0", x, exclusive=True),
        load("r1", y),
        if_(R("r1").eq(1), load("r2", x, exclusive=True)),
        store(x, 5, exclusive=True, succ_reg="rs"),
    )
    program = make_program([t0, t1], env=env)

    def non_atomic_sc(outcome):
        # STXR claims success and its write survives, yet its paired
        # LDAXR read the initial memory from before T0's write.
        return outcome.mem(x) == 5 and outcome.reg(1, "r0") == 0 and outcome.reg(1, "rs") == VSUCC

    flat = explore_flat(program, FlatConfig())
    assert not any(non_atomic_sc(o) for o in flat.outcomes)
    promising = explore(program, ExploreConfig(shared_locations=(x, y)))
    assert not any(non_atomic_sc(o) for o in promising.outcomes)


#: Known Flat over-approximations: outcomes Flat admits that the
#: axiomatic oracle forbids, identical on both architectures.  Strict
#: xfail, so fixing Flat turns these into failures until the entry goes.
FLAT_EXTRA_OUTCOMES = {
    "SB+rel+acq": "0:r1=0 1:r2=0 (Flat verdict allowed, oracle and catalogue forbidden)",
    "MP+dmb+addr+coh": (
        "1:r1=0 1:r2=37 1:r3=0; 1:r1=42 1:r2=37 1:r3=0 "
        "(Flat verdict allowed, oracle and catalogue forbidden)"
    ),
    "PPOAA": (
        "1:r0=0 1:r1=0 1:r2=0; 1:r0=0 1:r1=0 1:r2=1; 1:r0=1 1:r1=0 1:r2=0; "
        "1:r0=1 1:r1=0 1:r2=1 (verdict still forbidden)"
    ),
    "LSE-fwd-acq": (
        "1:r0=1 1:r1=1 1:r2=0 1:r6=0; 1:r0=1 1:r1=1 1:r2=0 1:r6=1; "
        "1:r0=1 1:r1=1 1:r2=1 1:r6=1 (Flat verdict allowed, oracle and catalogue forbidden)"
    ),
}


def _containment_cases():
    for test in all_tests():
        for arch in (Arch.ARM, Arch.RISCV):
            marks = ()
            if test.name in FLAT_EXTRA_OUTCOMES:
                reason = f"Flat admits {FLAT_EXTRA_OUTCOMES[test.name]}"
                marks = pytest.mark.xfail(strict=True, reason=reason)
            yield pytest.param(test.name, arch, marks=marks, id=f"{test.name}-{arch.value}")


@pytest.mark.parametrize("name,arch", _containment_cases())
def test_flat_contained_in_axiomatic(name, arch):
    """Catalogue-wide: Flat never admits an outcome the oracle forbids."""
    test = get_test(name)
    flat, oracle = (
        execute_job(Job(test=test, model=model, arch=arch), capture_errors=False)
        for model in ("flat", "axiomatic")
    )
    assert not flat.truncated and not oracle.truncated
    extra = set(flat.outcomes) - set(oracle.outcomes)
    assert not extra, sorted(o.describe(test.program.loc_names) for o in extra)
