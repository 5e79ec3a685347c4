"""State deduplication, interning, and single-graph certification.

The reduction layer must be *semantics-preserving*: the visited sets
change only how much work the explorers do, never which outcomes they
find.  The tests here pin that equivalence on a randomized sample of the
cycle corpus, the stability/equality laws of the ``cache_key`` methods,
and the single-graph certification entry point against the seed's
separate searches.
"""

import random

import pytest

from repro.explore import SearchKernel
from repro.flat.explorer import FlatConfig, explore_flat
from repro.lang.kinds import Arch
from repro.litmus import generate_cycle_battery, get_test
from repro.promising import (
    ExploreConfig,
    MachineState,
    Memory,
    Msg,
    can_complete_without_promising,
    certify_thread,
    explore,
    explore_naive,
    find_and_certify,
    initial_tstate,
    machine_transitions,
    promise_step,
)
from repro.promising.intern import IdInterner
from repro.lang import DMB_SY, R, load, seq, store


def corpus_sample(count=8, seed=3):
    """Deterministic random sample of small cycle-corpus tests."""
    tests = generate_cycle_battery(
        families=("MP", "SB", "LB", "S", "R", "2+2W", "WRC", "CoRR", "SB-RFI"),
        max_per_family=6,
    )
    return random.Random(seed).sample(tests, count)


def disable_pruning(monkeypatch):
    """Make every later search's visited-set key fresh, so nothing prunes.

    The explorers always deduplicate; a key that never matches turns
    that off for this test only, so a pruned run can be held to an
    unpruned one without a production switch.
    """
    init = SearchKernel.__init__

    def never_matching(self, successors, **kwargs):
        kwargs["key_fn"] = lambda _state: object()
        init(self, successors, **kwargs)

    monkeypatch.setattr(SearchKernel, "__init__", never_matching)


class TestDedupPreservesOutcomes:
    @pytest.mark.parametrize("test", corpus_sample(), ids=lambda t: t.name)
    def test_explore_dedup_off_is_identical(self, test, monkeypatch):
        config = ExploreConfig(shared_locations=tuple(test.observable_locations()))
        on = explore(test.program, config)
        disable_pruning(monkeypatch)
        off = explore(test.program, config)
        assert set(on.outcomes) == set(off.outcomes), test.name
        assert not on.stats.truncated and not off.stats.truncated
        assert off.stats.dedup_hits == off.stats.thread_dedup_hits == 0

    @pytest.mark.parametrize("test", corpus_sample(count=4, seed=5), ids=lambda t: t.name)
    def test_naive_dedup_off_is_identical(self, test, monkeypatch):
        config = ExploreConfig(shared_locations=tuple(test.observable_locations()))
        on = explore_naive(test.program, config)
        disable_pruning(monkeypatch)
        off = explore_naive(test.program, config)
        assert set(on.outcomes) == set(off.outcomes), test.name
        # Without the visited set, symmetric interleavings are re-explored.
        assert off.stats.promise_states >= on.stats.promise_states
        assert on.stats.dedup_hits > 0 and off.stats.dedup_hits == 0

    def test_flat_dedup_off_is_identical(self, monkeypatch):
        test = get_test("MP")
        on = explore_flat(test.program, FlatConfig())
        disable_pruning(monkeypatch)
        off = explore_flat(test.program, FlatConfig())
        assert set(on.outcomes) == set(off.outcomes)
        assert on.stats.dedup_hits > 0 and off.stats.dedup_hits == 0
        assert off.stats.states > on.stats.states


class TestCacheKeys:
    def test_tstate_cache_key_is_stable_and_matches_key(self):
        ts = initial_tstate()
        ts.regs["r1"] = (7, 2)
        first = ts.cache_key()
        assert first == ts.key()
        assert ts.cache_key() is first  # cached, not recomputed

    def test_equal_states_reached_differently_share_a_key(self):
        a = initial_tstate().copy()
        a.regs["r1"] = (1, 0)
        a.regs["r2"] = (2, 0)
        b = initial_tstate().copy()
        b.regs["r2"] = (2, 0)
        b.regs["r1"] = (1, 0)
        assert a.cache_key() == b.cache_key()
        assert hash(a) == hash(b) and a == b

    def test_copy_resets_the_cached_key(self):
        ts = initial_tstate()
        _ = ts.cache_key()
        clone = ts.copy()
        clone.vCAP = 9
        assert clone.cache_key() != ts.cache_key()

    def test_memory_cache_key_tracks_messages(self):
        empty = Memory()
        grown, t = empty.append(Msg(0, 1, 0))
        assert empty.cache_key() == ()
        assert grown.cache_key() == (Msg(0, 1, 0),) and t == 1

    def test_interner_shares_identity_and_counts_hits(self):
        interner = IdInterner()
        # Built dynamically so CPython cannot constant-fold them into one
        # object before the interner ever sees them.
        a = tuple([1, tuple([2, 3])])
        b = tuple([1, tuple([2, 3])])
        assert a is not b
        assert interner.intern(a, a) == 0
        assert interner.intern(b, b) == 0  # equal key collapses to the first
        assert interner.objects[0] is a
        assert interner.hits == 1 and interner.unique == 1
        assert interner.intern((4,), (4,)) == 1  # ids stay dense

    def test_machine_state_cache_key_interns_equal_states(self):
        test = get_test("LB")
        initial = MachineState.initial(test.program, Arch.ARM)
        transitions = machine_transitions(initial)
        # Take the same transition twice via fresh state objects.
        again = machine_transitions(initial)
        a, b = transitions[0].state, again[0].state
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.cache_key() is a.cache_key()  # computed once, cached
        interner = IdInterner()
        assert interner.intern(a.cache_key(), a) == interner.intern(b.cache_key(), b)
        assert interner.hits == 1


class TestCertifyThread:
    CONFIGS = [
        ("initial-store", store(0, 5), None),
        ("load-store", seq(load("r1", 8), store(0, R("r1"))), None),
        ("barrier", seq(load("r1", 8), DMB_SY, store(0, 42)), None),
    ]

    @pytest.mark.parametrize("name,stmt,_x", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_matches_separate_searches(self, name, stmt, _x):
        ts = initial_tstate()
        memory, _ = Memory().append(Msg(8, 1, 9))
        merged = certify_thread(stmt, ts, memory, Arch.ARM, 0)
        separate = find_and_certify(stmt, ts, memory, Arch.ARM, 0)
        assert merged.certified == separate.certified
        assert merged.promises == separate.promises
        assert merged.can_complete == can_complete_without_promising(
            stmt, ts, memory, Arch.ARM, 0
        )

    def test_matches_with_outstanding_promise(self):
        stmt = store(0, 1)
        promised = promise_step(stmt, initial_tstate(), Memory(), Msg(0, 1, 0))
        merged = certify_thread(stmt, promised.tstate, promised.memory, Arch.ARM, 0)
        assert merged.certified
        assert merged.can_complete is True  # the promise is fulfilable in place
