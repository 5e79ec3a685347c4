"""Conformance of the execution backend to the interpreted reference rules.

The packed backend swaps the *representation* of machine states, never
the semantics.  These laws hold it, state by state, to the rules it is
compiled from — on a catalogue slice, a generated corpus slice and both
architectures:

* certification equals :func:`~repro.promising.certification.certify_thread`
  field by field (certified, promises, complete, can_complete, visited);
* completion sets equal a DFS over
  :func:`~repro.promising.steps.non_promise_steps`;
* promise-first successors and accumulated outcomes equal those built
  from the reference certification and ``promise_step``;
* naive successors equal :func:`~repro.promising.machine.machine_transitions`
  in state keys and order;
* Flat successors equal :func:`repro.flat.explorer.successors` in state
  keys, order and restart count;

and the packed encoding is a bijection onto the reference ``cache_key``
equivalence classes.  Whole-run outcome sets are pinned separately by
the frozen golden digests (``tests/test_golden.py``).
"""

from collections import Counter
from itertools import product

import pytest

from repro.backend import PackedFlatBackend, PackedPromisingBackend
from repro.explore import SearchKernel, strategy_for
from repro.flat import (
    FlatConfig,
    FlatStats,
    explore_flat,
    initial_state,
    thread_transitions,
)
from repro.flat import successors as flat_successors
from repro.lang import LocationEnv, R, if_, load, make_program, seq, store
from repro.lang.kinds import VSUCC, Arch
from repro.litmus import generate_battery, get_test
from repro.outcomes import Outcome, OutcomeSet
from repro.promising import (
    ExploreConfig,
    certify_thread,
    explore,
    explore_naive,
    is_terminated,
    non_promise_steps,
    promise_step,
)
from repro.promising.exhaustive import ExplorationStats
from repro.promising.machine import MachineState, machine_transitions

ARCHS = [Arch.ARM, Arch.RISCV]
ARCH_IDS = [a.value for a in ARCHS]

# Small-but-varied slice: message passing, store buffering, dependencies,
# multicopy atomicity, exclusives, and a write-heavy shape.
PROMISING_SLICE = ["MP", "SB", "LB+addrs", "WRC+pos", "LSE-atomicity", "2+2W"]
# The flat model's state spaces are far larger; keep its slice lean.
FLAT_SLICE = ["MP", "SB", "CoRW2"]
# A deterministic slice of the generated (fuzz) corpus.
GENERATED = generate_battery(max_tests=4)


def _promising(program, arch=Arch.ARM):
    return PackedPromisingBackend(program, ExploreConfig(arch=arch), ExplorationStats())


def _reachable(program, arch, limit=200):
    """A sample of reachable reference machine states."""
    initial = MachineState.initial(program, arch)
    seen = {initial.cache_key(): initial}
    frontier = [initial]
    while frontier and len(seen) < limit:
        state = frontier.pop()
        for step in machine_transitions(state):
            key = step.state.cache_key()
            if key not in seen:
                seen[key] = step.state
                frontier.append(step.state)
    return list(seen.values())


def _reference_completions(thread, memory, arch, tid) -> set:
    """Final register files of one thread under fixed memory (plain DFS)."""
    results = set()
    seen = set()
    stack = [(thread.stmt, thread.tstate)]
    while stack:
        stmt, ts = stack.pop()
        key = (stmt, ts.cache_key())
        if key in seen:
            continue
        seen.add(key)
        if is_terminated(stmt) and not ts.prom:
            results.add(tuple(sorted(ts.register_values().items())))
            continue
        stack.extend(
            (step.stmt, step.tstate) for step in non_promise_steps(stmt, ts, memory, arch, tid)
        )
    return results


def _reference_cross(state, arch) -> set:
    """The outcomes a candidate final memory contributes, from the rules."""
    per_thread = [
        _reference_completions(thread, state.memory, arch, tid)
        for tid, thread in enumerate(state.threads)
    ]
    final = state.memory.final_values()
    return {Outcome.make([dict(regs) for regs in combo], final) for combo in product(*per_thread)}


# ---------------------------------------------------------------------------
# Certification and completion-set laws
# ---------------------------------------------------------------------------


def _assert_cert_equivalence(program, arch, limit):
    """Packed ``certify_all``/``completion_sets`` == the references, pointwise.

    For every reachable machine state the packed answer must agree with
    the reference sequential-graph build on every certification field
    (down to the graph's visited count) and, at candidate final memories,
    on the exact per-thread completion sets.
    """
    backend = _promising(program, arch)
    fuel = backend.config.cert_fuel
    checked_completions = 0
    for state in _reachable(program, arch, limit=limit):
        enc = backend.encode(state)
        packed, can_finish = backend.certify_all(enc)
        for tid, (thread, p) in enumerate(zip(state.threads, packed)):
            ref = certify_thread(thread.stmt, thread.tstate, state.memory, arch, tid, fuel)
            context = f"{program.name} thread {tid}"
            assert p.certified == ref.certified, context
            assert p.promises == ref.promises, context
            assert p.complete == ref.complete, context
            assert p.can_complete == ref.can_complete == can_finish[tid], context
            assert p.visited == ref.visited, context
        if all(can_finish):
            reference = [
                _reference_completions(thread, state.memory, arch, tid)
                for tid, thread in enumerate(state.threads)
            ]
            expected = reference if all(reference) else None
            assert backend.completion_sets(enc) == expected, (
                f"{program.name}: completion sets diverge"
            )
            checked_completions += 1
    assert checked_completions > 0, "slice never reached a final memory"


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
@pytest.mark.parametrize("name", ["MP", "WRC+pos", "LSE-atomicity", "2+2W"])
def test_certification_equivalence_laws(name, arch):
    _assert_cert_equivalence(get_test(name).program, arch, limit=60)


@pytest.mark.parametrize("test", GENERATED, ids=[t.name for t in GENERATED])
def test_certification_equivalence_on_generated_corpus(test):
    _assert_cert_equivalence(test.program, Arch.ARM, limit=40)


# ---------------------------------------------------------------------------
# Promise-first laws
# ---------------------------------------------------------------------------


def _assert_promise_first_equivalence(program, arch, limit=60):
    """Walk the promise-first frontier, checking each step against the rules.

    At every visited state the packed promise successors must be exactly
    the reference ones (certified promises applied with ``promise_step``),
    and the outcomes accumulated at candidate final memories must equal
    the reference cross product of DFS completion sets.
    """
    backend = _promising(program, arch)
    fuel = backend.config.cert_fuel
    packed_outcomes = OutcomeSet()
    reference_outcomes = set()
    seen = {backend.initial()}
    frontier = list(seen)
    while frontier and len(seen) < limit:
        enc = frontier.pop()
        state = backend.decode(enc)
        per_thread, can_finish = backend.certify_all(enc)
        expected = Counter()
        for tid, thread in enumerate(state.threads):
            ref = certify_thread(thread.stmt, thread.tstate, state.memory, arch, tid, fuel)
            for msg in ref.promises:
                step = promise_step(thread.stmt, thread.tstate, state.memory, msg)
                expected[state.replace_thread(tid, step).cache_key()] += 1
        successors = backend.promise_successors(enc, per_thread)
        actual = Counter(backend.decode(succ).cache_key() for succ in successors)
        assert actual == expected, f"{program.name}: promise successors diverge"
        if all(can_finish):
            backend.accumulate_outcomes(packed_outcomes, enc)
            reference_outcomes |= _reference_cross(state, arch)
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert reference_outcomes, f"{program.name}: no candidate final memory reached"
    assert set(packed_outcomes) == reference_outcomes, f"{program.name}: outcomes diverge"


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
@pytest.mark.parametrize("name", PROMISING_SLICE)
def test_promise_first_conformance(name, arch):
    _assert_promise_first_equivalence(get_test(name).program, arch)


@pytest.mark.parametrize("test", GENERATED, ids=[t.name for t in GENERATED])
def test_generated_corpus_conformance(test):
    _assert_promise_first_equivalence(test.program, Arch.ARM)


# ---------------------------------------------------------------------------
# Naive (fully interleaved) successor laws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
@pytest.mark.parametrize("name", PROMISING_SLICE)
def test_naive_conformance(name, arch):
    program = get_test(name).program
    backend = _promising(program, arch)
    for state in _reachable(program, arch, limit=60):
        expected = [t.state.cache_key() for t in machine_transitions(state)]
        actual = [
            backend.decode(succ).cache_key() for succ in backend.successors(backend.encode(state))
        ]
        assert actual == expected, f"{name}: successor lists (or order) diverge"


def test_sample_strategy_walks_identical_traces():
    # Successor *order* is part of the contract: a seeded walk over the
    # packed successors must retrace a walk over machine_transitions.
    program = get_test("MP").program
    config = ExploreConfig(localise=False, strategy="sample", samples=16, seed=7)
    packed = explore_naive(program, config)

    reference = set()

    def expand(state):
        if state.is_final:
            reference.add(state.outcome())
            return []
        return [t.state for t in machine_transitions(state, config.cert_fuel)]

    kernel = SearchKernel(
        expand,
        strategy=strategy_for(config),
        max_states=config.max_states,
        key_fn=MachineState.cache_key,
    )
    stats = kernel.run([MachineState.initial(program, config.arch)])
    assert set(packed.outcomes) == reference
    assert packed.stats.samples_run == stats.samples_run
    assert packed.stats.promise_states == stats.states
    assert packed.stats.promise_transitions == stats.transitions


# ---------------------------------------------------------------------------
# Encode/decode laws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["MP", "LSE-atomicity"])
def test_packed_roundtrip_laws(name):
    program = get_test(name).program
    backend = _promising(program)
    for state in _reachable(program, Arch.ARM):
        packed = backend.encode(state)
        # key is the identity on packed states.
        assert backend.key(packed) == packed
        # encode/decode round-trips through the same packed id.
        assert backend.encode(backend.decode(packed)) == packed
        # decode lands in the same reference-key equivalence class.
        assert backend.decode(packed).cache_key() == state.cache_key()


def test_packed_key_equivalence_classes():
    # Two reference states with equal cache keys intern to the same id;
    # distinct keys to distinct ids.
    program = get_test("MP").program
    backend = _promising(program)
    by_key = {}
    for state in _reachable(program, Arch.ARM):
        by_key.setdefault(state.cache_key(), set()).add(backend.encode(state))
    ids = [next(iter(v)) for v in by_key.values()]
    assert all(len(v) == 1 for v in by_key.values())
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# Flat laws
# ---------------------------------------------------------------------------


def _reservation_clear_program():
    """The reservation-clear regression shape (see test_flat.py).

    T1's mis-speculated branch body contains a second load-exclusive of
    ``x``; the squashed load must take its reservation with it or the
    trailing store-exclusive pairs with a load that architecturally
    never happened.
    """
    env = LocationEnv()
    x, y = env["x"], env["y"]
    t0 = store(x, 7)
    t1 = seq(
        load("r0", x, exclusive=True),
        load("r1", y),
        if_(R("r1").eq(1), load("r2", x, exclusive=True)),
        store(x, 5, exclusive=True, succ_reg="rs"),
    )
    return make_program([t0, t1], env=env, name="reservation-clear"), x


def _flat_reachable(program, config, limit):
    init = initial_state(program, config.arch)
    seen = {init.cache_key(): init}
    frontier = [init]
    while frontier and len(seen) < limit:
        state = frontier.pop()
        for _label, succ in flat_successors(state, config):
            key = succ.cache_key()
            if key not in seen:
                seen[key] = succ
                frontier.append(succ)
    return list(seen.values())


def _flat(program, config):
    return PackedFlatBackend(program, config, FlatStats(), thread_transitions)


def _assert_flat_successors_match(program, config, limit):
    """Packed Flat successors == the reference relation, state by state."""
    backend = _flat(program, config)
    restarts = 0
    for state in _flat_reachable(program, config, limit=limit):
        expected = []
        for label, succ in flat_successors(state, config):
            expected.append(succ.cache_key())
            restarts += label == "restart"
        actual = [backend.decode(p).cache_key() for p in backend.successors(backend.encode(state))]
        assert actual == expected, f"{program.name}: successor lists (or order) diverge"
    # Every state was expanded exactly once, so the per-visit restart
    # accounting must agree too.
    assert backend.stats.restarts == restarts


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
@pytest.mark.parametrize("name", FLAT_SLICE)
def test_flat_conformance(name, arch):
    _assert_flat_successors_match(get_test(name).program, FlatConfig(arch=arch), limit=150)


def test_packed_flat_successors_match_reference_on_regression_program():
    program, _x = _reservation_clear_program()
    _assert_flat_successors_match(program, FlatConfig(), limit=200)


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_packed_flat_roundtrip_laws(arch):
    # Window entries, alternative continuations, speculation flags and
    # the reservation must all survive the pack/unpack cycle — the
    # regression program exercises every one of those fields.
    program, _x = _reservation_clear_program()
    config = FlatConfig(arch=arch)
    backend = _flat(program, config)
    for state in _flat_reachable(program, config, limit=250):
        packed_state = backend.encode(state)
        assert backend.key(packed_state) == packed_state
        assert backend.encode(backend.decode(packed_state)) == packed_state
        assert backend.decode(packed_state).cache_key() == state.cache_key()


def _reference_flat_outcomes(program, config):
    """Outcomes of an exhaustive search over the reference object relation."""
    init = initial_state(program, config.arch)
    seen = {init.cache_key()}
    frontier = [init]
    outcomes = set()
    while frontier:
        state = frontier.pop()
        if state.is_final:
            outcomes.add(state.outcome())
            continue
        for _label, succ in flat_successors(state, config):
            key = succ.cache_key()
            if key not in seen:
                seen.add(key)
                frontier.append(succ)
    return outcomes


@pytest.mark.parametrize("representation", ["object", "packed"])
def test_flat_reservation_clear_regression(representation):
    # A squashed exclusive load must clear the reservation, so the
    # non-atomic store-exclusive success is forbidden — under the
    # reference relation over object states and under the packed
    # explorer alike.
    program, x = _reservation_clear_program()
    config = FlatConfig()
    if representation == "object":
        outcomes = _reference_flat_outcomes(program, config)
    else:
        outcomes = explore_flat(program, config).outcomes
    assert len(outcomes) > 0
    assert not any(
        o.mem(x) == 5 and o.reg(1, "r0") == 0 and o.reg(1, "rs") == VSUCC
        for o in outcomes
    )


def test_conformance_slice_is_nontrivial():
    # Guard the slice itself: conformance over empty outcome sets would
    # be vacuous.
    for name in PROMISING_SLICE:
        result = explore(get_test(name).program, ExploreConfig())
        assert len(result.outcomes) > 0
