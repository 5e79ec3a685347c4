"""Conformance of the execution backend to the interpreted reference rules.

The packed backend swaps the *representation* of machine states, never
the semantics.  These laws hold it, state by state, to the rules it is
compiled from — on a catalogue slice, a generated corpus slice and both
architectures:

* certification equals :func:`~repro.promising.certification.find_and_certify`
  field by field (certified, promises, complete, completions, visited);
* completion sets, read off the certification graph, equal a DFS over
  :func:`~repro.promising.steps.non_promise_steps`;
* both hold on footprint memories: answers recalled for a
  configuration that differs from the computed one only in foreign
  messages or timestamp placement are the reference answers too, and
  the ``(cfg, fmem)`` pair separates what the rules can observe (values
  and order at the footprint, views) while a dynamic address keeps the
  whole memory;
* promise-first successors and accumulated outcomes equal those built
  from the reference certification and ``promise_step``;
* naive successors equal :func:`~repro.promising.machine.machine_transitions`
  id for id once encoded, and in order, ``is_final`` and outcomes agree,
  and the naive explorer visits exactly the states and transitions of a
  search over ``machine_transitions`` keyed on the encoding;
* every step kernel (:mod:`repro.isa.compile`) equals
  :func:`~repro.promising.steps.sequential_steps` on every node of every
  certification graph both explorers build, and the promise kernel
  equals :func:`~repro.promising.steps.promise_step`;
* Flat successors equal :func:`repro.flat.explorer.successors` in state
  keys, order and restart count;

and the packed encoding is a quotient of the reference states: every
law holds the backend at ``encode(s)`` to the rules at ``s``, reference
states that encode equally get equal answers from the rules, and states
with equal ``cache_key``s encode equally.  Whole-run outcome sets are
pinned separately by the frozen golden digests (``tests/test_golden.py``).
"""

from collections import Counter
from itertools import product

import pytest

from repro.backend import PackedFlatBackend, PackedPromisingBackend
from repro.explore import SearchKernel
from repro.flat import (
    FlatConfig,
    FlatStats,
    explore_flat,
    initial_state,
    thread_transitions,
)
from repro.flat import successors as flat_successors
from repro.isa.compile import compile_program, promise_key
from repro.lang import (
    LocationEnv,
    R,
    Skip,
    Store,
    assign,
    dependency_idiom,
    if_,
    load,
    make_program,
    seq,
    store,
)
from repro.lang.kinds import VSUCC, Arch, WriteKind
from repro.lang.transform import accessed_locations, observed_locations
from repro.litmus import generate_cycle_battery, get_test
from repro.outcomes import Outcome, OutcomeSet
from repro.promising import (
    ExploreConfig,
    explore,
    explore_naive,
    find_and_certify,
    is_terminated,
    non_promise_steps,
    promise_step,
    sequential_steps,
)
from repro.promising.certification import CompiledSequentialGraph
from repro.promising.exhaustive import ExplorationStats
from repro.promising.machine import MachineState, Thread, machine_transitions
from repro.promising.state import Forward, Memory, Msg, TState, initial_tstate

ARCHS = [Arch.ARM, Arch.RISCV]
ARCH_IDS = [a.value for a in ARCHS]

# Small-but-varied slice: message passing, store buffering, dependencies,
# multicopy atomicity, exclusives, and a write-heavy shape.
PROMISING_SLICE = ["MP", "SB", "LB+addrs", "WRC+pos", "LSE-atomicity", "2+2W"]
# The flat model's state spaces are far larger; keep its slice lean.
FLAT_SLICE = ["MP", "SB", "CoRW2"]
# A deterministic slice of the generated (fuzz) corpus.
GENERATED = [
    t
    for t in generate_cycle_battery(families=("MP",))
    if t.name in ("MP+po+po", "MP+po+addr", "MP+po+ctrl", "MP+po+ctrlisb")
]
# Cycle-corpus tests with threads whose footprint misses a location
# another thread writes: the inputs where footprint memories share work.
CYCLES = {
    t.name: t
    for t in generate_cycle_battery(max_per_family=1)
    if t.name in ("WRC+po+po", "ISA2+po+po+po", "IRIW+po+po", "3.2W+po+po+po")
}


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


def _reference_register_files(thread, memory, arch, tid) -> set:
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
        _reference_register_files(thread, state.memory, arch, tid)
        for tid, thread in enumerate(state.threads)
    ]
    final = state.memory.final_values()
    return {Outcome.make([dict(regs) for regs in combo], final) for combo in product(*per_thread)}


# ---------------------------------------------------------------------------
# Certification and completion-set laws
# ---------------------------------------------------------------------------


def _partial_footprint(program) -> bool:
    """Can some thread's footprint memory miss another thread's message?

    It keeps its own messages and the others' at the static addresses of
    its loads and store exclusives (``observed_locations``).
    """
    observed = [observed_locations(stmt) for stmt in program.threads]
    written = [
        accessed_locations(stmt, lambda access: isinstance(access, Store))[0]
        for stmt in program.threads
    ]
    return any(
        static and not written[writer] <= locs
        for tid, (locs, static) in enumerate(observed)
        for writer in range(len(written))
        if writer != tid
    )


def _assert_cert_equivalence(program, arch, limit):
    """Packed ``certify_all`` == the references, pointwise.

    For every reachable machine state the packed answer must agree with
    the reference sequential-graph build on every certification field
    (down to the graph's visited count and the completion set) and, on
    every complete answer, its completion set must equal the plain DFS
    over ``non_promise_steps``.  One backend answers every
    state, so its ``(tid, cfg, fmem)`` memo is under test too: when a
    thread's footprint misses some location, some answers must be
    recalled for a ``(tid, cfg, mem)`` triple the backend had never
    certified before.
    """
    backend = _promising(program, arch)
    fuel = backend.config.cert_fuel
    checked_final_memories = 0
    certified_triples = set()
    recalled = 0
    for state in _reachable(program, arch, limit=limit):
        enc = backend.encode(state)
        fresh = {(tid, enc[tid], enc[-1]) for tid in range(len(enc) - 1)}
        fresh -= certified_triples
        certified_triples |= fresh
        misses = backend._cert_misses
        packed, can_finish = backend.certify_all(enc)
        recalled += len(fresh) - (backend._cert_misses - misses)
        for tid, (thread, p) in enumerate(zip(state.threads, packed)):
            ref = find_and_certify(thread.stmt, thread.tstate, state.memory, arch, tid, fuel)
            context = f"{program.name} thread {tid}"
            assert p.certified == ref.certified, context
            assert p.promises == ref.promises, context
            assert p.complete == ref.complete, context
            assert p.completions == ref.completions, context
            assert p.can_complete == ref.can_complete == can_finish[tid], context
            assert p.visited == ref.visited, context
            if p.complete:
                assert set(p.completions) == _reference_register_files(
                    thread, state.memory, arch, tid
                ), f"{context}: completion sets diverge"
        if all(can_finish):
            checked_final_memories += 1
    assert checked_final_memories > 0, "slice never reached a final memory"
    if _partial_footprint(program):
        assert recalled > 0, f"{program.name}: no answer came from a shared footprint memory"


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
@pytest.mark.parametrize("name", ["MP", "WRC+pos", "IRIW+pos", "LSE-atomicity", "2+2W", *CYCLES])
def test_certification_equivalence_laws(name, arch):
    test = CYCLES.get(name) or get_test(name)
    _assert_cert_equivalence(test.program, arch, limit=60)


@pytest.mark.parametrize("test", GENERATED, ids=[t.name for t in GENERATED])
def test_certification_equivalence_on_generated_corpus(test):
    _assert_cert_equivalence(test.program, Arch.ARM, limit=40)


def _three_threads(address_dependency=False):
    """T0 accesses x and y only; T1 writes z, which T0 never accesses."""
    env = LocationEnv()
    x, y, z = env["x"], env["y"], env["z"]
    addr = dependency_idiom(y, "r2") if address_dependency else y
    threads = [
        seq(store(x, 1), load("r0", addr)),
        store(z, 1),
        seq(load("r1", z), store(y, 1)),
    ]
    return make_program(threads, env=env, name="three-threads"), (x, y, z)


def _triple(backend, messages, tstate=None, tid=0):
    """``(tid, cfg, fmem)`` of thread ``tid`` in ``tstate`` (default: initial)."""
    initial = MachineState.initial(backend.program, backend.arch)
    threads = list(initial.threads)
    if tstate is not None:
        threads[tid] = Thread(threads[tid].stmt, tstate)
    memory = Memory(backend.program.initial, messages)
    enc = backend.encode(MachineState(tuple(threads), memory, backend.arch))
    return tid, enc[tid], backend._rows.objects[enc[-1]][tid]


def _tstate(**fields):
    ts = initial_tstate()
    for name, value in fields.items():
        setattr(ts, name, value)
    return ts


def test_footprint_memory_laws():
    program, (x, y, z) = _three_threads()
    backend = _promising(program)

    def key(messages, tstate=None):
        return _triple(backend, messages, tstate)[1:]

    x1, y1, y2, z1 = Msg(x, 1, 0), Msg(y, 1, 2), Msg(y, 2, 2), Msg(z, 1, 1)
    # Foreign messages drop out, and T0's own message keeps its rank
    # wherever it sits in memory: promised, or written and forwarded.
    own_at = {t: _tstate(prom=frozenset({t})) for t in (1, 2)}
    assert key([x1], own_at[1]) == key([z1, x1], own_at[2]) == key([x1, z1], own_at[1])
    wrote_at = {t: _tstate(coh={x: t}, vwOld=t, fwdb={x: Forward(t, 0, False)}) for t in (1, 2)}
    assert key([x1], wrote_at[1]) == key([z1, x1], wrote_at[2])
    assert backend._fmems.objects[key([z1, x1])[1]].messages == (x1,)
    # So do other threads' messages at a location T0 writes but never
    # loads: only its own messages there are observable.
    assert key([x1]) == key([x1, Msg(x, 2, 1)]) == key([Msg(x, 2, 1), x1])
    # What the rules can observe keeps pairs apart.
    assert key([y1]) != key([y2])
    assert key([x1, y1]) != key([y1, x1])
    assert key([y1]) != key([y1], _tstate(vrNew=1))
    # A timestamp outside the footprint is no reachable state: refused.
    for stray in (_tstate(vrNew=1), _tstate(fwdb={x: Forward(1, 0, False)})):
        with pytest.raises(ValueError, match="outside its footprint"):
            key([z1], stray)
    # A register-dependent address gets the whole memory.
    program, _locs = _three_threads(address_dependency=True)
    backend = _promising(program)
    assert backend._fmems.objects[key([z1])[1]].messages == (z1,)
    assert key([z1]) != key([])


def test_finished_thread_completes_with_its_own_register_file():
    # A terminated, promise-free thread is answered without a graph: its
    # completion set is its own register file, on both entries.
    program, _locs = _three_threads()
    backend = _promising(program)
    ts = _tstate(regs={"r0": (1, 0), "r1": (3, 0)})
    files = frozenset({(("r0", 1), ("r1", 3))})
    ref = find_and_certify(Skip(), ts, Memory(), Arch.ARM, 0)
    assert (ref.completions, ref.visited, ref.certified) == (files, 1, True)
    initial = MachineState.initial(program, Arch.ARM)
    state = MachineState((Thread(Skip(), ts),) + initial.threads[1:], initial.memory, Arch.ARM)
    (cert, *_rest), can_finish = backend.certify_all(backend.encode(state))
    assert (cert.completions, cert.visited, can_finish[0]) == (files, 1, True)


def test_recalled_incomplete_certification_still_truncates():
    # A hit on a shared footprint memory answers a configuration other
    # than the one that computed it, so the truncation flag must not ride
    # on the miss.
    program, (_x, _y, z) = _three_threads()
    backend = PackedPromisingBackend(program, ExploreConfig(cert_fuel=1), ExplorationStats())
    assert not backend._certify(*_triple(backend, [])).complete
    assert backend.stats.truncated
    backend.stats = ExplorationStats()
    triple = _triple(backend, [Msg(z, 1, 1)])
    misses, hits = backend._cert_misses, backend._cert_hits
    assert not backend._certify(*triple).complete
    assert (backend._cert_misses, backend._cert_hits) == (misses, hits + 1)
    assert backend.stats.truncated


# ---------------------------------------------------------------------------
# Promise-first laws
# ---------------------------------------------------------------------------


def _assert_promise_first_equivalence(program, arch, limit=60):
    """Walk the reference promise-first frontier, checking each step.

    At every visited reference state ``s`` the packed promise successors
    of ``encode(s)`` must be exactly the encoded reference ones (certified
    promises applied with ``promise_step``), and the outcomes accumulated
    at candidate final memories must equal the reference cross product of
    DFS completion sets.
    """
    backend = _promising(program, arch)
    fuel = backend.config.cert_fuel
    packed_outcomes = OutcomeSet()
    reference_outcomes = set()
    initial = MachineState.initial(program, arch)
    seen = {initial.cache_key()}
    frontier = [initial]
    while frontier and len(seen) < limit:
        state = frontier.pop()
        enc = backend.encode(state)
        per_thread, can_finish = backend.certify_all(enc)
        steps = []
        for tid, thread in enumerate(state.threads):
            ref = find_and_certify(thread.stmt, thread.tstate, state.memory, arch, tid, fuel)
            for msg in ref.promises:
                step = promise_step(thread.stmt, thread.tstate, state.memory, msg)
                steps.append(state.replace_thread(tid, step))
        expected = Counter(map(backend.encode, steps))
        actual = Counter(backend.promise_successors(enc, per_thread))
        assert actual == expected, f"{program.name}: promise successors diverge"
        if all(can_finish):
            backend.accumulate_outcomes(packed_outcomes, enc, per_thread)
            reference_outcomes |= _reference_cross(state, arch)
        for succ in steps:
            key = succ.cache_key()
            if key not in seen:
                seen.add(key)
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
@pytest.mark.parametrize("name", [*PROMISING_SLICE, *CYCLES])
def test_naive_conformance(name, arch):
    program = (CYCLES.get(name) or get_test(name)).program
    backend = _promising(program, arch)
    classes = {}
    for state in _reachable(program, arch, limit=60):
        packed = backend.encode(state)
        classes.setdefault(packed, set()).add(state.cache_key())
        # Replayed steps land on the ids encoding the reference states, in order.
        expected = [backend.encode(t.state) for t in machine_transitions(state)]
        assert backend.successors(packed) == expected, f"{name}: successor lists diverge"
        assert backend.is_final(packed) == state.is_final, name
        if state.is_final:
            assert backend.outcome(packed) == state.outcome(), name
    # The backend reads nothing but ``encode(s)``, so equal answers per
    # state are equal answers across a class.  Where nobody loads, the
    # sample must hold a class of two reference states.
    if name == "2+2W":
        assert any(len(keys) > 1 for keys in classes.values()), "nothing merged"


def _reference_search(program, config, key_fn=MachineState.cache_key):
    """Outcomes and kernel stats of a search over ``machine_transitions``."""
    outcomes = set()

    def expand(state):
        if state.is_final:
            outcomes.add(state.outcome())
            return []
        return [t.state for t in machine_transitions(state, config.cert_fuel)]

    kernel = SearchKernel(expand, config, key_fn=key_fn)
    return outcomes, kernel.run([MachineState.initial(program, config.arch)])


@pytest.mark.parametrize(
    ("name", "arch"),
    [
        pytest.param("WRC+po+po", Arch.ARM, id="WRC+po+po"),
        pytest.param("IRIW+po+po", Arch.ARM, id="IRIW+po+po"),
        pytest.param("ISA2+po+po+po", Arch.ARM, id="ISA2+po+po+po"),
        pytest.param("2+2W", Arch.ARM, id="2+2W-ARM"),
        pytest.param("2+2W", Arch.RISCV, id="2+2W-RISC-V"),
    ],
)
def test_naive_state_counts_equal_reference_search(name, arch):
    # A packed state stands for the reference states that encode to it,
    # so the naive explorer visits exactly what a search over the rules
    # keyed on the encoding visits.  On 2+2W (nobody loads) classes hold
    # several reference states: keyed on full states, the search visits
    # more.
    program = (CYCLES.get(name) or get_test(name)).program
    config = ExploreConfig(arch=arch, localise=False)
    packed = explore_naive(program, config)
    _outcomes, stats = _reference_search(program, config, _promising(program, arch).encode)
    assert packed.stats.promise_states == stats.states
    assert packed.stats.promise_transitions == stats.transitions
    if name == "2+2W":
        _outcomes, full = _reference_search(program, config)
        assert full.states > stats.states, "nothing merged where nobody loads"


# ---------------------------------------------------------------------------
# Quotient laws: reference states that encode equally are bisimilar
# ---------------------------------------------------------------------------

PROJECTION_PROGRAMS = {
    **{name: test.program for name, test in CYCLES.items()},
    **{name: get_test(name).program for name in PROMISING_SLICE},
    **{test.name: test.program for test in GENERATED},
}


def _rule_signature(backend, state):
    """Everything a search reads off ``state``, from the rules, successors encoded."""
    arch, fuel = backend.arch, backend.config.cert_fuel
    certs, promised = [], Counter()
    for tid, thread in enumerate(state.threads):
        ref = find_and_certify(thread.stmt, thread.tstate, state.memory, arch, tid, fuel)
        certs.append((ref.certified, ref.promises, ref.complete, ref.completions))
        for msg in ref.promises:
            step = promise_step(thread.stmt, thread.tstate, state.memory, msg)
            promised[backend.encode(state.replace_thread(tid, step))] += 1
    return (
        [backend.encode(t.state) for t in machine_transitions(state, fuel)],
        promised,
        certs,
        state.is_final,
        state.outcome() if state.is_final else None,
    )


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
@pytest.mark.parametrize("name", PROJECTION_PROGRAMS)
def test_projection_classes_agree_on_everything_a_search_reads(name, arch):
    """Group reference states by their packed projection: the rules agree.

    Every member of a class gets the same encoded machine and promise
    successors, certification fields, ``is_final`` and outcome from the
    rules themselves, which is the bisimulation argued in
    ``PackedPromisingBackend._encode_memory``; the conformance laws then
    hold the backend to the rules at each member.  The sample is larger
    than theirs.
    """
    program = PROJECTION_PROGRAMS[name]
    backend = _promising(program, arch)
    classes = {}
    merged = 0
    for state in _reachable(program, arch, limit=200):
        signature = _rule_signature(backend, state)
        first = classes.setdefault(backend.encode(state), signature)
        merged += first is not signature
        assert signature == first, f"{name}: a class disagrees"
    if name in ("2+2W", "3.2W+po+po+po"):
        assert merged > 0, "nothing merged where nobody loads"


def _exclusive_pair_against_a_plain_store():
    """T0 pairs a load exclusive of ``y`` with a store exclusive to ``x``; T1 writes ``x``.

    No thread loads ``x``, yet T0's store exclusive must see T1's write:
    after a load exclusive of timestamp 0, atomicity forbids any foreign
    write to ``x`` before the store exclusive's own.
    """
    env = LocationEnv()
    x, y = env["x"], env["y"]
    threads = [
        seq(load("r0", y, exclusive=True), store(x, 1, exclusive=True, succ_reg="r1")),
        store(x, 2),
    ]
    return make_program(threads, env=env, name="xcl-pair+store"), x


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_store_exclusive_address_is_observed(arch):
    program, x = _exclusive_pair_against_a_plain_store()
    config = ExploreConfig(arch=arch, localise=False)
    reference, _stats = _reference_search(program, config)
    assert set(explore(program, config).outcomes) == reference
    assert set(explore_naive(program, config).outcomes) == reference
    # The non-atomic success: T1's write lands between the load
    # exclusive's initial read and T0's store exclusive.
    assert not any(o.reg(0, "r1") == VSUCC and o.mem(x) == 1 for o in reference)
    assert any(o.reg(0, "r1") == VSUCC for o in reference)


def test_sample_strategy_walks_identical_traces():
    # Successor *order* is part of the contract: a seeded walk over the
    # packed successors must retrace a walk over machine_transitions,
    # also on 2+2W, where packed states stand for several reference ones.
    for name, arch in [("MP", Arch.ARM), *(("2+2W", arch) for arch in ARCHS)]:
        program = get_test(name).program
        config = ExploreConfig(arch=arch, localise=False, strategy="sample", samples=16, seed=7)
        packed = explore_naive(program, config)
        reference, stats = _reference_search(program, config)
        context = f"{name} on {arch.value}"
        assert set(packed.outcomes) == reference, context
        assert packed.stats.samples_run == stats.samples_run, context
        assert packed.stats.promise_states == stats.states, context
        assert packed.stats.promise_transitions == stats.transitions, context


# ---------------------------------------------------------------------------
# Step-kernel laws
# ---------------------------------------------------------------------------

# Catalogue shapes with exclusives, release/acquire (strong and weak
# acquires) and forwarding, on top of the promise-first slice (which has
# LSE-atomicity already).
KERNEL_CATALOGUE = ["LSE-fwd-acq", "SB+rel+acq", "SB+rel+wacq", "MP+dmb+addr+coh"]


def _assign_and_lone_exclusive():
    """Register assignments, a store exclusive no load exclusive pairs (it
    can only fail), and a weak release."""
    env = LocationEnv()
    x, y = env["x"], env["y"]
    threads = [
        seq(
            load("r0", x),
            assign("r1", R("r0") + 1),
            store(y, R("r1"), exclusive=True, succ_reg="rs"),
            store(x, 2, kind=WriteKind.WREL),
        ),
        seq(store(x, 1), load("r2", y)),
    ]
    return make_program(threads, env=env, name="assign+lone-xcl")


KERNEL_PROGRAMS = {
    "assign+lone-xcl": _assign_and_lone_exclusive(),
    **{name: get_test(name).program for name in [*PROMISING_SLICE, *KERNEL_CATALOGUE]},
    **{name: test.program for name, test in CYCLES.items()},
    **{test.name: test.program for test in GENERATED},
}


def _reference_triples(compiled, sid, key, memory, tid):
    """:func:`sequential_steps` in kernel form: ``(succ stmt id, succ key, write)``."""
    triples = []
    ts = TState.from_key(key)
    for step in sequential_steps(compiled.stmts[sid].stmt, ts, memory, compiled.arch, tid):
        write = None
        if step.kind == "write":
            write = (step.loc, step.value, step.pre_view, step.coh_before)
        triples.append((compiled.stmt_id(step.stmt), step.tstate.key(), write))
    return triples


def _certification_nodes(program, arch, monkeypatch):
    """Every node of every certification graph promise-first and naive build.

    Yields ``(graph, stmt id, thread-state key, memory)`` once per distinct
    node of each exploration run.
    """
    graphs = []
    build = CompiledSequentialGraph.build

    def recording_build(graph, *args):
        graphs.append(graph)
        return build(graph, *args)

    with monkeypatch.context() as patch:
        patch.setattr(CompiledSequentialGraph, "build", recording_build)
        for run in (explore, explore_naive):
            run(program, ExploreConfig(arch=arch))
    seen = set()
    for graph in graphs:
        memories = graph.mem_ids.objects
        for sid, key, mem_id in graph._ids:
            node = (id(graph.mem_ids), graph.tid, sid, key, mem_id)
            if node not in seen:
                seen.add(node)
                yield graph, sid, key, memories[mem_id]


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
@pytest.mark.parametrize("name", KERNEL_PROGRAMS)
def test_step_kernel_laws(name, arch, monkeypatch):
    writes = 0
    for graph, sid, key, memory in _certification_nodes(KERNEL_PROGRAMS[name], arch, monkeypatch):
        compiled, tid = graph.compiled, graph.tid
        stmt = compiled.stmts[sid].stmt
        context = f"{name} thread {tid} at {stmt!r} in {key}"
        assert TState.from_key(key).key() == key, context
        triples = compiled.stmts[sid].step(key, memory.messages, tid)
        assert triples == _reference_triples(compiled, sid, key, memory, tid), context
        # A promise leaves the statement and gains timestamp |M|+1,
        # whatever the message.
        step = promise_step(stmt, TState.from_key(key), memory, Msg(0, 1, tid))
        assert compiled.stmt_id(step.stmt) == sid, context
        assert step.tstate.key() == promise_key(key, memory.messages), context
        writes += any(write is not None for _sid, _key, write in triples)
    assert writes, f"{name}: no node takes a normal write"


def test_read_of_the_initial_write_sets_coherence():
    # The key tells ``coh = {x: 0}`` from ``coh = {}``: a read of the
    # initial write records the location even though its view stays 0.
    env = LocationEnv()
    x = env["x"]
    program = make_program([load("r0", x)], env=env, name="read-initial")
    compiled = compile_program(program, Arch.ARM)
    sid = compiled.stmt_id(program.threads[0])
    key = initial_tstate().key()
    ((succ_sid, succ_key, write),) = compiled.stmts[sid].step(key, (), 0)
    assert key[2] == () and succ_key[2] == ((x, 0),)
    assert [(succ_sid, succ_key, write)] == _reference_triples(compiled, sid, key, Memory(), 0)


# ---------------------------------------------------------------------------
# Encoding laws
# ---------------------------------------------------------------------------


# Full footprints (MP, LSE-atomicity), where relabelling is the
# identity, and partial ones (WRC+pos, IRIW+pos), where it is not.
ROUNDTRIP = ["MP", "LSE-atomicity", "WRC+pos", "IRIW+pos"]


def _assert_on_footprint_memory(backend, packed):
    """Each stored thread state lives on its footprint memory.

    Every promise and forwarding entry names the thread's own message there.
    """
    fmems = backend._rows.objects[packed[-1]]
    for tid, cfg in enumerate(packed[:-1]):
        ts = TState.from_key(backend._tcfgs.objects[cfg][1])
        messages = backend._fmems.objects[fmems[tid]].messages
        own = {t: msg.loc for t, msg in enumerate(messages, 1) if msg.tid == tid}
        assert ts.prom <= own.keys(), f"thread {tid}: promises off its footprint memory"
        for loc, fwd in ts.fwdb.items():
            assert fwd.time == 0 or own.get(fwd.time) == loc, f"thread {tid}: stale fwdb"


@pytest.mark.parametrize("name", ROUNDTRIP)
def test_packed_roundtrip_laws(name):
    program = get_test(name).program
    backend = _promising(program)
    for state in _reachable(program, Arch.ARM):
        _assert_on_footprint_memory(backend, backend.encode(state))


def test_packed_key_equivalence_classes():
    # Two reference states with equal cache keys intern to the same id.
    # On these programs some thread observes both of every two messages,
    # so the quotient merges nothing: distinct keys get distinct ids.
    for name in ROUNDTRIP:
        program = get_test(name).program
        backend = _promising(program)
        by_key = {}
        for state in _reachable(program, Arch.ARM):
            by_key.setdefault(state.cache_key(), set()).add(backend.encode(state))
        ids = [next(iter(v)) for v in by_key.values()]
        assert all(len(v) == 1 for v in by_key.values()), name
        assert len(ids) == len(set(ids)), name


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


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_flat_mp_fwd_gap_is_in_the_thread_relation(arch):
    # Flat lacks one outcome of MP+fwd that the axiomatic model allows.
    # The packed explorer finds exactly what an exhaustive search over
    # the reference relation finds, so the gap is in the Flat thread
    # relation: `_earlier_blocks_load` holds r1 behind the pending r0
    # (same address) although the store between them could forward 51.
    # By the time r0 has read 42, x=37 has propagated, and r2, which
    # depends on r1 for its address, cannot read the initial x.
    from repro.axiomatic.model import AxiomaticConfig, enumerate_axiomatic_outcomes

    program = get_test("MP+fwd").program
    config = FlatConfig(arch=arch)
    flat = set(explore_flat(program, config).outcomes)
    assert flat == _reference_flat_outcomes(program, config)
    assert len(flat) == 6
    axiomatic = set(enumerate_axiomatic_outcomes(program, AxiomaticConfig(arch=arch)).outcomes)
    assert flat < axiomatic
    (missing,) = axiomatic - flat
    assert (missing.reg(1, "r0"), missing.reg(1, "r1"), missing.reg(1, "r2")) == (42, 51, 0)


def test_conformance_slice_is_nontrivial():
    # Guard the slice itself: conformance over empty outcome sets would
    # be vacuous.
    for name in PROMISING_SLICE:
        result = explore(get_test(name).program, ExploreConfig())
        assert len(result.outcomes) > 0
