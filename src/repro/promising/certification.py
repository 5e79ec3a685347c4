"""Certification and promise enumeration (§4.3, §B, Theorem 6.4).

A thread configuration ⟨T, M⟩ is *certified* when the thread, executing
sequentially (alone, with every new promise immediately fulfilled), can
reach a state with no outstanding promises.  The machine only takes steps
that lead to certified configurations.

:func:`find_and_certify` is the algorithmic counterpart used by the
executable tool: starting from a certified configuration it returns the
set of promise messages whose addition keeps the configuration certified
(exactly the promises the machine should offer, per Theorem 6.4), by
enumerating the thread's bounded sequential executions and harvesting the
writes whose pre-view and coherence view do not exceed the current
maximal timestamp.  The same graph also yields the register files the
thread can finish with while memory stays fixed (the §7 completion set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import Stmt
from ..lang.kinds import Arch
from ..lang.program import TId
from .state import Memory, Msg, TState
from .steps import is_terminated, non_promise_steps, sequential_steps

#: Default bound on the number of sequential states a single certification
#: run may visit.  Certification explores one thread in isolation, so this
#: is rarely reached except for programs with unbounded loops.
DEFAULT_FUEL = 4000


@dataclass(frozen=True)
class CertificationResult:
    """Result of :func:`find_and_certify` / :func:`certify_compiled`.

    Attributes
    ----------
    certified:
        Whether the configuration itself can fulfil all its promises.
    promises:
        Messages that may be promised next while staying certified.
    complete:
        False when the sequential search was truncated by ``fuel``; in
        that case every other field is an under-approximation (sound for
        exploration, possibly missing behaviours).
    visited:
        Number of sequential states visited (for diagnostics/benchmarks).
    completions:
        Register files (sorted ``(reg, value)`` tuples) the thread can
        finish with while memory stays fixed: the §7 completion set.
    """

    certified: bool
    promises: frozenset[Msg]
    complete: bool
    visited: int
    completions: frozenset[tuple]

    @property
    def can_complete(self) -> bool:
        """Can the thread finish with memory fixed (some completion exists)?"""
        return bool(self.completions)


def _state_key(stmt: Stmt, ts: TState, memory: Memory) -> tuple:
    return (stmt, ts.cache_key(), memory.cache_key())


def _register_file(key: tuple) -> tuple:
    """Sorted ``(reg, value)`` pairs of a thread-state key (views dropped)."""
    return tuple((reg, value) for reg, (value, _view) in key[1])


#: What an edge remembers of a normal write: ``(loc, value, pre_view,
#: coh_before)``, or ``None`` on every other edge.
Write = Optional[tuple]


class _SequentialGraphBase:
    """Shared node/edge store and reachability passes of the two builds.

    Nodes are thread configurations reachable by sequential steps; edges
    remember the write performed (if any) so promise candidates can be
    harvested afterwards, and completions walked over the non-write
    ones.  Node identities are hash-consed to dense integer ids and the
    reachability passes run on ints only; what differs between the
    subclasses is the node *key* and who computes the steps.
    """

    def __init__(self, arch: Arch, tid: TId, fuel: int) -> None:
        self.arch = arch
        self.tid = tid
        self.fuel = fuel
        self._ids: dict[tuple, int] = {}
        #: Edge lists indexed by node id (parallel list, not a dict).
        self.edges: list[Optional[list[tuple[int, Write]]]] = []
        self.fulfilled: set[int] = set()
        #: Terminated *and* promise-free nodes -> their register files.
        self.finished: dict[int, tuple] = {}
        self.complete = True

    @property
    def n_nodes(self) -> int:
        return len(self._ids)

    def can_reach_fulfilled(self) -> set[int]:
        """Ids of nodes from which a promise-free state is reachable.

        A backward search from the promise-free nodes.  Sequential graphs
        are nearly trees: a node is a thread state *and* a memory, and two
        paths meet where a state forgets how it got there, as when a
        register loaded twice (``r1 = ld x; r1 = ld x``) absorbs the first
        read's view.  So each node's first predecessor goes in one flat
        int list and only a node with more gets a list of the rest: no
        list per node, and nothing new for the garbage collector to trace.
        """
        first = [-1] * len(self.edges)
        more: dict[int, list[int]] = {}
        for src, succs in enumerate(self.edges):
            for dst, _step in succs or ():
                if first[dst] < 0:
                    first[dst] = src
                else:
                    more.setdefault(dst, []).append(src)
        good = set(self.fulfilled)
        worklist = list(good)
        while worklist:
            node = worklist.pop()
            pred = first[node]
            if pred >= 0 and pred not in good:
                good.add(pred)
                worklist.append(pred)
            for pred in more.get(node, ()):
                if pred not in good:
                    good.add(pred)
                    worklist.append(pred)
        return good

    def completions(self, root: int) -> frozenset[tuple]:
        """Register files of the finished nodes ``root`` reaches over non-write edges."""
        seen = {root}
        stack = [root]
        while stack:
            for dst, step in self.edges[stack.pop()] or ():
                if step is None and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        finished = self.finished
        return frozenset(finished[node] for node in seen if node in finished)


class _SequentialGraph(_SequentialGraphBase):
    """The reference build: the rules of ``steps.py`` on deep configuration keys.

    Nodes are keyed ``(statement, thread-state snapshot, memory)`` and
    expanded by :func:`~repro.promising.steps.sequential_steps`.
    """

    def _intern(self, stmt: Stmt, ts: TState, memory: Memory) -> tuple[int, bool]:
        """Dense id for a configuration, plus whether it is new."""
        key = _state_key(stmt, ts, memory)
        nid = self._ids.get(key)
        if nid is not None:
            return nid, False
        nid = len(self._ids)
        self._ids[key] = nid
        self.edges.append(None)
        return nid, True

    def build(self, stmt: Stmt, ts: TState, memory: Memory) -> int:
        root, _ = self._intern(stmt, ts, memory)
        stack = [(root, stmt, ts, memory)]
        while stack:
            nid, stmt, ts, memory = stack.pop()
            if self.edges[nid] is not None:
                continue
            if not ts.prom:
                self.fulfilled.add(nid)
                if is_terminated(stmt):
                    self.finished[nid] = _register_file(ts.cache_key())
            if len(self._ids) >= self.fuel:
                # Truncated: leave this node unexpanded.
                self.edges[nid] = []
                self.complete = False
                continue
            successors: list[tuple[int, Write]] = []
            for step in sequential_steps(stmt, ts, memory, self.arch, self.tid):
                succ, fresh = self._intern(step.stmt, step.tstate, step.memory)
                write = None
                if step.kind == "write":
                    write = (step.loc, step.value, step.pre_view, step.coh_before)
                successors.append((succ, write))
                if fresh:
                    stack.append((succ, step.stmt, step.tstate, step.memory))
            self.edges[nid] = successors
        return root


class CompiledSequentialGraph(_SequentialGraphBase):
    """The packed build: step kernels on ``(stmt id, thread-state key, mem id)`` nodes.

    A node is a compiled statement id, a :meth:`TState.key()
    <repro.promising.state.TState.key>` tuple and a memory id, and it is
    expanded by the statement's step kernel (:mod:`repro.isa.compile`),
    which maps a key straight to its successor keys: no thread state is
    copied, keyed or re-sorted, and no step record is built.  The build
    names its own memories: ``memories[id]`` is a messages tuple (the
    root's first), and an append memo keyed ``(mem id, loc, value)``
    derives a successor's id from its predecessor's, never from a
    by-value hash.  A tuple determines its parent, so equal tuples get
    equal ids, and both tables go with the graph.  The kernels enumerate
    the rules of ``steps.py`` in their order, so node equivalence
    classes, discovery order and fuel cut-off are those of
    :class:`_SequentialGraph`, and both builds produce the same
    :class:`CertificationResult`; the conformance suite holds them to
    that, and each kernel to the rules node by node.
    """

    def __init__(self, compiled, tid: TId, fuel: int) -> None:
        super().__init__(compiled.arch, tid, fuel)
        self.compiled = compiled
        self.memories: list[tuple] = []

    def build(self, sid: int, key: tuple, messages: tuple) -> int:
        """Build from statement ``sid`` in state ``key`` on ``messages``: node 0, memory 0."""
        records = self.compiled.stmts
        memories = self.memories = [messages]
        appends: dict[tuple, int] = {}
        ids = self._ids
        edges = self.edges
        tid = self.tid
        ids[(sid, key, 0)] = 0
        edges.append(None)
        stack = [(0, sid, key, messages, 0)]
        while stack:
            nid, sid, key, messages, mem_id = stack.pop()
            if edges[nid] is not None:
                continue
            record = records[sid]
            if not key[0]:
                self.fulfilled.add(nid)
                if record.terminated:
                    self.finished[nid] = _register_file(key)
            if len(ids) >= self.fuel:
                edges[nid] = []
                self.complete = False
                continue
            successors: list[tuple[int, Write]] = []
            for succ_sid, succ_key, write in record.step(key, messages, tid):
                if write is None:
                    succ_mem, succ_messages = mem_id, messages
                else:
                    akey = (mem_id, write[0], write[1])
                    succ_mem = appends.get(akey)
                    if succ_mem is None:
                        succ_mem = appends[akey] = len(memories)
                        memories.append(messages + (Msg(write[0], write[1], tid),))
                    succ_messages = memories[succ_mem]
                node = (succ_sid, succ_key, succ_mem)
                succ = ids.get(node)
                if succ is None:
                    succ = ids[node] = len(edges)
                    edges.append(None)
                    stack.append((succ, succ_sid, succ_key, succ_messages, succ_mem))
                successors.append((succ, write))
            edges[nid] = successors
        return 0


def certified(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Is the thread configuration certified (rule r24)?

    A configuration with no outstanding promises is trivially certified;
    otherwise we search the thread's sequential executions for a state
    with an empty promise set.
    """
    if not ts.prom:
        return True
    graph = _SequentialGraph(arch, tid, fuel)
    root = graph.build(stmt, ts, memory)
    return root in graph.can_reach_fulfilled()


def find_and_certify(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int = DEFAULT_FUEL,
) -> CertificationResult:
    """Answer every thread-local question of §B and §7 from ONE graph build.

    The explorers ask four things of a thread configuration: is it
    certified, which promises may it make next, can it finish with memory
    fixed, and with which register files.  All four are read off the
    thread's bounded sequential graph, so it is built once:

    1. enumerate the thread's sequential executions under the current
       memory (bounded by ``fuel``);
    2. keep only execution prefixes from which a promise-free state
       remains reachable (the configuration is certified when its root is
       one of them);
    3. every normal write performed on such a prefix whose pre-view and
       coherence view (at its location, before the write) are at most the
       current maximal timestamp is a legal promise;
    4. the register files of the *finished* nodes (terminated and
       promise-free) that the root reaches over non-write edges are the
       completion set of §7's run-to-completion phase.

    Step 4 is that phase, not an approximation of it:

    * The non-write edges are exactly the ``thread_local_steps`` =
      :func:`~repro.promising.steps.non_promise_steps` relation: the
      candidate steps other than the normal writes.  None of them
      changes memory, so every node reached without a write edge has the
      root's memory.
    * A finished node is the accepting state of a fixed-memory run; its
      register file is ``tuple(sorted(ts.register_values().items()))``.
    * Nodes are deduplicated on the thread state at a fixed memory, as a
      dedicated DFS over ``non_promise_steps`` would be.  So on a complete
      graph the harvested set is that DFS's result, and ``can_complete``
      (the set is non-empty) is :func:`can_complete_without_promising`.
    * A graph cut short by ``fuel`` (which write successors spend too)
      yields a subset of the true set: every file in it is reachable.
      ``complete`` is then False, and the explorers mark the run
      truncated on every incomplete answer, recalled or built.
    * The set holds register values and no timestamps, so it is the same
      for a configuration relabelled onto its footprint memory, and the
      ``(tid, cfg, fmem)`` memo that holds certification answers
      (:meth:`~repro.backend.packed.PackedPromisingBackend._certify`)
      holds it too.

    A terminated, promise-free thread needs no graph: it is certified,
    promises nothing and finishes with its own register file.
    """
    if not ts.prom and is_terminated(stmt):
        return _finished(ts.cache_key())
    graph = _SequentialGraph(arch, tid, fuel)
    root = graph.build(stmt, ts, memory)
    return _answer(graph, root, memory.last_timestamp, tid)


def _finished(key: tuple) -> CertificationResult:
    """The answer for a terminated, promise-free thread (no graph built)."""
    return CertificationResult(
        certified=True,
        promises=frozenset(),
        complete=True,
        visited=1,
        completions=frozenset({_register_file(key)}),
    )


def _answer(graph: _SequentialGraphBase, root: int, max_ts: int, tid: TId) -> CertificationResult:
    """Steps 2-4 of :func:`find_and_certify` on a built graph."""
    good = graph.can_reach_fulfilled()
    return CertificationResult(
        certified=root in good,
        promises=_harvest_promises(graph, good, max_ts, tid),
        complete=graph.complete,
        visited=graph.n_nodes,
        completions=graph.completions(root),
    )


def _harvest_promises(
    graph: _SequentialGraphBase, good: set[int], max_ts: int, tid: TId
) -> frozenset[Msg]:
    """Step 3 of §B: writes on certified prefixes whose views fit memory."""
    promises: set[Msg] = set()
    for src, succs in enumerate(graph.edges):
        if src not in good:
            continue
        for dst, write in succs or ():
            if write is None or dst not in good:
                continue
            loc, value, pre_view, coh_before = write
            if pre_view <= max_ts and coh_before <= max_ts:
                promises.add(Msg(loc, value, tid))
    return frozenset(promises)


def certify_compiled(
    compiled, sid: int, key: tuple, tid: TId, fuel: int, messages: tuple
) -> CertificationResult:
    """:func:`find_and_certify` over the compiled step kernels.

    ``compiled`` is a :class:`~repro.isa.compile.CompiledProgram`, ``sid``
    the dense id of the thread's statement, ``key`` its thread-state key
    and ``messages`` its memory's messages tuple (initial values are the
    program's).  Answers every question from one
    :class:`CompiledSequentialGraph` build, which keeps the memories its
    writes create, with the same results as the reference entry.
    """
    if not key[0] and compiled.stmts[sid].terminated:
        return _finished(key)
    graph = CompiledSequentialGraph(compiled, tid, fuel)
    root = graph.build(sid, key, messages)
    return _answer(graph, root, len(messages), tid)


def can_complete_without_promising(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Can the thread terminate, fulfilling all promises, with memory fixed?

    A plain DFS over :func:`~repro.promising.steps.non_promise_steps`:
    every remaining step must be a non-promise step (no new messages), the
    statement must reduce to ``skip`` and the promise set must drain.  The
    explorers read the same answer off the certification graph
    (:attr:`CertificationResult.can_complete`); this search is the tests'
    independent reference for it.
    """
    seen: set[tuple] = set()
    stack = [(stmt, ts)]
    visited = 0
    while stack:
        cur_stmt, cur_ts = stack.pop()
        key = (cur_stmt, cur_ts.cache_key())
        if key in seen:
            continue
        seen.add(key)
        visited += 1
        if visited > fuel:
            return False
        if is_terminated(cur_stmt) and not cur_ts.prom:
            return True
        for step in non_promise_steps(cur_stmt, cur_ts, memory, arch, tid):
            stack.append((step.stmt, step.tstate))
    return False


__all__ = [
    "DEFAULT_FUEL",
    "CertificationResult",
    "CompiledSequentialGraph",
    "certified",
    "certify_compiled",
    "find_and_certify",
    "can_complete_without_promising",
]
