"""The execution backend: compiled programs, integer states.

Walking the reference dataclass graphs directly re-derives structure on
every visit: statements are decomposed per step enumeration, state
snapshots are deep tuples whose hashes walk every register and message
on every visited-set or memo probe, and a thread configuration recurring
across interleavings is re-certified (or at best re-hashed) each time.
The explorers therefore run on this backend, which removes all of that:

* the program is compiled once per job (:mod:`repro.isa.compile`),
  giving every reachable statement a dense id and precomputing its head
  decomposition, register dependencies and static successor ids; step
  candidates are enumerated off those tables
  (:meth:`CompiledProgram.candidate_steps`) with no per-visit ``Seq``
  walking or statement hashing;
* thread configurations ``(statement, thread state)`` and memories are
  interned to dense integer ids (:class:`~repro.promising.intern.IdInterner`),
  with the first-seen objects kept as the canonical decoded forms;
* a machine state is the flat tuple ``(tcfg_0, …, tcfg_{T-1}, mem)`` of
  those ids — it is its own visited-set key, and every visited/memo
  table keys on small immutable int tuples;
* certification builds its sequential graphs directly on interned
  ``(stmt id, packed regs, mem id)`` nodes
  (:func:`~repro.promising.certification.certify_compiled`) and the
  per-thread completion enumeration runs over ``(stmt id, thread
  state)`` nodes — no decode → certify → re-encode round trip on memo
  misses;
* dynamic behaviour still comes from the *reference* step rule bodies
  (:mod:`repro.promising.steps`) — run once per distinct ``(thread,
  thread-config, memory)`` triple, encoded, and replayed from integer
  memo tables on every later visit.

Successor *order* is preserved exactly (candidates before promises,
promises sorted by location/value, as in
:func:`~repro.promising.machine.machine_transitions`), so seeded
``sample`` runs walk the same traces as a search driven by the
reference machine steps.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Optional

from ..explore import DepthFirst, SearchKernel
from ..isa.compile import CompiledProgram, compile_program
from ..lang.program import Program
from ..obs import metrics
from ..obs.tracing import PhaseAccumulator
from ..outcomes import Outcome
from ..promising.certification import CertificationResult, certify_compiled
from ..promising.intern import IdInterner
from ..promising.machine import MachineState, Thread
from ..promising.steps import promise_step

#: Wall time per explorer phase (the registry returns the one counter for
#: the name, so every explorer reports into the same series).
EXPLORE_PHASE_SECONDS = metrics.counter(
    "explore_phase_seconds_total",
    "Wall time spent per explorer phase (certify/enumerate/intern).",
    labels=("model", "phase"),
)

#: Packed machine state: thread-config ids then the memory id.
Packed = tuple


class PackedPromisingBackend:
    """Promising-model backend over compiled programs and id tuples."""

    def __init__(self, program: Program, config, stats) -> None:
        self.program = program
        self.config = config
        self.arch = config.arch
        self.stats = stats
        self.compiled: CompiledProgram = compile_program(program)
        self._registers = self.compiled.registers
        #: (stmt id, packed tstate) -> dense id; objects are the
        #: canonical decoded ``(stmt, tstate)`` pairs.
        self._tcfgs = IdInterner()
        #: Per-tcfg data, parallel to ``self._tcfgs.objects``.
        self._tcfg_final: list[bool] = []
        self._tcfg_prom: list[bool] = []
        self._tcfg_sid: list[int] = []
        #: messages tuple -> dense id; objects are the Memory instances.
        #: Shared with certification, which interns the memories its
        #: sequential writes create, so a memory is hashed once per run.
        self._mems = IdInterner()
        #: ``(mem, loc, val, tid)`` -> appended memory id: promise and
        #: normal-write steps extend memory deterministically, so the
        #: resulting id never needs a messages-tuple hash twice.
        self._appends: dict[tuple, int] = {}
        #: Certification memo keyed by small ``(tid, tcfg, mem)`` tuples.
        self._certs: dict[tuple, CertificationResult] = {}
        self._cert_hits = 0
        self._cert_misses = 0
        self._steps: dict[tuple, tuple] = {}
        self._promise_steps: dict[tuple, tuple] = {}
        #: (tid, tcfg, mem) -> sorted tuple of interned register-file ids.
        self._completions: dict[tuple, tuple] = {}
        #: register-assignment tuple -> dense id; objects are the tuples.
        self._regs = IdInterner()
        #: mem id -> (final-values id, sorted final-values items); distinct
        #: memories with equal final values share the final-values id.
        self._final_mems: dict[int, tuple] = {}
        self._final_vals: dict[tuple, int] = {}
        #: (reg ids..., final-values id) combinations already turned into
        #: an Outcome: the cross product runs on ints and only fresh
        #: combinations materialise an object.
        self._outcome_seen: set[tuple] = set()
        self._step_hits = 0
        self._step_misses = 0
        self.phases = PhaseAccumulator()

    # -- encoding ----------------------------------------------------------
    def _encode_cfg(self, sid: int, ts) -> int:
        key = (sid, ts.pack(self._registers))
        table = self._tcfgs
        before = len(table)
        nid = table.intern(key, (self.compiled.stmts[sid].stmt, ts))
        if len(table) != before:
            self._tcfg_final.append(
                self.compiled.stmts[sid].terminated and not ts.prom
            )
            self._tcfg_prom.append(bool(ts.prom))
            self._tcfg_sid.append(sid)
        return nid

    def _encode_thread(self, stmt, ts) -> int:
        return self._encode_cfg(self.compiled.stmt_id(stmt), ts)

    def _encode_memory(self, memory) -> int:
        return self._mems.intern(memory.cache_key(), memory)

    def _append_id(self, mem: int, msg, memory) -> int:
        """Memory id of ``mems[mem]`` extended with ``msg`` (= ``memory``)."""
        key = (mem, msg.loc, msg.val, msg.tid)
        nid = self._appends.get(key)
        if nid is None:
            nid = self._encode_memory(memory)
            self._appends[key] = nid
        return nid

    def encode(self, state: MachineState) -> Packed:
        encode_thread = self._encode_thread
        return tuple(
            encode_thread(t.stmt, t.tstate) for t in state.threads
        ) + (self._encode_memory(state.memory),)

    def decode(self, packed: Packed) -> MachineState:
        objs = self._tcfgs.objects
        threads = tuple(Thread(*objs[i]) for i in packed[:-1])
        return MachineState(threads, self._mems.objects[packed[-1]], self.arch)

    def initial(self) -> Packed:
        return self.encode(MachineState.initial(self.program, self.arch))

    # -- certification ------------------------------------------------------
    def _certify(self, tid: int, cfg: int, mem: int) -> CertificationResult:
        """Memoised certification of one thread config under one memory.

        A result cut short by ``cert_fuel`` marks the run truncated, for
        both explorers alike.  The memo lives for one run, so every key's
        miss comes before its hits and flagging on the miss suffices.
        """
        key = (tid, cfg, mem)
        result = self._certs.get(key)
        if result is not None:
            self._cert_hits += 1
            return result
        self._cert_misses += 1
        _stmt, ts = self._tcfgs.objects[cfg]
        result = certify_compiled(
            self.compiled,
            self._tcfg_sid[cfg],
            ts,
            self._mems.objects[mem],
            self.arch,
            tid,
            self.config.cert_fuel,
            self._mems,
            mem_id=mem,
            appends=self._appends,
        )
        if not result.complete:
            self.stats.truncated = True
        self._certs[key] = result
        return result

    def certify_all(self, packed: Packed):
        """Certify every thread; returns (per-thread results, can-finish)."""
        phase_start = time.perf_counter()
        mem = packed[-1]
        per_thread = []
        can_finish = []
        for tid in range(len(packed) - 1):
            cert = self._certify(tid, packed[tid], mem)
            per_thread.append(cert)
            can_finish.append(cert.can_complete)
        self.phases.add("certify", time.perf_counter() - phase_start)
        return per_thread, can_finish

    # -- promise-first exploration ------------------------------------------
    def promise_successors(self, packed: Packed, per_thread) -> list[Packed]:
        mem = packed[-1]
        out: list[Packed] = []
        for tid, cert in enumerate(per_thread):
            memo_key = (tid, packed[tid], mem)
            pairs = self._promise_steps.get(memo_key)
            if pairs is None:
                self._step_misses += 1
                sid = self._tcfg_sid[packed[tid]]
                stmt, ts = self._tcfgs.objects[packed[tid]]
                memory = self._mems.objects[mem]
                encoded = []
                for msg in cert.promises:
                    # promise_step normalises the (already normalised)
                    # statement, so the successor keeps this thread's sid.
                    step = promise_step(stmt, ts, memory, msg)
                    encoded.append(
                        (
                            self._encode_cfg(sid, step.tstate),
                            self._append_id(mem, msg, step.memory),
                        )
                    )
                pairs = tuple(encoded)
                self._promise_steps[memo_key] = pairs
            else:
                self._step_hits += 1
            if pairs:
                prefix = packed[:tid]
                suffix = packed[tid + 1 : -1]
                for new_cfg, new_mem in pairs:
                    out.append(prefix + (new_cfg,) + suffix + (new_mem,))
        return out

    def completion_sets(self, packed: Packed) -> Optional[list[set[tuple]]]:
        """Per-thread final register sets under this (final) memory."""
        per_thread = self._completion_id_sets(packed)
        if per_thread is None:
            return None
        objects = self._regs.objects
        return [{objects[i] for i in ids} for ids in per_thread]

    def _completion_id_sets(self, packed: Packed) -> Optional[list[tuple]]:
        """Per-thread completion sets as tuples of interned register ids.

        ``None`` when some thread has no completing execution (the
        candidate final memory is infeasible).  A ``(thread, tcfg,
        memory)`` triple is enumerated once per run and recalled
        afterwards (``completion_memo_hits``).
        """
        stats = self.stats
        phase_start = time.perf_counter()
        mem = packed[-1]
        per_thread: list[tuple] = []
        feasible = True
        for tid in range(len(packed) - 1):
            memo_key = (tid, packed[tid], mem)
            ids = self._completions.get(memo_key)
            if ids is not None:
                stats.completion_memo_hits += 1
            else:
                ids = self._enumerate(tid, packed[tid], mem)
                self._completions[memo_key] = ids
            if not ids:
                feasible = False
                break
            per_thread.append(ids)
        self.phases.add("enumerate", time.perf_counter() - phase_start)
        return per_thread if feasible else None

    def accumulate_outcomes(self, outcomes, packed: Packed) -> None:
        """Cross per-thread completion sets into the outcome set.

        The cross product runs entirely on interned ids: a combination is
        a tuple of register-file ids plus the final-values id of the
        memory, and only combinations never seen before materialise an
        :class:`~repro.outcomes.Outcome` (from the already-canonical
        frozen tuples, so no dict rebuild or re-sort).  Promise
        interleavings overwhelmingly reconverge on the same completion
        sets and final values, which makes this the difference between
        hundreds of thousands of object constructions and a few.
        """
        per_thread = self._completion_id_sets(packed)
        if per_thread is None:
            return
        mem = packed[-1]
        entry = self._final_mems.get(mem)
        if entry is None:
            items = tuple(
                sorted(self._mems.objects[mem].final_values().items())
            )
            fm_id = self._final_vals.setdefault(items, len(self._final_vals))
            entry = (fm_id, items)
            self._final_mems[mem] = entry
        fm_id, items = entry
        seen = self._outcome_seen
        objects = self._regs.objects
        for combo in product(*per_thread):
            key = combo + (fm_id,)
            if key not in seen:
                seen.add(key)
                outcomes.add(
                    Outcome(tuple(objects[i] for i in combo), items)
                )

    def _enumerate(self, tid: int, cfg: int, mem: int) -> tuple:
        """Compiled run-to-completion enumeration of one thread.

        Non-promise phase of §7: memory is fixed, so the thread runs
        alone.  Nodes are ``(stmt id, thread state)`` pairs expanded
        through the compiled candidate tables (non-promise steps only,
        i.e. :func:`~repro.promising.steps.non_promise_steps`),
        deduplicated under ``(stmt id, packed regs)`` keys.  Always
        exhaustive (plain DFS), even when the outer search
        samples: a sampled run must under-approximate the reachable
        memories, never fabricate partial register files.  Returns the
        final register files as a sorted tuple of interned ids (decoded
        on demand by :meth:`completion_sets`).
        """
        sid = self._tcfg_sid[cfg]
        _stmt, ts = self._tcfgs.objects[cfg]
        memory = self._mems.objects[mem]
        compiled = self.compiled
        records = compiled.stmts
        registers = self._registers
        arch = self.arch
        results: set[tuple] = set()

        def expand(node):
            nsid, nts = node
            if records[nsid].terminated and not nts.prom:
                results.add(tuple(sorted(nts.register_values().items())))
                return []
            return [
                (succ_sid, step.tstate)
                for succ_sid, step in compiled.candidate_steps(
                    nsid, nts, memory, arch, tid, include_writes=False
                )
            ]

        kernel = SearchKernel(
            expand,
            strategy=DepthFirst(),
            max_states=self.config.max_states,
            key_fn=lambda node: (node[0], node[1].pack(registers)),
        )
        kernel.run([(sid, ts)])
        stats = self.stats
        stats.thread_enumeration_states += kernel.stats.states
        stats.thread_dedup_hits += kernel.stats.dedup_hits
        if kernel.stats.truncated:
            stats.truncated = True
        intern = self._regs.intern
        return tuple(sorted(intern(regs, regs) for regs in results))

    def final_memory(self, packed: Packed) -> dict:
        return self._mems.objects[packed[-1]].final_values()

    # -- naive (fully interleaved) exploration -------------------------------
    def successors(self, packed: Packed) -> list[Packed]:
        phase_start = time.perf_counter()
        mem = packed[-1]
        out: list[Packed] = []
        steps = self._steps
        for tid in range(len(packed) - 1):
            memo_key = (tid, packed[tid], mem)
            pairs = steps.get(memo_key)
            if pairs is None:
                self._step_misses += 1
                pairs = self._machine_steps(tid, packed[tid], mem)
                steps[memo_key] = pairs
            else:
                self._step_hits += 1
            if pairs:
                prefix = packed[:tid]
                suffix = packed[tid + 1 : -1]
                for new_cfg, new_mem in pairs:
                    out.append(prefix + (new_cfg,) + suffix + (new_mem,))
        self.phases.add("enumerate", time.perf_counter() - phase_start)
        return out

    def _machine_steps(self, tid: int, cfg: int, mem: int) -> tuple:
        """Certified steps of one thread config, in machine-step order."""
        sid = self._tcfg_sid[cfg]
        stmt, ts = self._tcfgs.objects[cfg]
        memory = self._mems.objects[mem]
        pairs = []
        for succ_sid, step in self.compiled.candidate_steps(
            sid, ts, memory, self.arch, tid
        ):
            step_cfg = self._encode_cfg(succ_sid, step.tstate)
            if step.memory is memory:
                step_mem = mem
            else:
                step_mem = self._encode_memory(step.memory)
            if self._certify(tid, step_cfg, step_mem).certified:
                pairs.append((step_cfg, step_mem))
        cert = self._certify(tid, cfg, mem)
        for msg in sorted(cert.promises, key=lambda m: (m.loc, m.val)):
            step = promise_step(stmt, ts, memory, msg)
            pairs.append(
                (
                    self._encode_cfg(sid, step.tstate),
                    self._append_id(mem, msg, step.memory),
                )
            )
        return tuple(pairs)

    def is_final(self, packed: Packed) -> bool:
        final = self._tcfg_final
        return all(final[i] for i in packed[:-1])

    def has_outstanding_promises(self, packed: Packed) -> bool:
        prom = self._tcfg_prom
        return any(prom[i] for i in packed[:-1])

    def outcome(self, packed: Packed):
        return self.decode(packed).outcome()

    # -- accounting ----------------------------------------------------------
    def finalise(self, stats, model: str) -> None:
        """Fold the id-table, cert and memo counters into stats; flush phases."""
        stats.interned_keys = self._tcfgs.unique + self._mems.unique
        stats.intern_hits = self._tcfgs.hits + self._mems.hits
        stats.cert_calls += self._cert_hits + self._cert_misses
        stats.cert_memo_hits += self._cert_hits
        stats.step_memo_hits += self._step_hits
        stats.step_memo_misses += self._step_misses
        self.phases.flush(EXPLORE_PHASE_SECONDS, model=model)


class PackedFlatBackend:
    """Flat-model backend with a packed window/restart/reservation state.

    A Flat thread's enabled transitions depend only on that thread and
    the versioned storage — threads interact exclusively through
    storage — so the packed representation mirrors the promising one:

    * threads intern to dense ids under a packed key (committed regs,
      window entries coded as ``(stmt id, alt-continuation id,
      speculated direction, done, value, success)`` tuples, continuation
      id, reservation), with the first-seen :class:`FlatThread` kept as
      the canonical decoded form;
    * storages intern to dense ids; a state is the flat int tuple
      ``(thread_0, …, thread_{T-1}, storage)``, its own visited-set key;
    * the per-thread labelled transition relation (injected from
      :mod:`repro.flat.explorer` as ``thread_transitions_fn``) runs once
      per distinct ``(thread, storage)`` pair and is replayed from an
      integer memo table — including its restart labels, so the restart
      counter counts every visit, exactly as the reference
      :func:`~repro.flat.explorer.successors` would;
    * storage writes memoise per ``(storage, loc, value)`` (the version
      bump is deterministic).

    Transition order is preserved exactly (threads in index order; per
    thread: fetch, then window entries in order), so seeded ``sample``
    runs walk the same traces as a search over the reference relation.
    """

    def __init__(self, program, config, stats, thread_transitions_fn) -> None:
        self.program = program
        self.config = config
        self.stats = stats
        self._thread_transitions = thread_transitions_fn
        #: Continuation/window statements -> dense ids (thread-key coding).
        self._stmt_ids: dict = {}
        #: packed thread key -> dense id; objects are FlatThread instances.
        self._threads = IdInterner()
        self._thread_final: list[bool] = []
        #: storage tuple -> dense id; objects are the storage tuples.
        self._storages = IdInterner()
        #: (thread id, storage id) -> ((label, new thread id, new storage id), ...)
        self._steps: dict[tuple, tuple] = {}
        #: (storage id, loc, value) -> written storage id.
        self._writes: dict[tuple, int] = {}
        self._step_hits = 0
        self._step_misses = 0
        self._initial: Optional[tuple] = None
        self._state_cls = None
        self.phases = PhaseAccumulator()

    # -- encoding ----------------------------------------------------------
    def _stmt_id(self, stmt) -> int:
        sid = self._stmt_ids.get(stmt)
        if sid is None:
            sid = len(self._stmt_ids)
            self._stmt_ids[stmt] = sid
        return sid

    def _encode_thread(self, thread) -> int:
        stmt_id = self._stmt_id
        key = (
            thread.regs,
            tuple(
                (
                    stmt_id(entry.stmt),
                    -1
                    if entry.alt_continuation is None
                    else stmt_id(entry.alt_continuation),
                    entry.speculated_taken,
                    entry.done,
                    entry.value,
                    entry.success,
                )
                for entry in thread.window
            ),
            stmt_id(thread.continuation),
            thread.reservation,
        )
        table = self._threads
        before = len(table)
        nid = table.intern(key, thread)
        if len(table) != before:
            self._thread_final.append(thread.finished)
        return nid

    def _encode_storage(self, storage: tuple) -> int:
        return self._storages.intern(storage, storage)

    def encode(self, state) -> Packed:
        if self._initial is None:
            self._initial = state.initial
            self._state_cls = type(state)
        return tuple(
            self._encode_thread(t) for t in state.threads
        ) + (self._encode_storage(state.storage),)

    def decode(self, packed: Packed):
        objs = self._threads.objects
        return self._state_cls(
            tuple(objs[i] for i in packed[:-1]),
            self._storages.objects[packed[-1]],
            self._initial,
        )

    def initial(self) -> Packed:
        from ..flat.machine import initial_state

        return self.encode(initial_state(self.program, self.config.arch))

    # -- transitions --------------------------------------------------------
    def successors(self, packed: Packed) -> list[Packed]:
        phase_start = time.perf_counter()
        storage = packed[-1]
        out: list[Packed] = []
        steps = self._steps
        stats = self.stats
        for tid in range(len(packed) - 1):
            memo_key = (packed[tid], storage)
            triples = steps.get(memo_key)
            if triples is None:
                self._step_misses += 1
                triples = self._expand_thread(packed[tid], storage)
                steps[memo_key] = triples
            else:
                self._step_hits += 1
            if triples:
                prefix = packed[:tid]
                suffix = packed[tid + 1 : -1]
                for label, new_thread, new_storage in triples:
                    if label == "restart":
                        stats.restarts += 1
                    out.append(prefix + (new_thread,) + suffix + (new_storage,))
        self.phases.add("enumerate", time.perf_counter() - phase_start)
        return out

    def _expand_thread(self, thread_id: int, storage_id: int) -> tuple:
        """Reference transitions of one (thread, storage) pair, encoded."""
        thread = self._threads.objects[thread_id]
        storage = self._storages.objects[storage_id]
        # Thread transitions consult the state for storage values and
        # versions only, so a thread-less skeleton state suffices.
        state = self._state_cls((), storage, self._initial)
        triples = []
        for label, new_thread, write in self._thread_transitions(
            thread, state, self.config
        ):
            new_tid = self._encode_thread(new_thread)
            if write is None:
                new_sid = storage_id
            else:
                wkey = (storage_id, write[0], write[1])
                new_sid = self._writes.get(wkey)
                if new_sid is None:
                    new_sid = self._encode_storage(
                        state.with_write(write[0], write[1]).storage
                    )
                    self._writes[wkey] = new_sid
            triples.append((label, new_tid, new_sid))
        return tuple(triples)

    # -- queries -------------------------------------------------------------
    def is_final(self, packed: Packed) -> bool:
        final = self._thread_final
        return all(final[i] for i in packed[:-1])

    def outcome(self, packed: Packed):
        return self.decode(packed).outcome()

    # -- accounting ----------------------------------------------------------
    def finalise(self, stats, model: str) -> None:
        """Fold the id-table and memo counters into stats; flush phases."""
        stats.interned_keys = self._threads.unique + self._storages.unique
        stats.intern_hits = self._threads.hits + self._storages.hits
        stats.step_memo_hits += self._step_hits
        stats.step_memo_misses += self._step_misses
        self.phases.flush(EXPLORE_PHASE_SECONDS, model=model)


__all__ = ["Packed", "PackedFlatBackend", "PackedPromisingBackend"]
