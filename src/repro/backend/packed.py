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
  (:func:`~repro.promising.certification.certify_compiled`), and the
  same build answers the §7 completion sets: the register files the
  thread finishes with over non-write edges — no decode → certify →
  re-encode round trip on memo misses, and no second search;
* dynamic behaviour still comes from the *reference* step rule bodies
  (:mod:`repro.promising.steps`) — run once per distinct ``(thread,
  thread-config, memory)`` triple, encoded, and replayed from integer
  memo tables on every later visit;
* certification answers, completion sets included, are memoised on a
  *canonical thread key* (:meth:`PackedPromisingBackend._thread_key`):
  the thread's statement, its state with timestamps replaced by their
  ranks, and only the messages at the locations it can access.
  Configurations that differ in foreign messages, or in where their own
  messages sit in memory, share one sequential-graph build.

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

from ..isa.compile import CompiledProgram, compile_program
from ..lang.program import Program
from ..lang.transform import accessed_locations
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
        #: Per thread, the locations it can access (``None`` when some
        #: address depends on registers): the projection of memory that
        #: :meth:`_thread_key` keeps.
        self._footprints = [
            locs if static else None for locs, static in map(accessed_locations, program.threads)
        ]
        #: Certification memo keyed by :meth:`_thread_key`.
        self._certs: dict[tuple, CertificationResult] = {}
        self._cert_hits = 0
        self._cert_misses = 0
        self._steps: dict[tuple, tuple] = {}
        self._promise_steps: dict[tuple, tuple] = {}
        #: mem id -> (final-values id, sorted final-values items); distinct
        #: memories with equal final values share the final-values id.
        self._final_mems: dict[int, tuple] = {}
        self._final_vals: dict[tuple, int] = {}
        #: (register files..., final-values id) combinations already
        #: turned into an Outcome: only fresh combinations materialise an
        #: object.
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
    def _thread_key(self, tid: int, cfg: int, mem: int) -> tuple:
        """Memo key of thread ``tid`` at config ``cfg`` under memory ``mem``.

        ``(tid, sid, relabelled state, kept messages)``: the kept messages
        are those at the thread's static footprint, in timestamp order;
        the state has every timestamp (``prom``, register views, ``coh``,
        the six views, ``fwdb`` and ``xclb`` times and views) replaced by
        its rank among the kept ones, 0 staying 0.  Certification
        (§4.3, §B, Theorem 6.4) and the §7 completion phase are
        thread-local (one sequential-graph build answers both), and their
        answers are equal for any two configurations with equal keys:

        1. Every timestamp in the thread state is 0 or the timestamp of a
           message at the footprint.  Views only take the timestamps
           this thread read or wrote, or maxima of those; ``prom`` holds
           the thread's own messages, at locations it writes.
        2. The rules the sequential build runs, on its write and
           non-write edges alike, read memory only at footprint
           locations: ``read_steps``
           (``writes_to``, ``no_write_to_in``), ``fulfil_steps``,
           ``_atomic`` and ``write_steps``.  They compare timestamps only
           with each other and with ``|M|``, and so does the promise
           harvest (``pre_view <= max_ts``).
        3. Extend the rank map with ``|M|+k -> |K|+k`` for the build's own
           writes.  It preserves every one of those comparisons, and the
           order in which ``writes_to`` lists candidates, so the
           relabelled build is the same graph in the same discovery
           order, with the same fuel cut-off.
        4. The answers hold no timestamps: promises are ``Msg(loc, val,
           tid)`` and completion sets hold register values only.  So the
           answer is equal field by field, ``visited`` included.

        Initial values, arch and ``cert_fuel`` are constant within a run
        (the memos are per run), so the key leaves them out.  A thread
        with a register-dependent address, or a state holding a
        timestamp outside the rank map (where 1. fails), keeps the raw
        ``(tid, cfg, mem)`` key, which is sound in every case; raw keys
        have three fields and canonical keys four, so the two never
        collide in one dict.
        """
        footprint = self._footprints[tid]
        if footprint is None:
            return (tid, cfg, mem)
        rank = {0: 0}
        kept = []
        for t, msg in enumerate(self._mems.objects[mem].messages, 1):
            if msg.loc in footprint:
                kept.append(msg)
                rank[t] = len(kept)
        ts = self._tcfgs.objects[cfg][1]
        xclb = ts.xclb
        try:
            state = (
                tuple(sorted(rank[t] for t in ts.prom)),
                tuple(sorted((r, v, rank[n]) for r, (v, n) in ts.regs.items())),
                tuple(sorted((loc, rank[n]) for loc, n in ts.coh.items())),
                rank[ts.vrOld],
                rank[ts.vwOld],
                rank[ts.vrNew],
                rank[ts.vwNew],
                rank[ts.vCAP],
                rank[ts.vRel],
                tuple(
                    sorted((loc, rank[f.time], rank[f.view], f.xcl) for loc, f in ts.fwdb.items())
                ),
                None if xclb is None else (rank[xclb.time], rank[xclb.view]),
            )
        except KeyError:
            return (tid, cfg, mem)
        return (tid, self._tcfg_sid[cfg], state, tuple(kept))

    def _certify(self, tid: int, cfg: int, mem: int) -> CertificationResult:
        """Memoised certification of one thread config under one memory.

        A result cut short by ``cert_fuel`` marks the run truncated, for
        both explorers alike, on a hit as well as on a miss: a canonical
        key's hit may answer a configuration other than the one whose
        miss computed it.
        """
        key = self._thread_key(tid, cfg, mem)
        result = self._certs.get(key)
        if result is not None:
            self._cert_hits += 1
        else:
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
            self._certs[key] = result
        if not result.complete:
            self.stats.truncated = True
        return result

    def certify_all(self, packed: Packed):
        """Certify every thread; returns (per-thread results, can-finish)."""
        phase_start = time.perf_counter()
        mem = packed[-1]
        per_thread = [self._certify(tid, packed[tid], mem) for tid in range(len(packed) - 1)]
        self.phases.add("certify", time.perf_counter() - phase_start)
        return per_thread, [cert.can_complete for cert in per_thread]

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

    def accumulate_outcomes(self, outcomes, packed: Packed, per_thread) -> None:
        """Cross per-thread completion sets into the outcome set.

        ``per_thread`` is :meth:`certify_all`'s answer for ``packed``, a
        candidate final memory; each ``completions`` set was read off the
        thread's certification graph.  A combination is a tuple of
        register files plus the final-values id of the memory, and only
        combinations never seen before materialise an
        :class:`~repro.outcomes.Outcome` (from the already-canonical
        frozen tuples, so no dict rebuild or re-sort).  Promise
        interleavings overwhelmingly reconverge on the same completion
        sets and final values, which makes this the difference between
        hundreds of thousands of object constructions and a few.
        """
        phase_start = time.perf_counter()
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
        for combo in product(*(cert.completions for cert in per_thread)):
            key = combo + (fm_id,)
            if key not in seen:
                seen.add(key)
                outcomes.add(Outcome(combo, items))
        self.phases.add("enumerate", time.perf_counter() - phase_start)

    def final_memory(self, packed: Packed) -> dict:
        return self._mems.objects[packed[-1]].final_values()

    # -- naive (fully interleaved) exploration -------------------------------
    def successors(self, packed: Packed) -> list[Packed]:
        """Certified machine steps; certification time books as ``certify``."""
        phase_start = time.perf_counter()
        certify_s = 0.0
        mem = packed[-1]
        out: list[Packed] = []
        steps = self._steps
        for tid in range(len(packed) - 1):
            memo_key = (tid, packed[tid], mem)
            pairs = steps.get(memo_key)
            if pairs is None:
                self._step_misses += 1
                pairs, seconds = self._machine_steps(tid, packed[tid], mem)
                certify_s += seconds
                steps[memo_key] = pairs
            else:
                self._step_hits += 1
            if pairs:
                prefix = packed[:tid]
                suffix = packed[tid + 1 : -1]
                for new_cfg, new_mem in pairs:
                    out.append(prefix + (new_cfg,) + suffix + (new_mem,))
        self.phases.add("certify", certify_s)
        self.phases.add("enumerate", time.perf_counter() - phase_start - certify_s)
        return out

    def _machine_steps(self, tid: int, cfg: int, mem: int) -> tuple[tuple, float]:
        """Certified steps of one thread config, in machine-step order.

        Also returns the seconds spent in :meth:`_certify`.
        """
        clock = time.perf_counter
        sid = self._tcfg_sid[cfg]
        stmt, ts = self._tcfgs.objects[cfg]
        memory = self._mems.objects[mem]
        pairs = []
        certify_s = 0.0
        for succ_sid, step in self.compiled.candidate_steps(
            sid, ts, memory, self.arch, tid
        ):
            step_cfg = self._encode_cfg(succ_sid, step.tstate)
            if step.memory is memory:
                step_mem = mem
            else:
                step_mem = self._encode_memory(step.memory)
            start = clock()
            certified = self._certify(tid, step_cfg, step_mem).certified
            certify_s += clock() - start
            if certified:
                pairs.append((step_cfg, step_mem))
        start = clock()
        cert = self._certify(tid, cfg, mem)
        certify_s += clock() - start
        for msg in sorted(cert.promises, key=lambda m: (m.loc, m.val)):
            step = promise_step(stmt, ts, memory, msg)
            pairs.append(
                (
                    self._encode_cfg(sid, step.tstate),
                    self._append_id(mem, msg, step.memory),
                )
            )
        return tuple(pairs), certify_s

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
