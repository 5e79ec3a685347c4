"""The execution backend: compiled programs, integer states.

Walking the reference dataclass graphs directly re-derives structure on
every visit: statements are decomposed per step enumeration, state
snapshots are deep tuples whose hashes walk every register and message
on every visited-set or memo probe, and a thread configuration recurring
across interleavings is re-certified (or at best re-hashed) each time.
The explorers therefore run on this backend, which removes all of that:

* the program is compiled once per job (:mod:`repro.isa.compile`),
  giving every reachable statement a dense id, its static successor ids
  and a *step kernel*: the statement's sequential step relation as a
  function from a thread-state key (:meth:`TState.key()
  <repro.promising.state.TState.key>`) and the memory's messages to
  successor keys, with no per-visit ``Seq`` walking, statement hashing,
  state copying or key sorting;
* thread configurations ``(stmt id, thread-state key)`` are interned to
  dense integer ids (:class:`~repro.promising.intern.IdInterner`); a
  configuration is its own decoded form, and the backend never rebuilds
  a :class:`~repro.promising.state.TState` from it;
* every thread configuration is stored relative to the thread's
  *footprint memory* (:meth:`PackedPromisingBackend._encode_memory`):
  the messages it can observe — its own, and the others' at the static
  addresses of its loads and store exclusives — renumbered 1..k in
  timestamp order.  A memory is interned as its *row*: every thread's
  footprint-memory id, then the id of its final values.  So the
  thread-local work below keys on the plain ``(tid, cfg, fmem)`` ids and
  is shared by every memory that differs only in messages the thread
  cannot observe, or in where its own sit;
* a machine state is the flat tuple ``(tcfg_0, …, tcfg_{T-1}, row)`` of
  those ids, its own visited-set key, and every visited/memo table keys
  on small immutable int tuples.  The tuple forgets the order of
  messages no thread observes, and states it merges are bisimilar
  (:meth:`PackedPromisingBackend._encode_memory`), so a search visits
  one state per class;
* certification builds its sequential graph from a thread config and
  its footprint memory's messages, numbering the memories its writes
  create itself (:func:`~repro.promising.certification.certify_compiled`),
  and the same build answers the §7 completion sets: the register files
  the thread finishes with over non-write edges — no decode → certify →
  re-encode round trip on memo misses, and no second search;
* dynamic behaviour comes from the step kernels, which the conformance
  suite holds to the reference rule bodies (:mod:`repro.promising.steps`)
  node by node — run once per distinct ``(thread, thread-config,
  footprint memory)`` triple on the footprint memory, encoded as ``(new
  config, written message or None)`` pairs, and replayed from integer
  memo tables on every later visit;
* one memo, keyed on ``(tid, cfg, fmem)``, holds the certification
  answers, completion sets included.

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

from ..isa.compile import CompiledProgram, compile_program, promise_key
from ..lang.program import Program
from ..lang.transform import observed_locations
from ..obs import metrics
from ..obs.tracing import PhaseAccumulator
from ..outcomes import Outcome
from ..promising.certification import CertificationResult, certify_compiled
from ..promising.intern import IdInterner
from ..promising.machine import MachineState
from ..promising.state import Msg

#: Wall time per explorer phase (the registry returns the one counter for
#: the name, so every explorer reports into the same series).
EXPLORE_PHASE_SECONDS = metrics.counter(
    "explore_phase_seconds_total",
    "Wall time spent per explorer phase (certify/enumerate/intern).",
    labels=("model", "phase"),
)

#: Packed machine state: thread-config ids then the memory row's id.
Packed = tuple


def _relabel(key: tuple, times) -> tuple:
    """Thread-state ``key`` with every timestamp ``t`` replaced by ``times[t]``.

    Covers ``prom``, register views, ``coh``, the six views and the
    ``fwdb``/``xclb`` times and views; register values carry none.  No
    name changes, so the sorted tuples stay sorted.
    """
    prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, xclb = key
    return (
        frozenset(times[t] for t in prom),
        tuple((r, (v, times[n])) for r, (v, n) in regs),
        tuple((loc, times[n]) for loc, n in coh),
        times[vrOld],
        times[vwOld],
        times[vrNew],
        times[vwNew],
        times[vCAP],
        times[vRel],
        tuple((loc, (times[t], times[n], xcl)) for loc, (t, n, xcl) in fwdb),
        None if xclb is None else (times[xclb[0]], times[xclb[1]]),
    )


class PackedPromisingBackend:
    """Promising-model backend over compiled programs and id tuples."""

    def __init__(self, program: Program, config, stats) -> None:
        self.program = program
        self.config = config
        self.arch = config.arch
        self.stats = stats
        self.compiled: CompiledProgram = compile_program(program, config.arch)
        #: ``(stmt id, thread-state key)`` -> dense id; the objects are
        #: those pairs, the key relabelled onto the footprint memory.
        self._tcfgs = IdInterner()
        #: Per-tcfg data, parallel to ``self._tcfgs.objects``.
        self._tcfg_final: list[bool] = []
        self._tcfg_prom: list[bool] = []
        #: Memory rows -> dense id; the objects are the rows.  A row is
        #: each thread's footprint-memory id and then the id of the
        #: memory's final values, and its id ends a packed state.
        self._rows = IdInterner()
        #: ``(row id, loc, val, tid)`` -> the row id after appending that
        #: message: promise and normal-write steps extend memory
        #: deterministically, so each successor row is derived once.
        self._appends: dict[tuple, int] = {}
        #: Per thread, the locations at which it keeps other threads'
        #: messages: the static addresses of its loads and store
        #: exclusives (``None`` when one of them depends on registers: the
        #: thread keeps every message).
        self._observed = [
            locs if static else None for locs, static in map(observed_locations, program.threads)
        ]
        #: Footprint memories of machine states (messages tuple -> dense
        #: id; the objects are the tuples), and ``(fmem, loc, val, tid)``
        #: -> the id after appending that message.
        self._fmems = IdInterner()
        self._fmem_appends: dict[tuple, int] = {}
        #: Final values (sorted ``(loc, value)`` items) -> dense id, and
        #: back: distinct memories with equal final values share the id.
        self._final_vals: dict[tuple, int] = {}
        self._final_items: list[tuple] = []
        #: Certification memo keyed ``(tid, cfg, fmem)``.
        self._certs: dict[tuple, CertificationResult] = {}
        self._cert_hits = 0
        self._cert_misses = 0
        #: Certification builds cut short by ``cert_fuel``, and the most
        #: nodes one build visited.
        self._fuel_hits = 0
        self._max_nodes = 0
        #: Step memos keyed ``(tid, cfg, fmem)``: ``(new cfg, written
        #: message or None)`` pairs in successor order.
        self._steps: dict[tuple, tuple] = {}
        self._promise_steps: dict[tuple, tuple] = {}
        #: (register files..., final-values id) combinations already
        #: turned into an Outcome: only fresh combinations materialise an
        #: object.
        self._outcome_seen: set[tuple] = set()
        self._step_hits = 0
        self._step_misses = 0
        self.phases = PhaseAccumulator()

    # -- encoding ----------------------------------------------------------
    def _encode_cfg(self, sid: int, key: tuple) -> int:
        cfg = (sid, key)
        table = self._tcfgs
        before = len(table)
        nid = table.intern(cfg, cfg)
        if len(table) != before:
            self._tcfg_final.append(self.compiled.stmts[sid].terminated and not key[0])
            self._tcfg_prom.append(bool(key[0]))
        return nid

    def _keeps(self, tid: int, loc, writer: int) -> bool:
        """Whether thread ``tid``'s footprint memory keeps ``writer``'s messages at ``loc``."""
        observed = self._observed[tid]
        return writer == tid or observed is None or loc in observed

    def _kept_times(self, memory, tid: int) -> list[int]:
        """0, then the timestamps of the messages in ``tid``'s footprint memory."""
        keeps = self._keeps
        return [0] + [t for t, msg in enumerate(memory.messages, 1) if keeps(tid, msg.loc, msg.tid)]

    def _final_id(self, values: dict) -> int:
        """Dense id of the final values ``values`` (a ``loc -> value`` dict)."""
        items = tuple(sorted(values.items()))
        fid = self._final_vals.get(items)
        if fid is None:
            fid = self._final_vals[items] = len(self._final_items)
            self._final_items.append(items)
        return fid

    def _encode_memory(self, memory) -> int:
        """Memory id of ``memory``: the id of its row.

        A thread's footprint memory keeps the messages it can observe: its
        own, at any location, and the other threads' at the static
        addresses of its loads and store exclusives (every message when
        one of those addresses depends on registers).  They are
        renumbered 1..k in timestamp order, and the thread configuration
        is stored relabelled onto them, timestamp ``t_r`` becoming ``r``
        and 0 staying 0.  Certification (§4.3, §B, Theorem 6.4), the §7
        completion phase and the thread's machine steps are thread-local,
        and the thread's steps on its footprint memory are its steps on
        the full memory, relabelled:

        1. In a reachable thread state, every timestamp is 0, the
           timestamp of one of the thread's own messages or of one it
           read, or a maximum of those.  Views only take timestamps the
           thread read or wrote; ``prom``, ``fwdb`` and ``xclb`` hold its
           own messages or the ones it read.  A thread reads only at the
           addresses of its loads, so each of these messages is kept.
        2. The rules, and the step kernels held to them, read other
           threads' messages only at observed addresses: ``read_steps``
           (``writes_to``, ``no_write_to_in``) at the load's address, and
           ``_atomic`` at the store exclusive's own address, where it
           scans ``(tr, tw)`` for foreign writes.  When the load exclusive
           read timestamp 0, that scan covers every write before ``tw``
           whatever the load's address, so a store exclusive's address
           counts as observed even if no load reads it.  Otherwise the
           rules touch the thread's own messages (``fulfil_steps`` looks
           up its promises, ``write_steps`` appends one) and the message
           the load exclusive read.  They compare timestamps only with
           each other and with ``|M|``, and so does the promise harvest
           (``pre_view <= max_ts``).
        3. Renumbering the kept messages 1..k preserves every such
           comparison and the order in which ``writes_to`` lists
           candidates.  A fresh write at ``|M|+1`` becomes ``k+1``.  So
           the thread's steps on its footprint memory are its steps on
           the full memory, relabelled and in the same order.  Its
           certification graph is the same graph, with the same
           ``visited`` count and the same fuel cut-off.  Promises
           (``Msg(loc, val, tid)``) and completion sets hold no
           timestamps.
        4. Appending a message renumbers nothing already in memory.  So
           another thread's relabelled state stays valid when one thread
           writes.  A new message enters thread *j*'s footprint memory
           iff *j* keeps it: it is *j*'s own, or at an address *j*
           observes (:meth:`_append_id`).  The final values evolve from
           the final values and the message alone: the message's
           location takes its value.
        5. For a fixed memory the relabelling is a bijection: a packed
           state forgets nothing but what the footprint memories and the
           final values leave out.  Successors come in the reference
           order (item 3), so seeded ``sample`` walks retrace the same
           traces.
        6. The certification key ``(tid, cfg, fmem)`` is the thread, its
           statement, its relabelled state and its kept messages: two
           configurations with equal keys get equal answers, field by
           field.

        The memory id is the row's: every thread's footprint-memory id and
        the final-values id.  Two reference states that encode equally are
        bisimilar, by items 2, 4 and 6:

        * every thread-local answer (certification, completions, the step
          and promise memos) keys on ``(tid, cfg, fmem)``, so both states
          get the same ones;
        * so each successor appends the same message, or none, to both
          memories.  Whether a thread keeps the message depends on the
          message alone, and so do the new final values: the successors
          encode equally, and in the same order;
        * ``is_final`` and the naive outcome read the config ids and the
          final values, and promise-first outcomes cross completion sets
          with the final values.

        So a search visiting one packed state per class finds every
        outcome.  It merges memories that differ only in the order of
        messages no thread observes, such as two threads' writes to
        locations nobody loads (3.2W).  Initial values, arch and
        ``cert_fuel`` are constant within a run (the memos are per run),
        so the keys leave them out.
        """
        row = []
        for tid in range(len(self._observed)):
            kept = tuple(memory.msg(t) for t in self._kept_times(memory, tid)[1:])
            row.append(self._fmems.intern(kept, kept))
        row.append(self._final_id(memory.final_values()))
        row = tuple(row)
        return self._rows.intern(row, row)

    def _fmem_append_id(self, fmem: int, msg) -> int:
        """Footprint-memory id of ``fmems[fmem]`` extended with ``msg``."""
        key = (fmem, msg.loc, msg.val, msg.tid)
        nid = self._fmem_appends.get(key)
        if nid is None:
            messages = self._fmems.objects[fmem] + (msg,)
            nid = self._fmem_appends[key] = self._fmems.intern(messages, messages)
        return nid

    def _append_id(self, mem: int, msg) -> int:
        """Memory id of the memory ``mem`` names, extended with ``msg``.

        The new row is derived from ``mem``'s: a thread that keeps ``msg``
        (its own, or at an address it observes) gets ``fmem + msg``, every
        other thread keeps its id, and ``msg.loc`` takes ``msg.val`` in the
        final values.
        """
        key = (mem, msg.loc, msg.val, msg.tid)
        nid = self._appends.get(key)
        if nid is None:
            old = self._rows.objects[mem]
            row = [
                self._fmem_append_id(fmem, msg) if self._keeps(tid, msg.loc, msg.tid) else fmem
                for tid, fmem in enumerate(old[:-1])
            ]
            values = dict(self._final_items[old[-1]])
            values[msg.loc] = msg.val
            row.append(self._final_id(values))
            row = tuple(row)
            nid = self._appends[key] = self._rows.intern(row, row)
        return nid

    def encode(self, state: MachineState) -> Packed:
        """Packed form of a reference state.

        Raises :class:`ValueError` for a thread state holding a timestamp
        outside its footprint memory, which no reachable state does.
        """
        memory = state.memory
        cfgs = []
        for tid, thread in enumerate(state.threads):
            rank = {t: r for r, t in enumerate(self._kept_times(memory, tid))}
            try:
                key = _relabel(thread.tstate.cache_key(), rank)
            except KeyError as exc:
                raise ValueError(
                    f"thread {tid} holds timestamp {exc.args[0]} outside its footprint"
                ) from None
            cfgs.append(self._encode_cfg(self.compiled.stmt_id(thread.stmt), key))
        return tuple(cfgs) + (self._encode_memory(memory),)

    def initial(self) -> Packed:
        return self.encode(MachineState.initial(self.program, self.arch))

    # -- certification ------------------------------------------------------
    def _certify(self, tid: int, cfg: int, fmem: int) -> CertificationResult:
        """Memoised certification of one thread config on one footprint memory.

        A result cut short by ``cert_fuel`` marks the run truncated, for
        both explorers alike, on a hit as well as on a miss: a hit may
        answer a configuration, under a full memory, other than the one
        whose miss computed it.
        """
        key = (tid, cfg, fmem)
        result = self._certs.get(key)
        if result is not None:
            self._cert_hits += 1
        else:
            self._cert_misses += 1
            sid, ts_key = self._tcfgs.objects[cfg]
            result = certify_compiled(
                self.compiled, sid, ts_key, tid, self.config.cert_fuel, self._fmems.objects[fmem]
            )
            self._certs[key] = result
            if not result.complete:
                self._fuel_hits += 1
            if result.visited > self._max_nodes:
                self._max_nodes = result.visited
        if not result.complete:
            self.stats.truncated = True
        return result

    def certify_all(self, packed: Packed):
        """Certify every thread; returns (per-thread results, can-finish)."""
        phase_start = time.perf_counter()
        fmems = self._rows.objects[packed[-1]]
        per_thread = [self._certify(tid, packed[tid], fmems[tid]) for tid in range(len(packed) - 1)]
        self.phases.add("certify", time.perf_counter() - phase_start)
        return per_thread, [cert.can_complete for cert in per_thread]

    # -- promise-first exploration ------------------------------------------
    def promise_successors(self, packed: Packed, per_thread) -> list[Packed]:
        mem = packed[-1]
        fmems = self._rows.objects[mem]
        out: list[Packed] = []
        for tid, cert in enumerate(per_thread):
            memo_key = (tid, packed[tid], fmems[tid])
            pairs = self._promise_steps.get(memo_key)
            if pairs is None:
                self._step_misses += 1
                pairs = ()
                if cert.promises:
                    promised = self._promised_cfg(packed[tid], fmems[tid])
                    pairs = tuple((promised, msg) for msg in cert.promises)
                self._promise_steps[memo_key] = pairs
            else:
                self._step_hits += 1
            if pairs:
                prefix = packed[:tid]
                suffix = packed[tid + 1 : -1]
                for new_cfg, msg in pairs:
                    out.append(prefix + (new_cfg,) + suffix + (self._append_id(mem, msg),))
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
        fm_id = self._rows.objects[packed[-1]][-1]
        items = self._final_items[fm_id]
        seen = self._outcome_seen
        for combo in product(*(cert.completions for cert in per_thread)):
            key = combo + (fm_id,)
            if key not in seen:
                seen.add(key)
                outcomes.add(Outcome(combo, items))
        self.phases.add("enumerate", time.perf_counter() - phase_start)

    # -- naive (fully interleaved) exploration -------------------------------
    def successors(self, packed: Packed) -> list[Packed]:
        """Certified machine steps; certification time books as ``certify``."""
        phase_start = time.perf_counter()
        certify_s = 0.0
        mem = packed[-1]
        fmems = self._rows.objects[mem]
        out: list[Packed] = []
        steps = self._steps
        for tid in range(len(packed) - 1):
            memo_key = (tid, packed[tid], fmems[tid])
            pairs = steps.get(memo_key)
            if pairs is None:
                self._step_misses += 1
                pairs, seconds = self._machine_steps(*memo_key)
                certify_s += seconds
                steps[memo_key] = pairs
            else:
                self._step_hits += 1
            if pairs:
                prefix = packed[:tid]
                suffix = packed[tid + 1 : -1]
                for new_cfg, msg in pairs:
                    new_mem = mem if msg is None else self._append_id(mem, msg)
                    out.append(prefix + (new_cfg,) + suffix + (new_mem,))
        self.phases.add("certify", certify_s)
        self.phases.add("enumerate", time.perf_counter() - phase_start - certify_s)
        return out

    def _promised_cfg(self, cfg: int, fmem: int) -> int:
        """The config ``cfg`` becomes by promising on footprint memory ``fmem``.

        Every promise the thread makes there gets the timestamp
        ``|fmem|+1``, so all of them lead to the same config; the
        statement stays where it is.
        """
        sid, key = self._tcfgs.objects[cfg]
        return self._encode_cfg(sid, promise_key(key, self._fmems.objects[fmem]))

    def _machine_steps(self, tid: int, cfg: int, fmem: int) -> tuple[tuple, float]:
        """Certified steps of one thread config, in machine-step order.

        Runs the statement's step kernel on the thread's footprint
        memory; each step is a ``(new cfg, written message or None)``
        pair.  Also returns the seconds spent in :meth:`_certify`.
        """
        clock = time.perf_counter
        sid, key = self._tcfgs.objects[cfg]
        messages = self._fmems.objects[fmem]
        pairs = []
        certify_s = 0.0
        for succ_sid, succ_key, write in self.compiled.stmts[sid].step(key, messages, tid):
            step_cfg = self._encode_cfg(succ_sid, succ_key)
            if write is None:
                msg, step_fmem = None, fmem
            else:
                msg = Msg(write[0], write[1], tid)
                step_fmem = self._fmem_append_id(fmem, msg)
            start = clock()
            certified = self._certify(tid, step_cfg, step_fmem).certified
            certify_s += clock() - start
            if certified:
                pairs.append((step_cfg, msg))
        start = clock()
        cert = self._certify(tid, cfg, fmem)
        certify_s += clock() - start
        if cert.promises:
            promised = self._promised_cfg(cfg, fmem)
            for msg in sorted(cert.promises, key=lambda m: (m.loc, m.val)):
                pairs.append((promised, msg))
        return tuple(pairs), certify_s

    def is_final(self, packed: Packed) -> bool:
        final = self._tcfg_final
        return all(final[i] for i in packed[:-1])

    def has_outstanding_promises(self, packed: Packed) -> bool:
        prom = self._tcfg_prom
        return any(prom[i] for i in packed[:-1])

    def outcome(self, packed: Packed):
        # Register values carry no timestamps: no relabelling needed.
        objs = self._tcfgs.objects
        return Outcome.make(
            [{reg: value for reg, (value, _view) in objs[i][1][1]} for i in packed[:-1]],
            dict(self._final_items[self._rows.objects[packed[-1]][-1]]),
        )

    # -- accounting ----------------------------------------------------------
    def finalise(self, stats, model: str) -> None:
        """Fold the id-table, cert and memo counters into stats; flush phases."""
        tables = (self._tcfgs, self._rows, self._fmems)
        stats.interned_keys = sum(map(len, tables))
        stats.intern_hits = sum(table.hits for table in tables)
        stats.cert_calls += self._cert_hits + self._cert_misses
        stats.cert_memo_hits += self._cert_hits
        stats.cert_fuel_hits += self._fuel_hits
        stats.max_cert_nodes = max(stats.max_cert_nodes, self._max_nodes)
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
        stats.interned_keys = len(self._threads) + len(self._storages)
        stats.intern_hits = self._threads.hits + self._storages.hits
        stats.step_memo_hits += self._step_hits
        stats.step_memo_misses += self._step_misses
        self.phases.flush(EXPLORE_PHASE_SECONDS, model=model)


__all__ = ["Packed", "PackedFlatBackend", "PackedPromisingBackend"]
