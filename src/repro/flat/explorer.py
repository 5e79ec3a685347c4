"""Transition rules and exhaustive exploration for the Flat-style model.

See :mod:`repro.flat.machine` for the state definitions and for the
relationship to the paper's Flat model.  The transitions are:

``fetch``
    Move the next instruction of the fetch frontier into the window; a
    conditional branch is fetched *speculatively*, once per direction.
``execute``
    Out-of-order execution of a window entry whose operands are available
    and whose ordering conditions (same-address, barriers, acquire,
    release, speculation) are met.  Stores propagate to the flat storage;
    store exclusives consult the reservation monitor and may always fail.
``resolve``
    A speculated branch whose condition has become available either
    confirms the speculation or triggers a restart: the window suffix is
    discarded and fetching resumes from the other continuation.

Completed window prefixes retire automatically after every transition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..explore import BaseSearchConfig, SearchKernel, SearchStats
from ..lang.ast import Assign, Fence, If, Isb, Load, Seq, Skip, Stmt, Store
from ..lang.kinds import FenceSet, VFAIL, VSUCC
from ..lang.program import Program
from ..lang.transform import unroll_program
from ..lang import has_loops
from ..outcomes import OutcomeSet
from ..promising.steps import normalise
from .machine import (
    FlatState,
    FlatThread,
    WindowEntry,
    entry_address,
    try_eval,
    unresolved_branch_before,
    window_regs,
)


@dataclass
class FlatConfig(BaseSearchConfig):
    """Configuration of the Flat-style explorer.

    The search-kernel fields (``arch``, ``loop_bound``, ``max_states``,
    ``deadline_seconds``, ``strategy``, ``samples``,
    ``sample_depth``, ``seed``) come from :class:`BaseSearchConfig`, and
    :func:`explore_flat` hands the whole config to the
    :class:`~repro.explore.kernel.SearchKernel`.
    """

    #: Cap on explored machine states.
    max_states: int = 2_000_000
    #: Maximum number of in-flight instructions per thread.
    window_size: int = 8


@dataclass
class FlatStats(SearchStats):
    """Flat explorer diagnostics, extending the kernel's shared stats."""

    states: int = 0
    transitions: int = 0
    restarts: int = 0
    #: Backend-representation diagnostics (id tables and step memo).
    interned_keys: int = 0
    intern_hits: int = 0
    step_memo_hits: int = 0
    step_memo_misses: int = 0

    def describe(self) -> str:
        return (
            f"states: {self.states}, transitions: {self.transitions}, "
            f"restarts: {self.restarts}, dedup hits: {self.dedup_hits}, "
            f"truncated: {self.truncated}, time: {self.elapsed_seconds:.3f}s"
        ) + self.sampling_suffix()


@dataclass
class FlatResult:
    outcomes: OutcomeSet
    stats: FlatStats
    program: Program


# ---------------------------------------------------------------------------
# Helpers over statements
# ---------------------------------------------------------------------------


def _next_instruction(stmt: Stmt) -> tuple[Optional[Stmt], Stmt]:
    """The first instruction past any ``skip`` and the rest, or ``(None, skip)``."""
    stmt = normalise(stmt)
    if isinstance(stmt, Skip):
        return None, stmt
    if isinstance(stmt, Seq):
        head, rest = _next_instruction(stmt.first)
        if head is None:
            return _next_instruction(stmt.second)
        tail = stmt.second if isinstance(rest, Skip) else Seq(rest, stmt.second)
        return head, tail
    return stmt, Skip()


def _entry_kind(stmt: Stmt) -> str:
    if isinstance(stmt, Load):
        return "load"
    if isinstance(stmt, Store):
        return "store"
    if isinstance(stmt, Assign):
        return "assign"
    if isinstance(stmt, Fence):
        return "fence"
    if isinstance(stmt, Isb):
        return "isb"
    if isinstance(stmt, If):
        return "branch"
    raise TypeError(f"cannot fetch statement {stmt!r}")


# ---------------------------------------------------------------------------
# Ordering conditions
# ---------------------------------------------------------------------------


def _earlier_blocks_load(thread: FlatThread, index: int, addr) -> bool:
    """May the load at ``index`` (address ``addr``) execute now?

    Flat would satisfy the load speculatively and restart it when an
    earlier access turns out to alias; this model blocks it instead, so
    a load waits for the address of every po-earlier pending access
    (coRR and coWR through an address dependency).

    A load also waits while any po-earlier load to its address is
    pending, even when a same-address store lies between the two and
    would forward to it.  That wait is why Flat lacks one outcome of
    MP+fwd that the axiomatic model allows, on both architectures:
    r0=42, r1=51, r2=0.  r1 may not take 51 from the store until r0 has
    read 42, and by then x=37 has propagated, so r2 (address-dependent
    on r1) cannot read the initial x.
    ``tests/test_backend.py::test_flat_mp_fwd_gap_is_in_the_thread_relation``
    pins the gap.
    """
    strong_acquire = thread.window[index].stmt.kind.is_strong_acquire
    for j, earlier in enumerate(thread.window[:index]):
        if earlier.done:
            continue
        stmt = earlier.stmt
        if earlier.kind == "fence" and isinstance(stmt, Fence):
            if stmt.after.includes(FenceSet.R):
                return True
        elif earlier.kind == "isb":
            return True
        elif earlier.kind == "load" and isinstance(stmt, Load):
            if stmt.kind.is_acquire:
                return True
            if entry_address(thread, j) in (None, addr):
                return True
        elif earlier.kind == "store" and isinstance(stmt, Store):
            # ARMv8 orders a strong release before a po-later strong
            # acquire ([L]; po; [A]).
            if strong_acquire and stmt.kind.is_strong_release:
                return True
            earlier_addr = entry_address(thread, j)
            if earlier_addr is None:
                return True
            if earlier_addr == addr:
                # Handled by forwarding when data is ready; block otherwise.
                # A pending store exclusive may still fail and write
                # nothing, so there is nothing to forward until it is done.
                if stmt.exclusive or try_eval(stmt.data, window_regs(thread, j)) is None:
                    return True
    return False


def _earlier_blocks_store(thread: FlatThread, index: int, addr, release: bool) -> bool:
    """May the store at ``index`` propagate now?"""
    if unresolved_branch_before(thread, index):
        return True
    for j, earlier in enumerate(thread.window[:index]):
        stmt = earlier.stmt
        if earlier.kind in ("load", "store") and entry_address(thread, j) is None and not earlier.done:
            # Stores wait for the addresses of all po-earlier accesses.
            return True
        if earlier.done:
            continue
        if earlier.kind == "fence" and isinstance(stmt, Fence):
            if stmt.after.includes(FenceSet.W):
                return True
        elif earlier.kind == "isb":
            return True
        elif earlier.kind == "load" and isinstance(stmt, Load):
            if stmt.kind.is_acquire or release:
                return True
            if entry_address(thread, j) == addr:
                return True
        elif earlier.kind == "store" and isinstance(stmt, Store):
            if release:
                return True
            if entry_address(thread, j) == addr:
                return True
    return False


def _fence_ready(thread: FlatThread, index: int, fence: Fence) -> bool:
    for j, earlier in enumerate(thread.window[:index]):
        if earlier.done:
            continue
        if earlier.kind == "load" and fence.before.includes(FenceSet.R):
            return False
        if earlier.kind == "store" and fence.before.includes(FenceSet.W):
            return False
    return True


def _forwarded_value(thread: FlatThread, index: int, addr):
    """Value forwarded from the nearest earlier same-address store, if any.

    A store exclusive that failed wrote nothing, so it is skipped.
    """
    for j in range(index - 1, -1, -1):
        earlier = thread.window[j]
        if earlier.kind != "store" or earlier.success is False:
            continue
        stmt = earlier.stmt
        if entry_address(thread, j) != addr:
            continue
        return try_eval(stmt.data, window_regs(thread, j))
    return None


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------


def _retire(thread: FlatThread) -> FlatThread:
    """Retire the completed prefix of the window into the register file."""
    regs = thread.reg_dict()
    window = list(thread.window)
    while window and window[0].done:
        entry = window.pop(0)
        stmt = entry.stmt
        if entry.kind in ("assign", "load") and isinstance(stmt, (Assign, Load)):
            regs[stmt.reg] = entry.value
        elif entry.kind == "store" and isinstance(stmt, Store):
            if stmt.exclusive and stmt.succ_reg is not None:
                regs[stmt.succ_reg] = VSUCC if entry.success else VFAIL
    return replace(thread, regs=tuple(sorted(regs.items())), window=tuple(window))


def _update_entry(thread: FlatThread, index: int, entry: WindowEntry) -> FlatThread:
    window = list(thread.window)
    window[index] = entry
    return replace(thread, window=tuple(window))


def thread_transitions(
    thread: FlatThread, state: FlatState, config: FlatConfig
) -> Iterator[tuple[str, FlatThread, Optional[tuple]]]:
    """Enabled transitions of one thread: ``(label, thread', write)``.

    Threads interact only through the flat storage, so the relation
    depends on ``state`` solely via ``storage_value``/``storage_version``
    — the packed backend exploits this by memoising per ``(thread,
    storage)`` pair.  The yielded thread has already retired its
    completed window prefix; ``write`` is the ``(address, value)``
    propagated to storage, or ``None``.
    """
    # ---- fetch -----------------------------------------------------------
    head, rest = _next_instruction(thread.continuation)
    if head is not None and len(thread.window) < config.window_size:
        if isinstance(head, If):
            for taken in (True, False):
                branch_stmt = head.then if taken else head.orelse
                other_stmt = head.orelse if taken else head.then
                entry = WindowEntry(
                    "branch",
                    head,
                    alt_continuation=normalise(Seq(other_stmt, rest)),
                    speculated_taken=taken,
                )
                new_thread = replace(
                    thread,
                    window=thread.window + (entry,),
                    continuation=normalise(Seq(branch_stmt, rest)),
                )
                yield "fetch-branch", _retire(new_thread), None
        else:
            entry = WindowEntry(_entry_kind(head), head)
            new_thread = replace(thread, window=thread.window + (entry,), continuation=rest)
            yield "fetch", _retire(new_thread), None

    # ---- execute / resolve -----------------------------------------------
    for index, entry in enumerate(thread.window):
        if entry.done:
            continue
        stmt = entry.stmt
        regs = window_regs(thread, index)

        if entry.kind == "assign" and isinstance(stmt, Assign):
            value = try_eval(stmt.expr, regs)
            if value is None:
                continue
            new_thread = _update_entry(thread, index, replace(entry, done=True, value=value))
            yield "execute-assign", _retire(new_thread), None

        elif entry.kind == "load" and isinstance(stmt, Load):
            addr = try_eval(stmt.addr, regs)
            if addr is None or _earlier_blocks_load(thread, index, addr):
                continue
            forwarded = _forwarded_value(thread, index, addr)
            value = forwarded if forwarded is not None else state.storage_value(addr)
            new_thread = _update_entry(thread, index, replace(entry, done=True, value=value))
            if stmt.exclusive:
                new_thread = replace(
                    new_thread, reservation=(addr, state.storage_version(addr))
                )
            yield "execute-load", _retire(new_thread), None

        elif entry.kind == "store" and isinstance(stmt, Store):
            addr = try_eval(stmt.addr, regs)
            data = try_eval(stmt.data, regs)
            if stmt.exclusive:
                # Failure is always possible once the entry is fetched.
                failed = _update_entry(thread, index, replace(entry, done=True, success=False))
                failed = replace(failed, reservation=None)
                yield "sc-fail", _retire(failed), None
            if addr is None or data is None:
                continue
            release = stmt.kind.is_release
            if _earlier_blocks_store(thread, index, addr, release):
                continue
            if stmt.exclusive:
                reservation = thread.reservation
                if (
                    reservation is None
                    or reservation[0] != addr
                    or state.storage_version(addr) != reservation[1]
                ):
                    continue
                new_thread = _update_entry(
                    thread, index, replace(entry, done=True, success=True)
                )
                new_thread = replace(new_thread, reservation=None)
                yield "sc-success", _retire(new_thread), (addr, data)
            else:
                new_thread = _update_entry(
                    thread, index, replace(entry, done=True, success=True)
                )
                yield "execute-store", _retire(new_thread), (addr, data)

        elif entry.kind == "fence" and isinstance(stmt, Fence):
            if _fence_ready(thread, index, stmt):
                new_thread = _update_entry(thread, index, replace(entry, done=True))
                yield "execute-fence", _retire(new_thread), None

        elif entry.kind == "isb":
            if not unresolved_branch_before(thread, index):
                new_thread = _update_entry(thread, index, replace(entry, done=True))
                yield "execute-isb", _retire(new_thread), None

        elif entry.kind == "branch" and isinstance(stmt, If):
            value = try_eval(stmt.cond, regs)
            if value is None:
                continue
            taken = value != 0
            if taken == entry.speculated_taken:
                new_thread = _update_entry(
                    thread, index, replace(entry, done=True, value=value)
                )
                yield "resolve-branch", _retire(new_thread), None
            else:
                # Restart: squash the mis-speculated suffix.
                resolved = replace(entry, done=True, value=value, alt_continuation=None)
                new_thread = replace(
                    thread,
                    window=thread.window[:index] + (resolved,),
                    continuation=entry.alt_continuation or Skip(),
                )
                # A squashed load-exclusive must take its monitor with
                # it: the reservation it established would otherwise
                # let a refetched store-exclusive pair with a load
                # that architecturally never happened — an SC that
                # *spuriously succeeds* (e.g. a CAS acting
                # non-atomically across another thread's write).
                # Clearing is always sound: SC may always fail.
                if any(
                    squashed.kind == "load"
                    and squashed.done
                    and isinstance(squashed.stmt, Load)
                    and squashed.stmt.exclusive
                    for squashed in thread.window[index + 1 :]
                ):
                    new_thread = replace(new_thread, reservation=None)
                yield "restart", _retire(new_thread), None


def successors(state: FlatState, config: FlatConfig) -> Iterator[tuple[str, FlatState]]:
    """All transitions enabled in ``state`` (with a restart counter tag).

    The reference whole-state relation: the explorer runs the memoised
    per-thread factorisation in the packed backend, and the tests hold
    its successor lists to this one.
    """
    for tid, thread in enumerate(state.threads):
        for label, new_thread, write in thread_transitions(thread, state, config):
            threads = list(state.threads)
            threads[tid] = new_thread
            new_state = replace(state, threads=tuple(threads))
            if write is not None:
                new_state = new_state.with_write(*write)
            yield label, new_state


def explore_flat(program: Program, config: Optional[FlatConfig] = None) -> FlatResult:
    """Enumerate outcomes under the Flat-style model.

    Exhaustive under ``dfs``; under ``sample`` each walk is one
    random sequence of fetch/execute/resolve transitions run to a final
    state, so the outcome set is a sound under-approximation.
    """
    config = config or FlatConfig()
    start = time.perf_counter()
    stats = FlatStats()
    prepared = program
    if any(has_loops(t) for t in program.threads):
        prepared = unroll_program(program, config.loop_bound)

    # Lazy import: repro.backend imports flat.machine, so the module
    # edge must point backend -> flat only.  The per-thread transition
    # relation is injected, keeping the backend package explorer-free.
    from ..backend.packed import PackedFlatBackend

    backend = PackedFlatBackend(prepared, config, stats, thread_transitions)
    outcomes = OutcomeSet()

    def expand(packed) -> list:
        if backend.is_final(packed):
            outcomes.add(backend.outcome(packed))
            return []
        return backend.successors(packed)

    kernel = SearchKernel(expand, config)
    kernel.run([backend.initial()])
    stats.states += kernel.stats.states
    stats.transitions += kernel.stats.transitions
    kernel.finish(stats)
    backend.finalise(stats, model="flat")
    stats.elapsed_seconds = time.perf_counter() - start
    return FlatResult(outcomes, stats, program)


__all__ = [
    "FlatConfig",
    "FlatStats",
    "FlatResult",
    "successors",
    "thread_transitions",
    "explore_flat",
]
