"""Thread-local and thread steps of Promising-ARM/RISC-V (Fig. 5 / §A.3).

The functions here enumerate the successor configurations of a single
thread.  A *thread* is a pair of a statement (the remaining program, used
as program counter) and a :class:`~repro.promising.state.TState`.

Step kinds
----------

``read``
    A load reads a write message (or the initial value) respecting its
    pre-view and coherence view; may forward from the thread's own last
    write (rules r1–r16, ρ1–ρ4, ρ13).
``fulfil``
    A store fulfils one of the thread's outstanding promises (r17–r23,
    ρ1, ρ11–ρ14).
``write``
    A "normal write": a promise immediately followed by its fulfilment
    (rule r20).  This is the only way new messages are created during
    sequential (certification) execution.
``promise``
    A bare promise step appending an arbitrary message of the thread
    (used by the machine/explorer, which restricts it to certified
    promises).
``xcl-fail``
    A store exclusive that has not executed yet fails (ρ10).
``assign`` / ``branch`` / ``fence`` / ``isb``
    The remaining silent (memory-invariant) statements.

The paper's (skip), (seq) and (while) administrative rules are folded into
statement normalisation (:func:`normalise`), which is semantically neutral
and keeps the explored state space small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..lang.ast import (
    Assign,
    Fence,
    If,
    Isb,
    Load,
    Seq,
    Skip,
    Stmt,
    Store,
    While,
)
from ..lang.kinds import Arch, FenceSet, VFAIL, VSUCC
from ..lang.program import Loc, TId
from ..lang.expr import Value
from .state import ExclBank, Forward, Memory, Msg, Timestamp, TState, View, vmax


# ---------------------------------------------------------------------------
# Statement normalisation (administrative rules)
# ---------------------------------------------------------------------------


def normalise(stmt: Stmt) -> Stmt:
    """Remove leading ``skip`` and unfold a leading ``while`` into ``if``.

    This implements the (skip), (seq) and (while) rules of Fig. 5 as a
    deterministic, view-preserving simplification so the explorers never
    have to schedule administrative steps.
    """
    while True:
        if isinstance(stmt, Seq):
            first = normalise(stmt.first)
            if isinstance(first, Skip):
                stmt = stmt.second
                continue
            if first is stmt.first:
                return stmt
            return Seq(first, stmt.second)
        if isinstance(stmt, While):
            return If(stmt.cond, Seq(stmt.body, stmt), Skip())
        return stmt


def is_terminated(stmt: Stmt) -> bool:
    """True when the thread has no more statements to execute."""
    return isinstance(normalise(stmt), Skip)


# ---------------------------------------------------------------------------
# Step records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreadStep:
    """One successor configuration of a thread.

    Attributes
    ----------
    kind:
        One of ``read``, ``fulfil``, ``write``, ``promise``, ``xcl-fail``,
        ``assign``, ``branch``, ``fence``, ``isb``.
    stmt / tstate / memory:
        The successor thread configuration.  ``memory`` is unchanged for
        thread-local steps and extended for ``write``/``promise`` steps.
    timestamp:
        The timestamp read from / written to, when applicable.
    loc / value:
        Location and value of the memory access, when applicable.
    description:
        Human-readable rendering for the interactive tool and traces.
    """

    kind: str
    stmt: Stmt
    tstate: TState
    memory: Memory
    timestamp: Optional[Timestamp] = None
    loc: Optional[Loc] = None
    value: Optional[Value] = None
    description: str = ""
    #: Pre-view of the access (reads and writes); used by find_and_certify
    #: to decide which writes are promotable to promises (§B step 3).
    pre_view: Optional[View] = None
    #: Coherence view of the accessed location *before* the step.
    coh_before: Optional[View] = None

    def __repr__(self) -> str:
        return f"<{self.kind} {self.description}>"


# ---------------------------------------------------------------------------
# Individual rules
# ---------------------------------------------------------------------------


def _read_view(arch: Arch, rk, fwd: Forward, t: Timestamp) -> View:
    """``read-view(a, rk, f, t)`` — forwarding gives the smaller view.

    Forwarding from an exclusive write is only permitted for plain loads
    on ARM (rule ρ13); otherwise the read view is the message timestamp.
    """
    if fwd.time == t and (not fwd.xcl or (arch is Arch.ARM and rk.value == 0)):
        return fwd.view
    return t


def _atomic(memory: Memory, loc: Loc, tid: TId, tr: Timestamp, tw: Timestamp) -> bool:
    """``atomic(M, l, tid, tr, tw)`` — exclusivity check for store exclusives.

    If the paired load exclusive read a write to ``loc`` (timestamp ``tr``;
    timestamp 0, the initial write, always writes every location), then no
    other thread may have written ``loc`` strictly between ``tr`` and ``tw``.
    """
    if tr != 0 and memory.msg(tr).loc != loc:
        return True
    for t in range(tr + 1, tw):
        msg = memory.msg(t)
        if msg.loc == loc and msg.tid != tid:
            return False
    return True


def read_steps(
    stmt: Load, cont: Stmt, ts: TState, memory: Memory, arch: Arch, tid: TId
) -> Iterator[ThreadStep]:
    """All instances of the (read) rule for a load at the head.

    ``cont`` is the (already normalised) continuation after the head —
    precomputed once by the caller (:func:`thread_local_steps`) instead
    of re-derived per enumerated step.
    """
    loc, v_addr = ts.eval(stmt.addr)
    rk = stmt.kind
    v_pre = vmax(v_addr, ts.vrNew, ts.vRel if rk.is_strong_acquire else 0)
    bound = vmax(v_pre, ts.coh_view(loc))
    for t in memory.writes_to(loc):
        value = memory.read(loc, t)
        if value is None:
            continue
        # Must not read a write superseded by a newer "seen" same-address
        # write: no same-address message in (t, bound].
        if t < bound and not memory.no_write_to_in(loc, t, bound):
            continue
        v_post = vmax(v_pre, _read_view(arch, rk, ts.forward(loc), t))
        new = ts.copy()
        new.regs[stmt.reg] = (value, v_post)
        new.coh[loc] = vmax(ts.coh_view(loc), v_post)
        new.vrOld = vmax(ts.vrOld, v_post)
        if rk.is_acquire:
            new.vrNew = vmax(ts.vrNew, v_post)
            new.vwNew = vmax(ts.vwNew, v_post)
        new.vCAP = vmax(ts.vCAP, v_addr)
        if stmt.exclusive:
            new.xclb = ExclBank(t, v_post)
        yield ThreadStep(
            kind="read",
            stmt=cont,
            tstate=new,
            memory=memory,
            timestamp=t,
            loc=loc,
            value=value,
            description=f"T{tid}: {stmt.reg} := load [{loc}] = {value} @t{t}",
        )


def fulfil_steps(
    stmt: Store, cont: Stmt, ts: TState, memory: Memory, arch: Arch, tid: TId
) -> Iterator[ThreadStep]:
    """All instances of the (fulfil) rule for a store at the head."""
    loc, v_addr = ts.eval(stmt.addr)
    value, v_data = ts.eval(stmt.data)
    wk = stmt.kind
    if stmt.exclusive and ts.xclb is None:
        return
    v_pre = vmax(
        v_addr,
        v_data,
        ts.vwNew,
        ts.vCAP,
        vmax(ts.vrOld, ts.vwOld) if wk.is_release else 0,
        ts.xclb.view if (arch is Arch.RISCV and stmt.exclusive and ts.xclb) else 0,
    )
    for t in sorted(ts.prom):
        if t > memory.last_timestamp:
            continue
        msg = memory.msg(t)
        if msg != Msg(loc, value, tid):
            continue
        if vmax(v_pre, ts.coh_view(loc)) >= t:
            continue
        if stmt.exclusive and not _atomic(memory, loc, tid, ts.xclb.time, t):
            continue
        v_post = t
        new = ts.copy()
        new.prom = ts.prom - {t}
        if stmt.exclusive and stmt.succ_reg is not None:
            v_succ = v_post if arch is Arch.RISCV else 0
            new.regs[stmt.succ_reg] = (VSUCC, v_succ)
        new.coh[loc] = vmax(ts.coh_view(loc), v_post)
        new.vwOld = vmax(ts.vwOld, v_post)
        new.vCAP = vmax(ts.vCAP, v_addr)
        if wk.is_strong_release:
            new.vRel = vmax(ts.vRel, v_post)
        new.fwdb[loc] = Forward(t, vmax(v_addr, v_data), stmt.exclusive)
        if stmt.exclusive:
            new.xclb = None
        yield ThreadStep(
            kind="fulfil",
            stmt=cont,
            tstate=new,
            memory=memory,
            timestamp=t,
            loc=loc,
            value=value,
            description=f"T{tid}: store [{loc}] {value} fulfils promise @t{t}",
            pre_view=v_pre,
            coh_before=ts.coh_view(loc),
        )


def exclusive_fail_step(
    stmt: Store, cont: Stmt, ts: TState, memory: Memory, tid: TId
) -> ThreadStep:
    """The (exclusive-failure) rule: a store exclusive may always fail."""
    new = ts.copy()
    if stmt.succ_reg is not None:
        new.regs[stmt.succ_reg] = (VFAIL, 0)
    new.xclb = None
    return ThreadStep(
        kind="xcl-fail",
        stmt=cont,
        tstate=new,
        memory=memory,
        description=f"T{tid}: store exclusive fails",
    )


def fence_step(
    stmt: Fence, cont: Stmt, ts: TState, memory: Memory, tid: TId
) -> ThreadStep:
    """The (fence) rule for the two-argument fences."""
    v1 = vmax(
        ts.vrOld if stmt.before.includes(FenceSet.R) else 0,
        ts.vwOld if stmt.before.includes(FenceSet.W) else 0,
    )
    new = ts.copy()
    if stmt.after.includes(FenceSet.R):
        new.vrNew = vmax(ts.vrNew, v1)
    if stmt.after.includes(FenceSet.W):
        new.vwNew = vmax(ts.vwNew, v1)
    return ThreadStep(
        kind="fence",
        stmt=cont,
        tstate=new,
        memory=memory,
        description=f"T{tid}: {stmt!r}",
    )


def isb_step(cont: Stmt, ts: TState, memory: Memory, tid: TId) -> ThreadStep:
    """The (isb) rule: vrNew absorbs vCAP (ρ7)."""
    new = ts.copy()
    new.vrNew = vmax(ts.vrNew, ts.vCAP)
    return ThreadStep(
        kind="isb",
        stmt=cont,
        tstate=new,
        memory=memory,
        description=f"T{tid}: isb",
    )


def assign_step(
    stmt: Assign, cont: Stmt, ts: TState, memory: Memory, tid: TId
) -> ThreadStep:
    """The (register) rule."""
    value, view = ts.eval(stmt.expr)
    new = ts.copy()
    new.regs[stmt.reg] = (value, view)
    return ThreadStep(
        kind="assign",
        stmt=cont,
        tstate=new,
        memory=memory,
        value=value,
        description=f"T{tid}: {stmt.reg} := {value}",
    )


def branch_step(
    stmt: If, then_cont: Stmt, else_cont: Stmt, ts: TState, memory: Memory, tid: TId
) -> ThreadStep:
    """The (branch) rule: resolve the condition, merge its view into vCAP.

    ``then_cont`` / ``else_cont`` are the two branch-rule continuations,
    precomputed by :func:`branch_continuations`.
    """
    value, view = ts.eval(stmt.cond)
    new = ts.copy()
    new.vCAP = vmax(ts.vCAP, view)
    return ThreadStep(
        kind="branch",
        stmt=then_cont if value != 0 else else_cont,
        tstate=new,
        memory=memory,
        value=value,
        description=f"T{tid}: branch on {value}",
    )


def branch_continuations(head: If, rest: Optional[Stmt]) -> tuple[Stmt, Stmt]:
    """The (then, else) continuations of a branch head, normalised."""
    return tuple(  # type: ignore[return-value]
        normalise(taken if rest is None else Seq(taken, rest))
        for taken in (head.then, head.orelse)
    )


def _continue(rest: Optional[Stmt]) -> Stmt:
    """The statement remaining after the head statement finished."""
    return normalise(rest) if rest is not None else Skip()


# ---------------------------------------------------------------------------
# Head decomposition and step enumeration
# ---------------------------------------------------------------------------


def split_head(stmt: Stmt) -> tuple[Stmt, Optional[Stmt]]:
    """Split a normalised statement into its head and the remainder.

    Public because the program compilation pass
    (:mod:`repro.isa.compile`) mirrors the step rules statically: the
    statements reachable from a program are exactly the continuations
    this decomposition (plus the branch rule) produces.
    """
    stmt = normalise(stmt)
    if isinstance(stmt, Seq):
        head, rest = split_head(stmt.first)
        tail = stmt.second if rest is None else Seq(rest, stmt.second)
        return head, tail
    return stmt, None


def thread_local_steps(
    stmt: Stmt, ts: TState, memory: Memory, arch: Arch, tid: TId
) -> list[ThreadStep]:
    """Enumerate the non-promise thread-local steps of Fig. 5.

    These never append to memory: reads, register assignments, branches,
    fences, isb, fulfilments of existing promises, and store-exclusive
    failures.
    """
    head, rest = split_head(stmt)
    if isinstance(head, Skip):
        return []
    if isinstance(head, If):
        then_cont, else_cont = branch_continuations(head, rest)
        return [branch_step(head, then_cont, else_cont, ts, memory, tid)]
    cont = _continue(rest)
    if isinstance(head, Load):
        return list(read_steps(head, cont, ts, memory, arch, tid))
    if isinstance(head, Store):
        steps = list(fulfil_steps(head, cont, ts, memory, arch, tid))
        if head.exclusive:
            steps.append(exclusive_fail_step(head, cont, ts, memory, tid))
        return steps
    if isinstance(head, Fence):
        return [fence_step(head, cont, ts, memory, tid)]
    if isinstance(head, Isb):
        return [isb_step(cont, ts, memory, tid)]
    if isinstance(head, Assign):
        return [assign_step(head, cont, ts, memory, tid)]
    raise TypeError(f"cannot step statement head {head!r}")


def promise_step(stmt: Stmt, ts: TState, memory: Memory, msg: Msg) -> ThreadStep:
    """The (promise) thread step: append ``msg`` and record the obligation."""
    new_memory, t = memory.append(msg)
    new = ts.copy()
    new.prom = ts.prom | {t}
    return ThreadStep(
        kind="promise",
        stmt=normalise(stmt),
        tstate=new,
        memory=new_memory,
        timestamp=t,
        loc=msg.loc,
        value=msg.val,
        description=f"T{msg.tid}: promise [{msg.loc}] := {msg.val} @t{t}",
    )


def normal_write_steps(
    stmt: Stmt, ts: TState, memory: Memory, arch: Arch, tid: TId
) -> list[ThreadStep]:
    """"Normal write" steps: promise a fresh message and fulfil it at once.

    Rule r20: a write that is not executed early is modelled by promising
    it just before the store fulfils it.  The fresh timestamp ``|M|+1`` is
    strictly larger than every view, so the pre-view condition of the
    fulfilment holds automatically — we still go through the full (fulfil)
    rule so that the exclusivity check and all view updates are shared.
    """
    head, rest = split_head(stmt)
    if not isinstance(head, Store):
        return []
    return write_steps(head, _continue(rest), ts, memory, arch, tid)


def write_steps(
    head: Store, cont: Stmt, ts: TState, memory: Memory, arch: Arch, tid: TId
) -> list[ThreadStep]:
    """The normal-write steps of a store head with continuation ``cont``.

    Body of :func:`normal_write_steps` once the head decomposition is
    known.
    """
    steps: list[ThreadStep] = []
    loc, _v_addr = ts.eval(head.addr)
    value, _v_data = ts.eval(head.data)
    new_memory, t = memory.append(Msg(loc, value, tid))
    promised = ts.copy()
    promised.prom = ts.prom | {t}
    for fulfil in fulfil_steps(head, cont, promised, new_memory, arch, tid):
        if fulfil.timestamp != t:
            continue
        steps.append(
            ThreadStep(
                kind="write",
                stmt=fulfil.stmt,
                tstate=fulfil.tstate,
                memory=new_memory,
                timestamp=t,
                loc=loc,
                value=value,
                description=f"T{tid}: store [{loc}] := {value} @t{t}",
                pre_view=fulfil.pre_view,
                coh_before=fulfil.coh_before,
            )
        )
    return steps


def sequential_steps(
    stmt: Stmt, ts: TState, memory: Memory, arch: Arch, tid: TId
) -> list[ThreadStep]:
    """Steps available to a thread executing *sequentially* (§4.3).

    Sequential execution means the thread runs alone and every new promise
    is immediately fulfilled, i.e. only thread-local steps and normal
    writes are taken.  This is the step relation used by certification.
    """
    return thread_local_steps(stmt, ts, memory, arch, tid) + normal_write_steps(
        stmt, ts, memory, arch, tid
    )


def non_promise_steps(
    stmt: Stmt, ts: TState, memory: Memory, arch: Arch, tid: TId
) -> list[ThreadStep]:
    """Steps that neither promise nor otherwise extend memory.

    Used by the explorer's non-promise phase (§7): once all writes have
    been promised, memory is fixed and threads run independently using
    only these steps.
    """
    return thread_local_steps(stmt, ts, memory, arch, tid)


__all__ = [
    "ThreadStep",
    "normalise",
    "is_terminated",
    "split_head",
    "branch_continuations",
    "thread_local_steps",
    "promise_step",
    "normal_write_steps",
    "sequential_steps",
    "non_promise_steps",
    # Continuation-parameterised rule bodies.
    "read_steps",
    "fulfil_steps",
    "exclusive_fail_step",
    "fence_step",
    "isb_step",
    "assign_step",
    "branch_step",
    "write_steps",
]
