"""Ahead-of-time program compilation: statement tables and step kernels.

The operational models treat a statement as the thread's program counter:
every step rewrites the statement into a continuation.  Those
continuations are not arbitrary — they are exactly the statements the
head-decomposition (:func:`~repro.promising.steps.split_head`) and the
branch rule can produce — so the full set reachable from a program can be
enumerated *statically, once*, before exploration starts.

:class:`CompiledProgram` performs that closure and assigns every
reachable statement a dense integer id, together with a static record
(:class:`CompiledStmt`) of its successor statement ids and its *step
kernel*.  The packed backend represents a thread's program counter
as one int and a thread state as its :meth:`TState.key()
<repro.promising.state.TState.key>` tuple, and runs certification and
its step-memo misses on those two alone.

A step kernel is the thread's sequential step relation for one
statement, specialised to its head and the architecture:
``kernel(key, messages, tid)`` takes a thread-state key, the messages of
the memory it runs on (the thread's footprint memory, in the backend)
and the thread id, and returns ``(successor stmt id, successor key,
write)`` triples in exactly the order of
:func:`~repro.promising.steps.sequential_steps`.  ``write`` is ``None``
or, for a normal write, ``(loc, value, pre_view, coh_before)``: what the
promise harvest of :func:`~repro.promising.certification.find_and_certify`
reads off the step.  Addresses and data are closures over the sorted
register tuple, and successor keys are built field by field in their
canonical sorted form, so no :class:`~repro.promising.state.TState` is
copied or re-sorted and no step record is built.

The kernels are a second implementation of Fig. 5, not a view of the
first: the rule bodies of :mod:`repro.promising.steps` stay the
reference, and ``tests/test_backend.py`` holds every kernel to them node
by node (on every node of every certification graph the backend builds
on its slices), as the packed Flat backend is held to the Flat
``successors`` relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

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
)
from ..lang.expr import OPERATORS, BinOp, Const, Expr, RegE
from ..lang.kinds import VFAIL, VSUCC, Arch, FenceSet, ReadKind
from ..lang.program import Program
from ..promising.steps import is_terminated, normalise, split_head

#: ``kernel(key, messages, tid)`` -> ``[(succ stmt id, succ key, write)]``.
Kernel = Callable[[tuple, tuple, int], list]

#: Value and view of a register the thread never wrote.
_UNWRITTEN = (0, 0)
#: Forwarding-bank entry of a location the thread never wrote.
_NO_FORWARD = (0, 0, False)


def _static_successors(head: Stmt, rest: Optional[Stmt]) -> tuple[Stmt, ...]:
    """The continuation statements a step from this head can produce.

    Mirrors the step rules exactly: a branch yields the two
    branch-rule continuations; every other head finishes and yields the
    normalised remainder (``skip`` at the end of the thread); a
    terminated thread has no continuation.
    """
    if isinstance(head, If):
        succs = []
        for taken in (head.then, head.orelse):
            succ = taken if rest is None else Seq(taken, rest)
            succs.append(normalise(succ))
        return tuple(succs)
    if isinstance(head, Skip):
        return ()
    return (normalise(rest) if rest is not None else Skip(),)


# ---------------------------------------------------------------------------
# Thread-state keys
# ---------------------------------------------------------------------------
#
# A key is ``(prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel,
# fwdb, xclb)``: ``regs``, ``coh`` and ``fwdb`` are tuples of
# ``(name, value)`` pairs sorted by name, holding only the entries the
# thread set.  Forwarding and exclusives entries are plain tuples, equal
# (and equal in hash) to the ``Forward``/``ExclBank`` records of a
# ``TState``.


def _get(items: tuple, name, default):
    """The value bound to ``name`` in a sorted pairs tuple, else ``default``."""
    for k, v in items:
        if k == name:
            return v
    return default


def _put(items: tuple, name, value) -> tuple:
    """``items`` (a sorted pairs tuple) with ``name`` bound to ``value``."""
    i = 0
    for k, _v in items:
        if k == name:
            return items[:i] + ((name, value),) + items[i + 1 :]
        if k > name:
            return items[:i] + ((name, value),) + items[i:]
        i += 1
    return items + ((name, value),)


def _compile_expr(expr: Expr) -> Callable[[tuple], tuple]:
    """``expr`` as a closure from a sorted register tuple to ``(value, view)``.

    Mirrors :meth:`~repro.promising.state.TState.eval`: constants carry
    view 0, an unwritten register reads ``(0, 0)``, and an operator joins
    its operand views.
    """
    if isinstance(expr, Const):
        pair = (expr.value, 0)
        return lambda regs: pair
    if isinstance(expr, RegE):
        name = expr.reg

        def register(regs):
            for reg, pair in regs:
                if reg == name:
                    return pair
            return _UNWRITTEN

        return register
    if isinstance(expr, BinOp):
        op = OPERATORS[expr.op]
        left, right = _compile_expr(expr.left), _compile_expr(expr.right)

        def binop(regs):
            v1, n1 = left(regs)
            v2, n2 = right(regs)
            return op(v1, v2), (n1 if n1 > n2 else n2)

        return binop
    raise TypeError(f"not an expression: {expr!r}")


def _atomic(messages: tuple, loc, tid: int, tr: int, tw: int) -> bool:
    """``atomic(M, l, tid, tr, tw)`` of :mod:`repro.promising.steps` on a messages tuple."""
    if tr and messages[tr - 1].loc != loc:
        return True
    for msg in messages[tr : tw - 1]:
        if msg.loc == loc and msg.tid != tid:
            return False
    return True


def promise_key(key: tuple, messages: tuple) -> tuple:
    """Successor key of the (promise) step: ``prom`` gains ``|M|+1``.

    The step appends the message, which the caller does; the statement
    stays where it is.  Equals
    :func:`~repro.promising.steps.promise_step` on the key.
    """
    return (key[0] | {len(messages) + 1},) + key[1:]


# ---------------------------------------------------------------------------
# Step kernels, one per head kind
# ---------------------------------------------------------------------------
#
# Joins a kernel takes per step are spelt ``a if a > b else b``: the same
# maximum as ``vmax``, at a fraction of the cost of a ``max()`` call.


def _read_kernel(head: Load, cont: int, arch: Arch, initial: Mapping) -> Kernel:
    """Rule (read): one step per write to the location the load may read."""
    reg = head.reg
    addr = _compile_expr(head.addr)
    acquire = head.kind.is_acquire
    strong = head.kind.is_strong_acquire
    exclusive = head.exclusive
    # Forwarding from an exclusive write: plain loads on ARM only (ρ13).
    forwards_xcl = arch is Arch.ARM and head.kind is ReadKind.PLN

    def read(key, messages, tid):
        prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, xclb = key
        loc, v_addr = addr(regs)
        v_pre = v_addr if v_addr > vrNew else vrNew
        if strong and vRel > v_pre:
            v_pre = vRel
        coh_loc = _get(coh, loc, 0)
        bound = v_pre if v_pre > coh_loc else coh_loc
        fwd_time, fwd_view, fwd_xcl = _get(fwdb, loc, _NO_FORWARD)
        if fwd_xcl and not forwards_xcl:
            fwd_time = None
        # The writes to ``loc`` that no newer seen write supersedes: the
        # last one at or below ``bound`` and every later one.
        readable = [(0, initial.get(loc, 0))]
        for t, msg in enumerate(messages, 1):
            if msg.loc == loc:
                if t <= bound:
                    readable = [(t, msg.val)]
                else:
                    readable.append((t, msg.val))
        if v_addr > vCAP:
            vCAP = v_addr
        out = []
        for t, value in readable:
            v_post = fwd_view if t == fwd_time else t
            if v_pre > v_post:
                v_post = v_pre
            succ = (
                prom,
                _put(regs, reg, (value, v_post)),
                _put(coh, loc, coh_loc if coh_loc > v_post else v_post),
                vrOld if vrOld > v_post else v_post,
                vwOld,
                (vrNew if vrNew > v_post else v_post) if acquire else vrNew,
                (vwNew if vwNew > v_post else v_post) if acquire else vwNew,
                vCAP,
                vRel,
                fwdb,
                (t, v_post) if exclusive else xclb,
            )
            out.append((cont, succ, None))
        return out

    return read


def _store_kernel(head: Store, cont: int, arch: Arch) -> Kernel:
    """Rules (fulfil), (exclusive-failure) and the normal write, in that order.

    Fulfilments come in ``sorted(prom)`` order.  A store exclusive with
    no paired load exclusive can only fail.
    """
    addr = _compile_expr(head.addr)
    data = _compile_expr(head.data)
    release = head.kind.is_release
    strong = head.kind.is_strong_release
    exclusive = head.exclusive
    succ_reg = head.succ_reg if exclusive else None
    riscv = arch is Arch.RISCV

    def failed(key):
        prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, _xclb = key
        if succ_reg is not None:
            regs = _put(regs, succ_reg, (VFAIL, 0))
        return (cont, (prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, None), None)

    def store(key, messages, tid):
        prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, xclb = key
        if exclusive and xclb is None:
            return [failed(key)]
        loc, v_addr = addr(regs)
        value, v_data = data(regs)
        forward_view = v_addr if v_addr > v_data else v_data
        v_pre = max(forward_view, vwNew, vCAP)
        if release:
            v_pre = max(v_pre, vrOld, vwOld)
        if exclusive and riscv:
            v_pre = max(v_pre, xclb[1])
        coh_loc = _get(coh, loc, 0)
        floor = v_pre if v_pre > coh_loc else coh_loc
        if v_addr > vCAP:
            vCAP = v_addr
        n = len(messages)
        # ``(t, promises left, write)`` per fulfilment, then the normal
        # write at the fresh timestamp, which is in no promise set.
        done = []
        for t in sorted(prom) if prom else ():
            if t > n or floor >= t:
                continue
            msg = messages[t - 1]
            if msg.loc != loc or msg.val != value or msg.tid != tid:
                continue
            if exclusive and not _atomic(messages, loc, tid, xclb[0], t):
                continue
            done.append((t, prom - {t}, None))
        fulfils = len(done)
        t = n + 1
        if floor < t and (not exclusive or _atomic(messages, loc, tid, xclb[0], t)):
            done.append((t, prom, (loc, value, v_pre, coh_loc)))
        out = []
        for t, left, write in done:
            # t > floor >= coh_loc, so the coherence view becomes t.
            succ = (
                left,
                regs if succ_reg is None else _put(regs, succ_reg, (VSUCC, t if riscv else 0)),
                _put(coh, loc, t),
                vrOld,
                vwOld if vwOld > t else t,
                vrNew,
                vwNew,
                vCAP,
                (vRel if vRel > t else t) if strong else vRel,
                _put(fwdb, loc, (t, forward_view, exclusive)),
                None if exclusive else xclb,
            )
            out.append((cont, succ, write))
        if exclusive:
            out.insert(fulfils, failed(key))
        return out

    return store


def _fence_kernel(head: Fence, cont: int) -> Kernel:
    """Rule (fence) for the two-argument fences."""
    before_r = head.before.includes(FenceSet.R)
    before_w = head.before.includes(FenceSet.W)
    after_r = head.after.includes(FenceSet.R)
    after_w = head.after.includes(FenceSet.W)

    def fence(key, messages, tid):
        prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, xclb = key
        v1 = max(vrOld if before_r else 0, vwOld if before_w else 0)
        if after_r and v1 > vrNew:
            vrNew = v1
        if after_w and v1 > vwNew:
            vwNew = v1
        return [(cont, (prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, xclb), None)]

    return fence


def _isb_kernel(cont: int) -> Kernel:
    """Rule (isb): vrNew absorbs vCAP."""

    def isb(key, messages, tid):
        prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, xclb = key
        if vCAP > vrNew:
            vrNew = vCAP
        return [(cont, (prom, regs, coh, vrOld, vwOld, vrNew, vwNew, vCAP, vRel, fwdb, xclb), None)]

    return isb


def _assign_kernel(head: Assign, cont: int) -> Kernel:
    """Rule (register)."""
    reg = head.reg
    expr = _compile_expr(head.expr)

    def assign(key, messages, tid):
        regs = key[1]
        return [(cont, (key[0], _put(regs, reg, expr(regs))) + key[2:], None)]

    return assign


def _branch_kernel(head: If, then_id: int, else_id: int) -> Kernel:
    """Rule (branch): take an arm, merge the condition's view into vCAP."""
    cond = _compile_expr(head.cond)

    def branch(key, messages, tid):
        value, view = cond(key[1])
        succ = key[:7] + (view if view > key[7] else key[7],) + key[8:]
        return [(then_id if value != 0 else else_id, succ, None)]

    return branch


def _terminated(key, messages, tid):
    return []


@dataclass(frozen=True)
class CompiledStmt:
    """Static per-statement record of the compiled program.

    ``succ_ids`` are the statically known continuation statement ids (a
    branch lists both arms in (then, else) order; a terminated statement
    lists none).  ``step`` is the statement's step kernel (see the module
    docstring).
    """

    sid: int
    stmt: Stmt
    terminated: bool
    succ_ids: tuple[int, ...]
    step: Kernel


class CompiledProgram:
    """Statement-closure tables and step kernels of one litmus program.

    Built once per exploration job, for one architecture.  ``stmt_id``
    maps any reachable statement to its dense id.
    """

    __slots__ = ("program", "arch", "_initial", "_ids", "stmts")

    def __init__(self, program: Program, arch: Arch) -> None:
        self.program = program
        self.arch = arch
        self._initial = dict(program.initial)
        self._ids: dict[Stmt, int] = {}
        self.stmts: list[CompiledStmt] = []
        for stmt in program.threads:
            self._close(normalise(stmt))

    # -- construction -----------------------------------------------------
    def _close(self, root: Stmt) -> int:
        """Discover the statement closure of ``root``, assigning ids."""
        pending: list[tuple[int, Stmt]] = []

        def intern(stmt: Stmt) -> int:
            sid = self._ids.get(stmt)
            if sid is None:
                sid = self._ids[stmt] = len(self.stmts)
                self.stmts.append(None)  # type: ignore[arg-type]  # filled below
                pending.append((sid, stmt))
            return sid

        root_id = intern(root)
        while pending:
            sid, stmt = pending.pop()
            head, rest = split_head(stmt)
            succ_ids = tuple(intern(succ) for succ in _static_successors(head, rest))
            self.stmts[sid] = CompiledStmt(
                sid=sid,
                stmt=stmt,
                terminated=is_terminated(stmt),
                succ_ids=succ_ids,
                step=self._kernel(head, succ_ids),
            )
        return root_id

    def _kernel(self, head: Stmt, succ_ids: tuple[int, ...]) -> Kernel:
        if isinstance(head, Skip):
            return _terminated
        if isinstance(head, If):
            return _branch_kernel(head, *succ_ids)
        (cont,) = succ_ids
        if isinstance(head, Load):
            return _read_kernel(head, cont, self.arch, self._initial)
        if isinstance(head, Store):
            return _store_kernel(head, cont, self.arch)
        if isinstance(head, Fence):
            return _fence_kernel(head, cont)
        if isinstance(head, Isb):
            return _isb_kernel(cont)
        if isinstance(head, Assign):
            return _assign_kernel(head, cont)
        raise TypeError(f"cannot compile statement head {head!r}")

    # -- queries ----------------------------------------------------------
    def stmt_id(self, stmt: Stmt) -> int:
        """Dense id of a (normalised) statement.

        Statements produced by the step functions are always in the
        static closure; unseen statements are interned on the fly anyway
        so the encoding stays total even for hand-built configurations.
        """
        sid = self._ids.get(stmt)
        if sid is not None:
            return sid
        return self._close(normalise(stmt))


def compile_program(program: Program, arch: Arch) -> CompiledProgram:
    """Compile ``program`` for ``arch`` (run once per job, before exploration)."""
    return CompiledProgram(program, arch)


__all__ = ["CompiledProgram", "CompiledStmt", "Kernel", "compile_program", "promise_key"]
