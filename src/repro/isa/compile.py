"""Ahead-of-time program compilation for the packed execution backend.

The operational models treat a statement as the thread's program counter:
every step rewrites the statement into a continuation.  Those
continuations are not arbitrary — they are exactly the statements the
head-decomposition (:func:`~repro.promising.steps.split_head`) and the
branch rule can produce — so the full set reachable from a program can be
enumerated *statically, once*, before exploration starts.

:class:`CompiledProgram` performs that closure and assigns every
reachable statement a dense integer id, together with a static record
(:class:`CompiledStmt`) of its head kind, decomposed head and successor
statement ids.  The packed backend then represents a thread's
program counter as one int, and a machine state as a flat tuple of ints,
instead of re-deriving structure from the AST on every visit.

The compiled tables are *descriptive*, not a second semantics: dynamic
behaviour (which timestamps a load may read, which writes certify) is
still produced by the reference step functions in
:mod:`repro.promising.steps`.  Compilation only precomputes what is
invariant across all visits of a statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
from ..lang.kinds import Arch
from ..lang.program import Program, TId
from ..promising.state import Memory, TState
from ..promising.steps import (
    ThreadStep,
    assign_step,
    branch_step,
    exclusive_fail_step,
    fence_step,
    fulfil_steps,
    is_terminated,
    isb_step,
    normalise,
    read_steps,
    split_head,
    write_steps,
)


def _head_kind(head: Stmt) -> str:
    if isinstance(head, Skip):
        return "skip"
    if isinstance(head, Load):
        return "load"
    if isinstance(head, Store):
        return "store"
    if isinstance(head, Fence):
        return "fence"
    if isinstance(head, Isb):
        return "isb"
    if isinstance(head, Assign):
        return "assign"
    if isinstance(head, If):
        return "branch"
    raise TypeError(f"cannot compile statement head {head!r}")


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


@dataclass(frozen=True)
class CompiledStmt:
    """Static per-statement record of the compiled program.

    ``succ_ids`` are the statically known continuation statement ids (a
    branch lists both arms in (then, else) order; a terminated statement
    lists none).  ``head`` is the decomposed head statement, stored so
    candidate enumeration never re-walks the ``Seq`` spine at run time.
    """

    sid: int
    stmt: Stmt
    kind: str
    terminated: bool
    succ_ids: tuple[int, ...]
    head: Optional[Stmt] = None


class CompiledProgram:
    """Statement-closure tables of one litmus program.

    Built once per exploration job.  ``stmt_id`` maps any reachable
    statement to its dense id.
    """

    __slots__ = ("program", "_ids", "stmts")

    def __init__(self, program: Program) -> None:
        self.program = program
        self._ids: dict[Stmt, int] = {}
        self.stmts: list[CompiledStmt] = []
        for stmt in program.threads:
            self._close(normalise(stmt))

    # -- construction -----------------------------------------------------
    def _close(self, root: Stmt) -> int:
        """Discover the statement closure of ``root``, assigning ids."""
        root_id = self._add(root)
        worklist = [root_id]
        while worklist:
            record = self.stmts[worklist.pop()]
            head, rest = split_head(record.stmt)
            succ_ids = []
            for succ in _static_successors(head, rest):
                before = len(self._ids)
                sid = self._add(succ)
                succ_ids.append(sid)
                if len(self._ids) != before:
                    worklist.append(sid)
            # Fill in the successor ids now that the children exist
            # (records are frozen, so replace the list slot).
            self.stmts[record.sid] = CompiledStmt(
                sid=record.sid,
                stmt=record.stmt,
                kind=record.kind,
                terminated=record.terminated,
                succ_ids=tuple(succ_ids),
                head=record.head,
            )
        return root_id

    def _add(self, stmt: Stmt) -> int:
        sid = self._ids.get(stmt)
        if sid is not None:
            return sid
        sid = len(self.stmts)
        self._ids[stmt] = sid
        head, _rest = split_head(stmt)
        self.stmts.append(
            CompiledStmt(
                sid=sid,
                stmt=stmt,
                kind=_head_kind(head),
                terminated=is_terminated(stmt),
                succ_ids=(),
                head=head,
            )
        )
        return sid

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

    def candidate_steps(
        self, sid: int, ts: TState, memory: Memory, arch: Arch, tid: TId
    ) -> list[tuple[int, ThreadStep]]:
        """Candidate steps of statement ``sid``, with successor ids.

        Returns ``(successor statement id, step)`` pairs in exactly the
        order of :func:`~repro.promising.machine.thread_candidate_steps`
        (thread-local steps, then normal writes).  Dynamic behaviour
        comes from the same reference rule bodies in
        :mod:`repro.promising.steps`; what the table removes is the
        per-visit head decomposition, continuation normalisation and
        statement hashing — the head, continuation, and successor ids are
        all static per-statement facts.
        """
        record = self.stmts[sid]
        kind = record.kind
        out: list[tuple[int, ThreadStep]] = []
        if kind == "skip":
            return out
        if kind == "branch":
            then_id, else_id = record.succ_ids
            step = branch_step(
                record.head,
                self.stmts[then_id].stmt,
                self.stmts[else_id].stmt,
                ts,
                memory,
                tid,
            )
            out.append((then_id if step.value != 0 else else_id, step))
            return out
        cont_id = record.succ_ids[0]
        cont = self.stmts[cont_id].stmt
        head = record.head
        if kind == "load":
            for step in read_steps(head, cont, ts, memory, arch, tid):
                out.append((cont_id, step))
        elif kind == "store":
            for step in fulfil_steps(head, cont, ts, memory, arch, tid):
                out.append((cont_id, step))
            if head.exclusive:
                out.append((cont_id, exclusive_fail_step(head, cont, ts, memory, tid)))
            for step in write_steps(head, cont, ts, memory, arch, tid):
                out.append((cont_id, step))
        elif kind == "fence":
            out.append((cont_id, fence_step(head, cont, ts, memory, tid)))
        elif kind == "isb":
            out.append((cont_id, isb_step(cont, ts, memory, tid)))
        elif kind == "assign":
            out.append((cont_id, assign_step(head, cont, ts, memory, tid)))
        else:  # pragma: no cover - closed by _head_kind
            raise TypeError(f"cannot step compiled head kind {kind!r}")
        return out



def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` (run once per job, before exploration)."""
    return CompiledProgram(program)


__all__ = ["CompiledProgram", "CompiledStmt", "compile_program"]
