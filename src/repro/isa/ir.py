"""Intermediate representation shared by the assembly front ends.

The ARMv8 and RISC-V parsers both lower assembly text to a flat list of
:class:`IrInstr` — either a straight-line calculus statement or a
(conditional) branch to a label — plus a label table.  The bounded
structurisation pass (:func:`structurise`) then turns this control-flow
graph into the structured statements of the calculus, which is what the
concurrency models execute.

The structurisation is the *bounded unfolding* used by litmus-style
exploration: each program point may be revisited at most ``unroll_bound``
times along any path (loops beyond the bound are cut to ``skip``), and
every instruction after a conditional branch ends up inside the branch's
``if``, which matches the architecture's notion that all program-order
later instructions are control-dependent on it (§3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..lang.ast import If, Skip, Stmt, seq
from ..lang.expr import Expr


@dataclass(frozen=True)
class StraightLine:
    """A non-branch instruction, already lowered to a calculus statement."""

    stmt: Stmt
    source: str = ""


@dataclass(frozen=True)
class Branch:
    """A branch to ``target``; unconditional when ``cond`` is ``None``.

    ``cond`` is the branch-taken condition as a calculus expression over
    the thread's registers (nonzero means taken).
    """

    target: str
    cond: Optional[Expr] = None
    source: str = ""


IrInstr = StraightLine | Branch


@dataclass(frozen=True)
class ThreadIr:
    """The lowered form of one thread: instructions plus label table."""

    instructions: tuple[IrInstr, ...]
    labels: Mapping[str, int]
    source: str = ""

    def label_index(self, name: str) -> int:
        if name not in self.labels:
            raise KeyError(f"undefined label {name!r}")
        return self.labels[name]


class StructurisationError(Exception):
    """Raised for malformed control flow (e.g. a branch to a missing label)."""


def structurise(thread: ThreadIr, unroll_bound: int = 2) -> Stmt:
    """Turn a thread's instruction list into a structured statement.

    The expansion starts at instruction 0 and follows fall-through and
    branch edges; a conditional branch becomes ``if (cond) <target...>
    <fall-through...>``.  A program point visited more than
    ``unroll_bound`` times on the current path is cut to ``skip``, which
    bounds loops exactly like the executable model of the paper bounds
    them.
    """
    if unroll_bound < 1:
        raise ValueError("unroll bound must be at least 1")
    instrs = thread.instructions

    def expand(pc: int, visits: dict[int, int]) -> Stmt:
        if pc >= len(instrs):
            return Skip()
        count = visits.get(pc, 0)
        if count >= unroll_bound:
            return Skip()
        visits = dict(visits)
        visits[pc] = count + 1
        instr = instrs[pc]
        if isinstance(instr, StraightLine):
            rest = expand(pc + 1, visits)
            return seq(instr.stmt, rest)
        if isinstance(instr, Branch):
            try:
                target_pc = thread.label_index(instr.target)
            except KeyError as exc:
                raise StructurisationError(str(exc)) from None
            taken = expand(target_pc, visits)
            if instr.cond is None:
                return taken
            fallthrough = expand(pc + 1, visits)
            return If(instr.cond, taken, fallthrough)
        raise TypeError(f"unknown IR instruction {instr!r}")

    return expand(0, {})


__all__ = [
    "StraightLine",
    "Branch",
    "IrInstr",
    "ThreadIr",
    "StructurisationError",
    "structurise",
]
