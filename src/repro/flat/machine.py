"""A Flat-style abstract-microarchitectural baseline model (state part).

The paper compares the Promising explorer against the *Flat* operational
model of Pulte, Flur et al. [39], which executes instructions in multiple
steps, out of order, with explicit branch speculation and restarts, over a
flat (multicopy-atomic) storage subsystem.  This module defines the state
of a faithful-in-spirit but simplified model with the same structure:

* each thread *fetches* instructions in program order into an instruction
  window, speculating past unresolved conditional branches;
* window entries *execute* out of order, subject to dependency, coherence
  and barrier conditions;
* writes propagate to the flat storage only when non-speculative;
* a mis-speculated branch discards the instructions fetched after it and
  resumes fetching from the other continuation (restart);
* completed window prefixes *retire* into the committed register file.

The storage associates a monotonically increasing version with every
location so that the load/store-exclusive monitor can detect intervening
writes.  The transition rules live in :mod:`repro.flat.explorer`.

Because every instruction contributes several fine-grained transitions and
speculation multiplies the fetch paths, the reachable state space is far
larger than the Promising model's — the effect Table 2 of the paper
quantifies.  The model is validated against the Promising/axiomatic
verdicts on the basic litmus shapes (``tests/test_flat.py``); it is an
approximation of Flat, not a re-implementation, as recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import Assign, Load, Skip, Stmt, Store
from ..lang.expr import Expr, Value, eval_expr, expr_registers
from ..lang.kinds import Arch, VFAIL, VSUCC
from ..lang.program import Loc, Program
from ..outcomes import Outcome
from ..promising.steps import normalise

#: Marker for "this register's value is not yet available in the window".
UNAVAILABLE = object()


@dataclass(frozen=True)
class WindowEntry:
    """One fetched instruction instance in a thread's reorder window."""

    kind: str  # 'load', 'store', 'assign', 'fence', 'isb', 'branch'
    stmt: Stmt
    #: For branches: the continuation to resume from on mis-speculation.
    alt_continuation: Optional[Stmt] = None
    #: For branches: the speculated direction (True = then-branch).
    speculated_taken: bool = False
    done: bool = False
    #: Result value (loads) / resolved branch condition value.
    value: Optional[Value] = None
    #: Whether an exclusive store succeeded (stores only).
    success: Optional[bool] = None

    def __repr__(self) -> str:
        status = "done" if self.done else "pending"
        return f"<{self.kind} {self.stmt!r} [{status}]>"


@dataclass(frozen=True)
class FlatThread:
    """A thread: committed registers, reorder window, fetch frontier."""

    regs: tuple[tuple[str, Value], ...]
    window: tuple[WindowEntry, ...]
    continuation: Stmt
    #: Exclusives monitor: (location, storage version) of the last load
    #: exclusive, cleared by any store exclusive.
    reservation: Optional[tuple[Loc, int]] = None

    def reg_dict(self) -> dict[str, Value]:
        return dict(self.regs)

    @property
    def finished(self) -> bool:
        return isinstance(normalise(self.continuation), Skip) and not self.window


@dataclass(frozen=True)
class FlatState:
    """A whole-machine state: thread pool plus versioned flat storage."""

    threads: tuple[FlatThread, ...]
    #: Sorted tuples (location, value, version); locations absent hold
    #: their initial value at version 0.
    storage: tuple[tuple[Loc, Value, int], ...]
    initial: tuple[tuple[Loc, Value], ...] = ()

    def storage_value(self, loc: Loc) -> Value:
        for location, value, _version in self.storage:
            if location == loc:
                return value
        return dict(self.initial).get(loc, 0)

    def storage_version(self, loc: Loc) -> int:
        for location, _value, version in self.storage:
            if location == loc:
                return version
        return 0

    def with_write(self, loc: Loc, value: Value) -> "FlatState":
        version = self.storage_version(loc) + 1
        rest = tuple(entry for entry in self.storage if entry[0] != loc)
        return FlatState(
            self.threads,
            tuple(sorted(rest + ((loc, value, version),))),
            self.initial,
        )

    def final_memory(self) -> dict[Loc, Value]:
        values = dict(self.initial)
        for loc, value, _version in self.storage:
            values[loc] = value
        return values

    @property
    def is_final(self) -> bool:
        return all(t.finished for t in self.threads)

    def cache_key(self) -> tuple:
        """Canonical hashable identity for the explorer's visited set.

        The ``initial`` tuple is a per-program constant, so threads plus
        the versioned storage discriminate every reachable state; keeping
        it out of the key lets symmetric interleavings share one entry.

        The execution backend
        (:class:`repro.backend.packed.PackedFlatBackend`) interns states
        to dense integer ids instead, so its visited set probes ints; the
        tests use this key to compare its decoded states with the
        reference :func:`~repro.flat.explorer.successors`.
        """
        return (self.threads, self.storage)

    def outcome(self) -> Outcome:
        return Outcome.make([t.reg_dict() for t in self.threads], self.final_memory())


def initial_state(program: Program, arch: Arch) -> FlatState:
    threads = tuple(
        FlatThread(regs=(), window=(), continuation=normalise(stmt))
        for stmt in program.threads
    )
    return FlatState(threads, (), tuple(sorted(program.initial.items())))


# ---------------------------------------------------------------------------
# Register availability inside the window
# ---------------------------------------------------------------------------


def window_regs(thread: FlatThread, upto: int) -> dict[str, object]:
    """Register values visible to window entry number ``upto``.

    The committed register file overlaid with the results of earlier window
    entries; registers written by earlier entries that have not executed
    yet map to :data:`UNAVAILABLE`.
    """
    regs: dict[str, object] = dict(thread.regs)
    for entry in thread.window[:upto]:
        stmt = entry.stmt
        if entry.kind == "assign" and isinstance(stmt, Assign):
            regs[stmt.reg] = entry.value if entry.done else UNAVAILABLE
        elif entry.kind == "load" and isinstance(stmt, Load):
            regs[stmt.reg] = entry.value if entry.done else UNAVAILABLE
        elif entry.kind == "store" and isinstance(stmt, Store):
            if stmt.exclusive and stmt.succ_reg is not None:
                if entry.done:
                    regs[stmt.succ_reg] = VSUCC if entry.success else VFAIL
                else:
                    regs[stmt.succ_reg] = UNAVAILABLE
    return regs


def try_eval(expr: Expr, regs: dict[str, object]) -> Optional[Value]:
    """Evaluate ``expr`` if every register it reads is available."""
    for reg in expr_registers(expr):
        if regs.get(reg, 0) is UNAVAILABLE:
            return None
    concrete = {r: v for r, v in regs.items() if v is not UNAVAILABLE}
    return eval_expr(expr, concrete)  # type: ignore[arg-type]


def unresolved_branch_before(thread: FlatThread, index: int) -> bool:
    """Is some branch before ``index`` still speculative?"""
    return any(e.kind == "branch" and not e.done for e in thread.window[:index])


def entry_address(thread: FlatThread, index: int) -> Optional[Loc]:
    """The resolved address of an access entry, if computable yet."""
    stmt = thread.window[index].stmt
    if isinstance(stmt, (Load, Store)):
        return try_eval(stmt.addr, window_regs(thread, index))
    return None


__all__ = [
    "UNAVAILABLE",
    "WindowEntry",
    "FlatThread",
    "FlatState",
    "initial_state",
    "window_regs",
    "try_eval",
    "unresolved_branch_before",
    "entry_address",
]
