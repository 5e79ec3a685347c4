"""Shared building blocks for the evaluation workloads (§8 of the paper).

The paper's evaluation runs concurrent data structures and locks compiled
from C++/Rust (or hand-written assembly) through the exploration tool.
Here the same algorithms are written directly in the calculus.  This
module provides the pieces they share:

* :func:`ll_sc_cas` — a bounded compare-and-swap built from load/store
  exclusives, the way compilers lower ``atomic_compare_exchange``;
* :func:`fetch_add` — an LL/SC fetch-and-add loop;
* :class:`Workload` — a named, parameterised workload with a correctness
  condition, the unit the benchmark harness iterates over;
* a tiny bump allocator used by the pointer-based structures, mirroring
  the "very naive malloc" the paper uses because the tool does not model
  dynamic memory allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..lang import (
    Expr,
    LocationEnv,
    Loc,
    Program,
    R,
    ReadKind,
    Stmt,
    WriteKind,
    assign,
    if_,
    load,
    seq,
    store,
)
from ..outcomes import Outcome, OutcomeSet


#: Register every workload thread sets to 1 as its very last instruction.
#: Because the explorers bound loops, a thread may "run out" of retries and
#: stop early; conditions quantify only over threads that completed.
DONE_REG = "rdone"


def _status_register(old_reg: str) -> str:
    """The store-exclusive status register of the LL/SC loop loading ``old_reg``.

    Named after the call site's own register, so a workload built twice
    is the same program (and has the same job fingerprint), and equal
    threads stay equal.
    """
    return f"_sc_{old_reg}"


def done_marker() -> Stmt:
    """Mark the thread as having completed its workload."""
    return assign(DONE_REG, 1)


def completed(outcome: Outcome, tid: int) -> bool:
    """Did thread ``tid`` complete its workload in this outcome?"""
    return outcome.reg(tid, DONE_REG) == 1


def ll_sc_cas(
    addr: Loc | Expr,
    expected: Expr | int,
    desired: Expr | int,
    *,
    old_reg: str,
    ok_reg: str,
    retries: int = 2,
    acquire: bool = False,
    release: bool = False,
) -> Stmt:
    """A bounded compare-and-swap loop built from load/store exclusives.

    On exit ``ok_reg`` is 1 if the CAS succeeded (the value at ``addr`` was
    ``expected`` and was replaced by ``desired``) and 0 otherwise;
    ``old_reg`` holds the last observed value.  ``retries`` bounds the
    number of LL/SC attempts, as the executable tool bounds loops.
    """
    status = _status_register(old_reg)
    rk = ReadKind.ACQ if acquire else ReadKind.PLN
    wk = WriteKind.REL if release else WriteKind.PLN
    attempt = seq(
        load(old_reg, addr, kind=rk, exclusive=True),
        if_(
            R(old_reg).eq(expected),
            seq(
                store(addr, desired, kind=wk, exclusive=True, succ_reg=status),
                # STXR convention: 0 = success.
                if_(R(status).eq(0), assign(ok_reg, 1), assign(ok_reg, 0)),
            ),
            assign(ok_reg, 0),
        ),
    )
    body: Stmt = attempt
    for _ in range(retries - 1):
        body = seq(attempt, if_(R(ok_reg).eq(0) & R(old_reg).eq(expected), body))
    return seq(assign(ok_reg, 0), body)


def fetch_add(
    addr: Loc | Expr,
    increment: Expr | int,
    *,
    old_reg: str,
    retries: int = 2,
    acquire: bool = False,
    release: bool = False,
) -> Stmt:
    """A bounded LL/SC fetch-and-add; ``old_reg`` receives the old value.

    The pseudo register ``<old_reg>_ok`` is 1 when the update succeeded
    within the retry bound.
    """
    ok_reg = f"{old_reg}_ok"
    status = _status_register(old_reg)
    rk = ReadKind.ACQ if acquire else ReadKind.PLN
    wk = WriteKind.REL if release else WriteKind.PLN
    attempt = seq(
        load(old_reg, addr, kind=rk, exclusive=True),
        store(addr, R(old_reg) + increment, kind=wk, exclusive=True, succ_reg=status),
        if_(R(status).eq(0), assign(ok_reg, 1), assign(ok_reg, 0)),
    )
    body: Stmt = attempt
    for _ in range(retries - 1):
        body = seq(attempt, if_(R(ok_reg).eq(0), body))
    return seq(assign(ok_reg, 0), body)


def spin_until_equals(
    addr: Loc | Expr, value: Expr | int, *, reg: str, acquire: bool = False, spins: int = 2
) -> Stmt:
    """Spin (boundedly) until a location holds ``value``.

    ``reg`` receives the last value read; after the bounded spin the caller
    must check ``reg`` before entering the protected region.
    """
    rk = ReadKind.ACQ if acquire else ReadKind.PLN
    body: Stmt = load(reg, addr, kind=rk)
    for _ in range(spins - 1):
        body = seq(load(reg, addr, kind=rk), if_(R(reg).ne(value), body))
    return body


@dataclass
class Workload:
    """A parameterised evaluation workload.

    Attributes
    ----------
    name:
        Paper-style identifier, e.g. ``"SLC-2"`` or ``"QU-100-010-000"``.
    program:
        The concurrent program to explore.
    condition:
        A predicate on outcomes that must hold for *every* outcome (a
        safety property of the data structure / lock).
    description:
        What the workload models and what the condition checks.
    expected_violation:
        True for deliberately broken variants (e.g. the relaxed
        Michael–Scott queue of §8) where the checker is expected to find a
        violating outcome.
    """

    name: str
    program: Program
    condition: Callable[[Outcome], bool]
    description: str = ""
    expected_violation: bool = False

    def violations(self, outcomes: OutcomeSet) -> list[Outcome]:
        """Outcomes violating the workload's safety condition."""
        return [o for o in outcomes if not self.condition(o)]

    def check(self, outcomes: OutcomeSet) -> bool:
        """True when the outcome set matches the expectation."""
        violating = self.violations(outcomes)
        return bool(violating) == self.expected_violation


class NodePool:
    """A bump allocator over a statically laid-out pool of nodes.

    The paper "fakes" malloc with a naive allocator in the test harness;
    we do the same: each node has ``fields`` consecutive cells, and
    :meth:`alloc` hands out node base addresses at build time (allocation
    is static, per thread, exactly as in the paper's single-shot tests).
    """

    def __init__(self, env: LocationEnv, name: str, fields: Sequence[str]) -> None:
        self._env = env
        self._name = name
        self._fields = tuple(fields)
        self._count = 0

    def alloc(self) -> dict[str, Loc]:
        """Allocate one node; returns the address of each field."""
        index = self._count
        self._count += 1
        return {
            field_name: self._env[f"{self._name}{index}.{field_name}"]
            for field_name in self._fields
        }

    @property
    def allocated(self) -> int:
        return self._count


__all__ = [
    "DONE_REG",
    "done_marker",
    "completed",
    "ll_sc_cas",
    "fetch_add",
    "spin_until_equals",
    "Workload",
    "NodePool",
]
