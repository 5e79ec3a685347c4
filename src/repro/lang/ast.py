"""Statements of the calculus (Fig. 1 of the paper).

Statements are immutable, hashable dataclasses.  The operational models
use a statement as the "program counter" of a thread: executing a step
rewrites the statement (e.g. ``skip; s → s``), exactly as in Fig. 5.

Construction helpers
--------------------

``seq(s1, s2, ...)`` builds a right-nested :class:`Seq`, ``load``/``store``
build memory accesses with keyword-selected kinds, and ``DMB_SY`` etc. are
the ARMv8 barrier aliases expressed as RISC-V style two-argument fences,
exactly as §A.3 defines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .expr import Expr, ExprLike, Reg, expr_constants, expr_registers, to_expr
from .kinds import FenceSet, ReadKind, WriteKind


class Stmt:
    """Base class for statements."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Skip(Stmt):
    """The empty statement (also the terminal state of a thread)."""

    def __repr__(self) -> str:
        return "skip"


@dataclass(frozen=True, slots=True)
class Assign(Stmt):
    """Register assignment ``r := e`` (no memory access)."""

    reg: Reg
    expr: Expr

    def __repr__(self) -> str:
        return f"{self.reg} := {self.expr!r}"


@dataclass(frozen=True, slots=True)
class Load(Stmt):
    """Memory load ``r := load_{xcl,rk} [addr]``."""

    reg: Reg
    addr: Expr
    kind: ReadKind = ReadKind.PLN
    exclusive: bool = False

    def __repr__(self) -> str:
        mods = []
        if self.exclusive:
            mods.append("ex")
        if self.kind is not ReadKind.PLN:
            mods.append(self.kind.name.lower())
        suffix = ("." + ".".join(mods)) if mods else ""
        return f"{self.reg} := load{suffix} [{self.addr!r}]"


@dataclass(frozen=True, slots=True)
class Store(Stmt):
    """Memory store ``r_succ := store_{xcl,wk} [addr] data``.

    ``succ_reg`` receives the success bit for exclusive stores (0 on
    success, 1 on failure).  Non-exclusive stores always succeed; their
    success register is architecturally written to an otherwise unused
    register, so we simply omit it (``succ_reg=None``) which is
    observationally equivalent.
    """

    addr: Expr
    data: Expr
    kind: WriteKind = WriteKind.PLN
    exclusive: bool = False
    succ_reg: Optional[Reg] = None

    def __post_init__(self) -> None:
        if self.exclusive and self.succ_reg is None:
            raise ValueError("exclusive stores must name a success register")

    def __repr__(self) -> str:
        mods = []
        if self.exclusive:
            mods.append("ex")
        if self.kind is not WriteKind.PLN:
            mods.append(self.kind.name.lower())
        suffix = ("." + ".".join(mods)) if mods else ""
        target = f"{self.succ_reg} := " if self.succ_reg else ""
        return f"{target}store{suffix} [{self.addr!r}] {self.data!r}"


@dataclass(frozen=True, slots=True)
class Fence(Stmt):
    """Two-argument fence ``fence_{K1,K2}`` ordering K1-before with K2-after."""

    before: FenceSet
    after: FenceSet

    def __repr__(self) -> str:
        return f"fence.{self.before.name!s}.{self.after.name!s}".lower()


@dataclass(frozen=True, slots=True)
class Isb(Stmt):
    """ARMv8 ``isb`` instruction-synchronisation barrier."""

    def __repr__(self) -> str:
        return "isb"


@dataclass(frozen=True, slots=True)
class If(Stmt):
    """Conditional ``if (e) s1 s2``; nonzero condition takes the then-branch."""

    cond: Expr
    then: Stmt
    orelse: Stmt

    def __repr__(self) -> str:
        return f"if ({self.cond!r}) {{ {self.then!r} }} else {{ {self.orelse!r} }}"


@dataclass(frozen=True, slots=True)
class While(Stmt):
    """Loop ``while (e) s``; the explorer bounds its unrolling."""

    cond: Expr
    body: Stmt

    def __repr__(self) -> str:
        return f"while ({self.cond!r}) {{ {self.body!r} }}"


@dataclass(frozen=True, slots=True)
class Seq(Stmt):
    """Sequential composition ``s1; s2``."""

    first: Stmt
    second: Stmt

    def __repr__(self) -> str:
        return f"{self.first!r}; {self.second!r}"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

#: ARMv8 full barrier dmb.sy = fence_{RW,RW}.
DMB_SY = Fence(FenceSet.RW, FenceSet.RW)
#: ARMv8 load barrier dmb.ld = fence_{R,RW}.
DMB_LD = Fence(FenceSet.R, FenceSet.RW)
#: ARMv8 store barrier dmb.st = fence_{W,W}.
DMB_ST = Fence(FenceSet.W, FenceSet.W)
#: RISC-V full fence fence rw,rw.
FENCE_RW_RW = Fence(FenceSet.RW, FenceSet.RW)
#: RISC-V fence r,rw.
FENCE_R_RW = Fence(FenceSet.R, FenceSet.RW)
#: RISC-V fence w,w.
FENCE_W_W = Fence(FenceSet.W, FenceSet.W)
#: RISC-V fence w,r (no ARMv8 equivalent; still expressible).
FENCE_W_R = Fence(FenceSet.W, FenceSet.R)


def fence_tso() -> Stmt:
    """RISC-V ``fence.tso`` = ``fence r,r ; fence rw,w`` (§A.3)."""
    return seq(Fence(FenceSet.R, FenceSet.R), Fence(FenceSet.RW, FenceSet.W))


def seq(*stmts: Stmt) -> Stmt:
    """Right-nested sequential composition of any number of statements."""
    items = [s for s in stmts if not isinstance(s, Skip)]
    if not items:
        return Skip()
    result = items[-1]
    for stmt in reversed(items[:-1]):
        result = Seq(stmt, result)
    return result


def load(
    reg: Reg,
    addr: ExprLike,
    *,
    kind: ReadKind = ReadKind.PLN,
    exclusive: bool = False,
) -> Load:
    """Build a load statement, coercing integer addresses to constants."""
    return Load(reg, to_expr(addr), kind, exclusive)


def store(
    addr: ExprLike,
    data: ExprLike,
    *,
    kind: WriteKind = WriteKind.PLN,
    exclusive: bool = False,
    succ_reg: Optional[Reg] = None,
) -> Store:
    """Build a store statement, coercing integer operands to constants."""
    return Store(to_expr(addr), to_expr(data), kind, exclusive, succ_reg)


def assign(reg: Reg, expr: ExprLike) -> Assign:
    """Build a register assignment."""
    return Assign(reg, to_expr(expr))


def if_(cond: ExprLike, then: Stmt, orelse: Stmt | None = None) -> If:
    """Build a conditional; the else branch defaults to ``skip``."""
    return If(to_expr(cond), then, orelse if orelse is not None else Skip())


def while_(cond: ExprLike, body: Stmt) -> While:
    """Build a loop."""
    return While(to_expr(cond), body)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def iter_statements(stmt: Stmt) -> Iterator[Stmt]:
    """Yield ``stmt`` and every nested statement (pre-order)."""
    yield stmt
    if isinstance(stmt, Seq):
        yield from iter_statements(stmt.first)
        yield from iter_statements(stmt.second)
    elif isinstance(stmt, If):
        yield from iter_statements(stmt.then)
        yield from iter_statements(stmt.orelse)
    elif isinstance(stmt, While):
        yield from iter_statements(stmt.body)


def statement_registers(stmt: Stmt) -> frozenset[Reg]:
    """All registers read or written anywhere in ``stmt``."""
    regs: set[Reg] = set()
    for node in iter_statements(stmt):
        if isinstance(node, Assign):
            regs.add(node.reg)
            regs |= expr_registers(node.expr)
        elif isinstance(node, Load):
            regs.add(node.reg)
            regs |= expr_registers(node.addr)
        elif isinstance(node, Store):
            regs |= expr_registers(node.addr)
            regs |= expr_registers(node.data)
            if node.succ_reg is not None:
                regs.add(node.succ_reg)
        elif isinstance(node, (If, While)):
            regs |= expr_registers(node.cond)
    return frozenset(regs)


def statement_constants(stmt: Stmt) -> frozenset[int]:
    """All integer literals occurring anywhere in ``stmt``."""
    consts: set[int] = set()
    for node in iter_statements(stmt):
        if isinstance(node, Assign):
            consts |= expr_constants(node.expr)
        elif isinstance(node, Load):
            consts |= expr_constants(node.addr)
        elif isinstance(node, Store):
            consts |= expr_constants(node.addr)
            consts |= expr_constants(node.data)
        elif isinstance(node, (If, While)):
            consts |= expr_constants(node.cond)
    return frozenset(consts)


def count_memory_accesses(stmt: Stmt) -> int:
    """Number of load/store statements syntactically present."""
    return sum(
        1 for node in iter_statements(stmt) if isinstance(node, (Load, Store))
    )


def has_loops(stmt: Stmt) -> bool:
    """Whether the statement contains a ``while`` loop."""
    return any(isinstance(node, While) for node in iter_statements(stmt))


def statement_size(stmt: Stmt) -> int:
    """Number of statement nodes (a rough complexity measure)."""
    return sum(1 for _ in iter_statements(stmt))


__all__ = [
    "Stmt",
    "Skip",
    "Assign",
    "Load",
    "Store",
    "Fence",
    "Isb",
    "If",
    "While",
    "Seq",
    "DMB_SY",
    "DMB_LD",
    "DMB_ST",
    "FENCE_RW_RW",
    "FENCE_R_RW",
    "FENCE_W_W",
    "FENCE_W_R",
    "fence_tso",
    "seq",
    "load",
    "store",
    "assign",
    "if_",
    "while_",
    "iter_statements",
    "statement_registers",
    "statement_constants",
    "count_memory_accesses",
    "has_loops",
    "statement_size",
]
