"""Program transformations used by the explorer and the front ends.

* :func:`unroll_loops` — bounded loop unrolling (the executable model
  bounds loops, §3/§7).
* :func:`localise_private_locations` — the shared-location optimisation of
  §7: accesses to locations that are only ever touched by one thread are
  turned into register moves, which removes them from the interleaving
  problem while preserving register dataflow (and hence dependencies).
* :func:`rename_registers_stmt` — α-renaming of registers, used by the
  assembly front ends to keep thread register files disjoint.
* :func:`private_locations` — the supporting analysis: which statically
  named locations are accessed by at most one thread.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from .ast import (
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
    iter_statements,
    seq,
)
from .expr import Const, Expr, RegE, eval_expr, expr_registers, rename_registers
from .program import Loc, Program


def unroll_loops(stmt: Stmt, bound: int) -> Stmt:
    """Unroll every ``while`` loop ``bound`` times.

    The remaining iterations are replaced by ``skip`` — the standard
    loop-bounding treatment for exhaustive exploration: behaviours that
    need more than ``bound`` iterations are simply not explored.
    """
    if bound < 0:
        raise ValueError("unroll bound must be non-negative")
    if isinstance(stmt, Seq):
        return Seq(unroll_loops(stmt.first, bound), unroll_loops(stmt.second, bound))
    if isinstance(stmt, If):
        return If(stmt.cond, unroll_loops(stmt.then, bound), unroll_loops(stmt.orelse, bound))
    if isinstance(stmt, While):
        body = unroll_loops(stmt.body, bound)
        result: Stmt = Skip()
        for _ in range(bound):
            result = If(stmt.cond, seq(body, result), Skip())
        return result
    return stmt


def unroll_program(program: Program, bound: int) -> Program:
    """Unroll every thread of a program (see :func:`unroll_loops`)."""
    return Program(
        tuple(unroll_loops(t, bound) for t in program.threads),
        program.initial,
        program.loc_names,
        program.name,
    )


def rename_registers_stmt(stmt: Stmt, mapping: Mapping[str, str]) -> Stmt:
    """Rename registers throughout a statement."""

    def ren_expr(expr: Expr) -> Expr:
        return rename_registers(expr, mapping)

    if isinstance(stmt, Skip):
        return stmt
    if isinstance(stmt, Assign):
        return Assign(mapping.get(stmt.reg, stmt.reg), ren_expr(stmt.expr))
    if isinstance(stmt, Load):
        return Load(mapping.get(stmt.reg, stmt.reg), ren_expr(stmt.addr), stmt.kind, stmt.exclusive)
    if isinstance(stmt, Store):
        succ = mapping.get(stmt.succ_reg, stmt.succ_reg) if stmt.succ_reg else None
        return Store(ren_expr(stmt.addr), ren_expr(stmt.data), stmt.kind, stmt.exclusive, succ)
    if isinstance(stmt, (Fence, Isb)):
        return stmt
    if isinstance(stmt, If):
        return If(ren_expr(stmt.cond), rename_registers_stmt(stmt.then, mapping), rename_registers_stmt(stmt.orelse, mapping))
    if isinstance(stmt, While):
        return While(ren_expr(stmt.cond), rename_registers_stmt(stmt.body, mapping))
    if isinstance(stmt, Seq):
        return Seq(rename_registers_stmt(stmt.first, mapping), rename_registers_stmt(stmt.second, mapping))
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# Shared-location optimisation (§7)
# ---------------------------------------------------------------------------


def _static_address(expr: Expr) -> Optional[Loc]:
    """Return the address if ``expr`` is a register-free constant expression."""
    if expr_registers(expr):
        return None
    return eval_expr(expr, {})


def accessed_locations(
    stmt: Stmt, counts: Callable[[Stmt], bool] = lambda access: True
) -> tuple[frozenset[Loc], bool]:
    """Statically known locations accessed by ``stmt``.

    Returns ``(locations, all_static)``; ``all_static`` is False when some
    access address depends on registers, in which case the analysis cannot
    conclude anything about that access's footprint.  ``counts`` picks
    the ``Load``/``Store`` nodes that count as accesses (default: all).
    """
    locs: set[Loc] = set()
    all_static = True
    for node in iter_statements(stmt):
        if isinstance(node, (Load, Store)) and counts(node):
            addr = _static_address(node.addr)
            if addr is None:
                all_static = False
            else:
                locs.add(addr)
    return frozenset(locs), all_static


def observed_locations(stmt: Stmt) -> tuple[frozenset[Loc], bool]:
    """:func:`accessed_locations` of the loads and store exclusives only.

    These are the accesses whose rules look at other threads' messages:
    a load reads them, and a store exclusive's atomicity check scans
    them at its own address.
    """
    return accessed_locations(stmt, lambda access: isinstance(access, Load) or access.exclusive)


def private_locations(program: Program) -> frozenset[Loc]:
    """Locations provably accessed by at most one thread.

    If any thread contains a dynamically addressed access the analysis is
    conservative and returns the empty set (that access could alias any
    location).
    """
    footprints: list[frozenset[Loc]] = []
    for stmt in program.threads:
        locs, all_static = accessed_locations(stmt)
        if not all_static:
            return frozenset()
        footprints.append(locs)
    shared: set[Loc] = set()
    for i, locs in enumerate(footprints):
        for j, other in enumerate(footprints):
            if i < j:
                shared |= locs & other
    every = frozenset().union(*footprints) if footprints else frozenset()
    return frozenset(every - shared)


def _localise_stmt(stmt: Stmt, private: frozenset[Loc], reg_of: dict[Loc, str]) -> Stmt:
    """Rewrite accesses to private locations as register moves."""

    def reg_for(loc: Loc) -> str:
        if loc not in reg_of:
            reg_of[loc] = f"_loc{loc}"
        return reg_of[loc]

    if isinstance(stmt, Seq):
        return Seq(_localise_stmt(stmt.first, private, reg_of), _localise_stmt(stmt.second, private, reg_of))
    if isinstance(stmt, If):
        return If(stmt.cond, _localise_stmt(stmt.then, private, reg_of), _localise_stmt(stmt.orelse, private, reg_of))
    if isinstance(stmt, While):
        return While(stmt.cond, _localise_stmt(stmt.body, private, reg_of))
    if isinstance(stmt, Load):
        addr = _static_address(stmt.addr)
        if addr is not None and addr in private and not stmt.exclusive:
            return Assign(stmt.reg, RegE(reg_for(addr)))
        return stmt
    if isinstance(stmt, Store):
        addr = _static_address(stmt.addr)
        if addr is not None and addr in private and not stmt.exclusive:
            return Assign(reg_for(addr), stmt.data)
        return stmt
    return stmt


def localise_private_locations(
    program: Program, extra_shared: Iterable[Loc] = ()
) -> tuple[Program, frozenset[Loc]]:
    """Apply the §7 shared-location optimisation.

    Accesses to locations used by a single thread become register
    reads/writes; the initial value of such a location seeds the register.
    Exclusive accesses are never localised (their semantics involves the
    global memory).  Returns the rewritten program and the set of
    localised locations.

    ``extra_shared`` lets callers (e.g. a litmus final-state condition that
    mentions a location) force locations to stay in memory.
    """
    private = private_locations(program) - frozenset(extra_shared)
    if not private:
        return program, frozenset()
    new_threads = []
    for stmt in program.threads:
        reg_of: dict[Loc, str] = {}
        body = _localise_stmt(stmt, private, reg_of)
        # Seed the localised registers with the location's initial value.
        inits = [
            Assign(reg, Const(program.initial_value(loc)))
            for loc, reg in sorted(reg_of.items())
        ]
        new_threads.append(seq(*inits, body) if inits else body)
    new_initial = {
        loc: val for loc, val in program.initial.items() if loc not in private
    }
    rewritten = Program(tuple(new_threads), new_initial, program.loc_names, program.name)
    return rewritten, private


__all__ = [
    "unroll_loops",
    "unroll_program",
    "rename_registers_stmt",
    "accessed_locations",
    "observed_locations",
    "private_locations",
    "localise_private_locations",
]
