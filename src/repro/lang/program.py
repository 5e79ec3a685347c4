"""Concurrent programs: a fixed pool of threads plus initial memory.

The paper's machine state is a thread pool and a memory; dynamic thread
creation is not modelled.  A :class:`Program` packages the per-thread
statements together with the initial memory values, symbolic names for
locations (for pretty-printing), and an optional set of *shared* locations
used by the explorer's local-location optimisation (§7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .ast import Load, Stmt, Store, count_memory_accesses, iter_statements, statement_constants
from .expr import Value

Loc = int
TId = int


@dataclass(frozen=True)
class Program:
    """An immutable concurrent program.

    Attributes
    ----------
    threads:
        Statements indexed by thread id ``0..n-1``.
    initial:
        Initial memory values; locations absent from this mapping hold 0,
        matching the paper's convention that memory initially holds 0
        everywhere.
    loc_names:
        Optional symbolic names for locations, used only for display.
    name:
        Optional test name (litmus tests carry one).
    """

    threads: tuple[Stmt, ...]
    initial: Mapping[Loc, Value] = field(default_factory=dict)
    loc_names: Mapping[Loc, str] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", dict(self.initial))
        object.__setattr__(self, "loc_names", dict(self.loc_names))

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def thread_ids(self) -> range:
        return range(len(self.threads))

    def thread(self, tid: TId) -> Stmt:
        return self.threads[tid]

    def constants(self) -> frozenset[int]:
        """All integer literals used by any thread plus initial values."""
        consts: set[int] = set(self.initial.values())
        for stmt in self.threads:
            consts |= statement_constants(stmt)
        return frozenset(consts)

    @cached_property
    def has_exclusive(self) -> bool:
        """Whether some thread has an exclusive load or store.

        Computed once per program: a job fingerprint asks on every
        lookup (see :meth:`repro.harness.jobs.Job.fingerprint`).
        """
        return any(
            isinstance(node, (Load, Store)) and node.exclusive
            for stmt in self.threads
            for node in iter_statements(stmt)
        )

    def memory_access_count(self) -> int:
        """Static count of loads and stores across all threads."""
        return sum(count_memory_accesses(stmt) for stmt in self.threads)

    def loc_name(self, loc: Loc) -> str:
        """Human-readable name of a location (falls back to the number)."""
        return self.loc_names.get(loc, f"m[{loc}]")

    def initial_value(self, loc: Loc) -> Value:
        """Initial value of ``loc`` (0 unless overridden)."""
        return self.initial.get(loc, 0)

    def with_name(self, name: str) -> "Program":
        return Program(self.threads, self.initial, self.loc_names, name)

    def describe(self) -> str:
        """A short multi-line description used by the CLI and examples."""
        lines = [f"program {self.name or '<anonymous>'}: {self.n_threads} threads"]
        for loc in sorted(self.loc_names):
            lines.append(f"  {self.loc_names[loc]} @ {loc} = {self.initial_value(loc)}")
        for tid, stmt in enumerate(self.threads):
            lines.append(f"  thread {tid}: {stmt!r}")
        return "\n".join(lines)


class LocationEnv:
    """Allocator of distinct memory locations with symbolic names.

    Workloads and litmus tests refer to shared variables by name; the
    calculus addresses memory by integers.  A :class:`LocationEnv` maps
    names to integer addresses (spaced by ``stride`` to resemble real
    object layouts) and records the mapping for pretty-printing.
    """

    def __init__(self, stride: int = 8, base: int = 0) -> None:
        if stride <= 0:
            raise ValueError("stride must be positive")
        self._stride = stride
        self._next = base
        self._by_name: dict[str, Loc] = {}

    def __getitem__(self, name: str) -> Loc:
        return self.loc(name)

    def loc(self, name: str) -> Loc:
        """Return the address of ``name``, allocating it on first use."""
        if name not in self._by_name:
            self._by_name[name] = self._next
            self._next += self._stride
        return self._by_name[name]

    def array(self, name: str, length: int) -> list[Loc]:
        """Allocate ``length`` consecutive cells named ``name[i]``."""
        return [self.loc(f"{name}[{i}]") for i in range(length)]

    def names(self) -> dict[Loc, str]:
        """Mapping from address to name, for :class:`Program.loc_names`."""
        return {loc: name for name, loc in self._by_name.items()}

    def defined(self, name: str) -> bool:
        return name in self._by_name

    def __contains__(self, name: str) -> bool:
        return self.defined(name)

    def __len__(self) -> int:
        return len(self._by_name)


def make_program(
    threads: Sequence[Stmt],
    *,
    initial: Optional[Mapping[Loc, Value]] = None,
    env: Optional[LocationEnv] = None,
    loc_names: Optional[Mapping[Loc, str]] = None,
    name: str = "",
) -> Program:
    """Convenience constructor combining an optional :class:`LocationEnv`."""
    names: dict[Loc, str] = {}
    if env is not None:
        names.update(env.names())
    if loc_names:
        names.update(loc_names)
    return Program(tuple(threads), dict(initial or {}), names, name)


__all__ = ["Loc", "TId", "Program", "LocationEnv", "make_program"]
