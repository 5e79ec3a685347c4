"""Machine states and certified machine steps (Fig. 5, bottom).

The machine state is a thread pool plus memory.  A machine step picks a
thread, lets it take a thread step (an execute step or a promise), and
requires the resulting thread configuration to be certified (rule r24).

This module is the reference, un-optimised semantics.  The interactive
debugger (:mod:`repro.promising.interactive`) is built directly on it,
and the tests hold the execution backend's naive successor lists
(:mod:`repro.backend.packed`) to :func:`machine_transitions`; the fast
explorer (:mod:`repro.promising.exhaustive`) uses the promise-first
strategy instead but produces the same outcomes (Theorem 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import Stmt
from ..lang.kinds import Arch
from ..lang.program import Program, TId
from ..outcomes import Outcome
from .certification import DEFAULT_FUEL, certified, find_and_certify
from .state import Memory, TState, initial_tstate
from .steps import (
    ThreadStep,
    is_terminated,
    normal_write_steps,
    normalise,
    promise_step,
    thread_local_steps,
)


@dataclass(frozen=True)
class Thread:
    """A thread of the machine: remaining statement plus thread state."""

    stmt: Stmt
    tstate: TState

    def key(self) -> tuple:
        return (self.stmt, self.tstate.cache_key())

    @property
    def terminated(self) -> bool:
        return is_terminated(self.stmt)

    @property
    def has_promises(self) -> bool:
        return self.tstate.has_promises


class MachineState:
    """A state ⟨T⃗, M⟩ of the whole machine."""

    __slots__ = ("threads", "memory", "arch", "_key")

    def __init__(self, threads: tuple[Thread, ...], memory: Memory, arch: Arch) -> None:
        self.threads = threads
        self.memory = memory
        self.arch = arch
        self._key: Optional[tuple] = None

    @classmethod
    def initial(cls, program: Program, arch: Arch) -> "MachineState":
        threads = tuple(
            Thread(normalise(stmt), initial_tstate()) for stmt in program.threads
        )
        return cls(threads, Memory(program.initial), arch)

    # -- queries ----------------------------------------------------------
    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def thread(self, tid: TId) -> Thread:
        return self.threads[tid]

    @property
    def is_final(self) -> bool:
        """All threads terminated with no outstanding promises."""
        return all(t.terminated and not t.has_promises for t in self.threads)

    @property
    def has_outstanding_promises(self) -> bool:
        return any(t.has_promises for t in self.threads)

    def outcome(self) -> Outcome:
        """The outcome of a final state."""
        return Outcome.make(
            [t.tstate.register_values() for t in self.threads],
            self.memory.final_values(),
        )

    def cache_key(self) -> tuple:
        """Canonical hashable identity, computed once and cached."""
        if self._key is None:
            self._key = (
                tuple(t.key() for t in self.threads),
                self.memory.cache_key(),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MachineState) and self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    # -- stepping ---------------------------------------------------------
    def replace_thread(self, tid: TId, step: ThreadStep) -> "MachineState":
        threads = list(self.threads)
        threads[tid] = Thread(step.stmt, step.tstate)
        return MachineState(tuple(threads), step.memory, self.arch)

    def describe(self) -> str:
        lines = [f"memory: {self.memory!r}"]
        for tid, thread in enumerate(self.threads):
            status = "terminated" if thread.terminated else f"next: {thread.stmt!r}"
            lines.append(f"thread {tid}: {status}")
            lines.append("  " + thread.tstate.describe().replace("\n", "\n  "))
        return "\n".join(lines)


@dataclass(frozen=True)
class MachineTransition:
    """A certified machine step: which thread did what, and the new state."""

    tid: TId
    step: ThreadStep
    state: MachineState

    @property
    def description(self) -> str:
        return self.step.description

    def __repr__(self) -> str:
        return f"<T{self.tid} {self.step.kind}: {self.step.description}>"


def thread_candidate_steps(
    thread: Thread, memory: Memory, arch: Arch, tid: TId
) -> list[ThreadStep]:
    """The non-promise machine-step candidates of one thread.

    Thread-local steps plus normal writes, in the order the machine-step
    rule enumerates them; each still needs the certification filter.
    The step kernels of :mod:`repro.isa.compile` enumerate in the same
    order.
    """
    return thread_local_steps(
        thread.stmt, thread.tstate, memory, arch, tid
    ) + normal_write_steps(thread.stmt, thread.tstate, memory, arch, tid)


def machine_transitions(
    state: MachineState,
    fuel: int = DEFAULT_FUEL,
    include_promises: bool = True,
) -> list[MachineTransition]:
    """All certified machine transitions from ``state`` (rule machine-step).

    Execute steps and normal writes are filtered by the certification
    check; promise steps come from :func:`find_and_certify` and are
    certified by construction (Theorem 6.4).
    """
    transitions: list[MachineTransition] = []
    for tid, thread in enumerate(state.threads):
        for step in thread_candidate_steps(thread, state.memory, state.arch, tid):
            if not certified(step.stmt, step.tstate, step.memory, state.arch, tid, fuel):
                continue
            transitions.append(MachineTransition(tid, step, state.replace_thread(tid, step)))
        if include_promises:
            result = find_and_certify(
                thread.stmt, thread.tstate, state.memory, state.arch, tid, fuel
            )
            for msg in sorted(result.promises, key=lambda m: (m.loc, m.val)):
                step = promise_step(thread.stmt, thread.tstate, state.memory, msg)
                transitions.append(MachineTransition(tid, step, state.replace_thread(tid, step)))
    return transitions


def run_deterministic(
    state: MachineState, choose, max_steps: int = 10_000, fuel: int = DEFAULT_FUEL
) -> MachineState:
    """Run the machine, using ``choose(transitions)`` to pick each step.

    A small utility for tests and examples: ``choose`` may be
    ``lambda ts: ts[0]`` for a deterministic schedule or a random pick for
    simulation runs.  Stops at a final state, when no transition is
    enabled, or after ``max_steps``.
    """
    for _ in range(max_steps):
        if state.is_final:
            return state
        transitions = machine_transitions(state, fuel)
        if not transitions:
            return state
        chosen = choose(transitions)
        state = chosen.state
    return state


__all__ = [
    "Thread",
    "MachineState",
    "MachineTransition",
    "machine_transitions",
    "run_deterministic",
    "thread_candidate_steps",
]
