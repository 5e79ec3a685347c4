"""Exploration of Promising-ARM/RISC-V executions (§7).

Two explorers are provided, both driven by the unified search kernel
(:mod:`repro.explore`), which runs the loop the config's ``strategy``
names (``dfs`` exhaustive, ``sample`` seeded random walks):

* :func:`explore` — the paper's optimised strategy.  By Theorem 7.1 every
  trace can be reordered so that all promises come first; the explorer
  therefore first interleaves only (certified) promise transitions,
  enumerating all possible *final memories*, and then lets each thread run
  to completion independently under each fixed memory, without
  interleaving reads.  The §7 shared-location optimisation (treating
  locations private to one thread as registers) is applied when enabled.

* :func:`explore_naive` — the unoptimised reference: a plain search over
  all certified machine transitions (reads, writes and promises fully
  interleaved).  It produces the same outcome set and exists for
  cross-validation and for the ablation benchmark quantifying the value of
  the promise-first strategy.

Under the ``sample`` strategy the kernel walks the same transition
relation instead of enumerating it, so the outcome set is a sound
under-approximation.  The per-thread completion sets stay exhaustive
regardless of the outer strategy (they must not invent partial register
files): they are read off each thread's certification graph, which
certification builds in full (up to ``cert_fuel``) under any strategy.

Both explorers run on the execution backend
(:class:`~repro.backend.packed.PackedPromisingBackend`): the drive logic
below never touches ``TState``/``Memory`` directly — it certifies,
crosses completion sets and steps through the backend, which owns the
state representation (compiled programs, interned integer tuples) and
the intern/cert/phase accounting that goes with it.  One certification
build per thread configuration answers every thread-local question:
certified, next promises, and the register files the thread can finish
with under the current memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..explore import BaseSearchConfig, SearchKernel, SearchStats
from ..lang.program import Loc, Program
from ..lang.transform import localise_private_locations, unroll_program
from ..lang import has_loops
from ..outcomes import OutcomeSet
from .certification import DEFAULT_FUEL


@dataclass
class ExploreConfig(BaseSearchConfig):
    """Configuration of the promising explorers.

    The search-kernel fields (``arch``, ``loop_bound``, ``max_states``,
    ``deadline_seconds``, ``strategy``, ``samples``,
    ``sample_depth``, ``seed``) come from :class:`BaseSearchConfig`, and
    the explorers hand the whole config to the
    :class:`~repro.explore.kernel.SearchKernel`; only the
    promising-specific knobs live here.
    """

    #: Cap on promise-mode machine states (safety valve; exploration is
    #: reported as truncated when hit).
    max_states: int = 500_000
    #: Bound on the states visited by a single certification run.
    cert_fuel: int = DEFAULT_FUEL
    #: Apply the shared-location optimisation of §7.
    localise: bool = True
    #: Locations that must be kept in memory even if thread-private
    #: (e.g. locations observed by a litmus final-state condition).
    shared_locations: tuple[Loc, ...] = ()


@dataclass
class ExplorationStats(SearchStats):
    """Diagnostics collected during exploration.

    Extends the kernel's shared :class:`~repro.explore.SearchStats`
    (truncation, deadline, strategy and sampling counters) with the
    promise-first specifics.
    """

    promise_states: int = 0
    promise_transitions: int = 0
    final_memories: int = 0
    deadlocked_states: int = 0
    localised_locations: tuple[Loc, ...] = ()
    #: Certification invocations and how many were answered by the memo.
    cert_calls: int = 0
    cert_memo_hits: int = 0
    #: Certification builds cut short by ``cert_fuel`` (each one marks the
    #: run truncated), and the most nodes one build visited.
    cert_fuel_hits: int = 0
    max_cert_nodes: int = 0
    #: Hash-consing statistics of the run's intern pool.
    interned_keys: int = 0
    intern_hits: int = 0
    #: Step-table reuse: successor lists replayed from the backend's
    #: integer memo instead of re-enumerated.
    step_memo_hits: int = 0
    step_memo_misses: int = 0

    def describe(self) -> str:
        return (
            f"promise states: {self.promise_states}, "
            f"final memories: {self.final_memories}, "
            f"deadlocks: {self.deadlocked_states}, "
            f"dedup hits: {self.dedup_hits}, "
            f"cert memo hits: {self.cert_memo_hits}/{self.cert_calls}, "
            f"truncated: {self.truncated}, "
            f"time: {self.elapsed_seconds:.3f}s"
        ) + self.sampling_suffix()


@dataclass
class ExplorationResult:
    """Outcome set plus statistics."""

    outcomes: OutcomeSet
    stats: ExplorationStats
    program: Program

    def describe(self) -> str:
        header = f"{len(self.outcomes)} outcomes ({self.stats.describe()})"
        return header + "\n" + self.outcomes.describe(self.program.loc_names)


def _prepare(program: Program, config: ExploreConfig) -> tuple[Program, tuple[Loc, ...]]:
    """Unroll loops and apply the shared-location optimisation."""
    prepared = program
    if any(has_loops(t) for t in program.threads):
        prepared = unroll_program(prepared, config.loop_bound)
    localised: tuple[Loc, ...] = ()
    if config.localise:
        prepared, private = localise_private_locations(
            prepared, extra_shared=config.shared_locations
        )
        localised = tuple(sorted(private))
    return prepared, localised


# ---------------------------------------------------------------------------
# Promise-first exploration
# ---------------------------------------------------------------------------


def explore(program: Program, config: Optional[ExploreConfig] = None) -> ExplorationResult:
    """Enumerate the outcomes of ``program`` (promise-first).

    Exhaustive under the ``dfs`` strategy; a sound sample of the
    outcome set under ``sample``.
    """
    config = config or ExploreConfig()
    start = time.perf_counter()
    stats = ExplorationStats()
    prepared, localised = _prepare(program, config)
    stats.localised_locations = localised

    # Lazy import: repro.backend imports this package's siblings, so the
    # module edge must point backend -> promising only.
    from ..backend.packed import PackedPromisingBackend

    backend = PackedPromisingBackend(prepared, config, stats)
    outcomes = OutcomeSet()

    def expand(packed) -> list:
        per_thread, can_finish = backend.certify_all(packed)

        # Can every thread finish under the current memory without any new
        # promise?  If so the current memory is a candidate final memory:
        # the backend crosses the per-thread completion sets that
        # certification just returned into the outcome set.
        if all(can_finish):
            stats.final_memories += 1
            backend.accumulate_outcomes(outcomes, packed, per_thread)
        elif not any(cert.promises for cert in per_thread):
            # No thread can finish and nobody can promise: a stuck state
            # (possible for ARM store exclusives, §4.3).
            stats.deadlocked_states += 1

        return backend.promise_successors(packed, per_thread)

    kernel = SearchKernel(expand, config)
    kernel.run([backend.initial()])
    stats.promise_states += kernel.stats.states
    stats.promise_transitions += kernel.stats.transitions
    kernel.finish(stats)

    backend.finalise(stats, model="promising")
    stats.elapsed_seconds = time.perf_counter() - start
    return ExplorationResult(outcomes, stats, program)


# ---------------------------------------------------------------------------
# Naive (fully interleaved) exploration
# ---------------------------------------------------------------------------


def explore_naive(program: Program, config: Optional[ExploreConfig] = None) -> ExplorationResult:
    """Enumerate outcomes by interleaving *all* certified machine steps.

    Exponentially more states than :func:`explore`; used to validate the
    promise-first strategy (both must return the same outcome set) and as
    the baseline of the ablation benchmark.  Under ``sample`` this is the
    litmus-style statistical runner: each walk is one random interleaving
    of certified machine steps, run to a final (or stuck) state.
    """
    config = config or ExploreConfig()
    start = time.perf_counter()
    stats = ExplorationStats()
    prepared, localised = _prepare(program, config)
    stats.localised_locations = localised

    from ..backend.packed import PackedPromisingBackend

    backend = PackedPromisingBackend(prepared, config, stats)
    outcomes = OutcomeSet()

    def expand(packed) -> list:
        if backend.is_final(packed):
            outcomes.add(backend.outcome(packed))
            return []
        successors = backend.successors(packed)
        if not successors and backend.has_outstanding_promises(packed):
            stats.deadlocked_states += 1
        return successors

    kernel = SearchKernel(expand, config)
    kernel.run([backend.initial()])
    stats.promise_states += kernel.stats.states
    stats.promise_transitions += kernel.stats.transitions
    kernel.finish(stats)

    backend.finalise(stats, model="promising-naive")
    stats.elapsed_seconds = time.perf_counter() - start
    return ExplorationResult(outcomes, stats, program)


__all__ = [
    "ExploreConfig",
    "ExplorationStats",
    "ExplorationResult",
    "explore",
    "explore_naive",
]
