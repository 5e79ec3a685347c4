"""The unified exploration kernel.

Every machine-level state-space search in the repo — the promise-first
explorer, the naive fully-interleaved explorer and the Flat-style
explorer — used to hand-roll the same loop: a frontier, a visited set,
a state budget, truncation accounting, and stats counters.  (Per-thread
completion sets are read off the certification graph instead; see
:func:`~repro.promising.certification.find_and_certify`.)  The
:class:`SearchKernel` owns all of that once, parameterised by

* a **transition-enumeration callback** ``successors(state)`` returning
  the successor states (and recording outcomes/deadlocks as a side
  effect when the popped state is terminal), and
* the explorer's config, whose ``strategy`` picks one of the kernel's
  two loops (``dfs`` exhaustive depth-first, ``sample`` seeded random
  walks) and whose fields set its budgets.

The kernel's counters land in a :class:`KernelStats`, which the concrete
explorers fold into their domain-specific stats dataclasses (both of
which extend :class:`SearchStats`, so strategy/sampling fields flow
uniformly into job results and sweep reports).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..obs import metrics
from .config import BaseSearchConfig

# Flushed once per kernel run — the inner loop touches only KernelStats'
# plain ints, so instrumentation cost is O(1) per search, not per state.
_KERNEL_RUNS = metrics.counter(
    "kernel_runs_total", "SearchKernel runs completed.", labels=("strategy",)
)
_KERNEL_STATES = metrics.counter(
    "kernel_states_total", "States visited across all kernel runs.", labels=("strategy",)
)
_KERNEL_TRANSITIONS = metrics.counter(
    "kernel_transitions_total", "Transitions enumerated across all kernel runs.",
    labels=("strategy",),
)
_KERNEL_DEDUP_HITS = metrics.counter(
    "kernel_dedup_hits_total", "Visited-set hits across all kernel runs.",
    labels=("strategy",),
)
_KERNEL_TRUNCATIONS = metrics.counter(
    "kernel_truncations_total", "Kernel runs cut short, by cause.", labels=("cause",)
)
_KERNEL_RUN_SECONDS = metrics.histogram(
    "kernel_run_seconds", "Wall time per kernel run.", labels=("strategy",)
)
_KERNEL_STATES_PER_SECOND = metrics.gauge(
    "kernel_states_per_second", "Throughput of the most recent kernel run.",
    labels=("strategy",),
)


@dataclass
class SearchStats:
    """Strategy-and-budget fields shared by every explorer's stats.

    Concrete explorers subclass this with their domain counters
    (``promise_states``, ``restarts``, …); these base fields are what the
    harness, the report schema, and the fuzz policy consume uniformly.
    """

    truncated: bool = False
    #: Whether truncation was caused by the wall-clock deadline (as
    #: opposed to the ``max_states`` budget).
    deadline_hit: bool = False
    elapsed_seconds: float = 0.0
    #: Visited-set hits (exhaustive strategies only).
    dedup_hits: int = 0
    #: Strategy that produced this result (``dfs``/``sample``).
    strategy: str = "dfs"
    #: Random walks completed (``sample`` only).
    samples_run: int = 0
    #: Random-walk steps taken (``sample`` only).
    sample_steps: int = 0
    #: Walks abandoned at the per-walk depth bound (``sample`` only).
    sample_depth_hits: int = 0
    #: Distinct states touched across all walks (``sample`` only).
    unique_sample_states: int = 0
    #: ``unique_sample_states / states visited`` — the new-state rate of
    #: the walks.  Near 1.0 the walks still discover fresh states every
    #: step (the space is far from sampled out); near 0.0 they keep
    #: reconverging (the sample is saturating).  ``None`` for exhaustive
    #: runs, whose coverage is total by construction.
    coverage_estimate: Optional[float] = None

    @property
    def sampled(self) -> bool:
        """Whether this result is a statistical under-approximation."""
        return self.strategy != "dfs"

    def sampling_suffix(self) -> str:
        """The ``describe()`` tail shared by every explorer's stats."""
        if not self.sampled:
            return ""
        return (
            f" [strategy: {self.strategy}, walks: {self.samples_run}, "
            f"coverage est.: {self.coverage_estimate}]"
        )


@dataclass
class KernelStats:
    """Raw counters one :meth:`SearchKernel.run` call accumulates."""

    states: int = 0
    transitions: int = 0
    dedup_hits: int = 0
    truncated: bool = False
    deadline_hit: bool = False
    samples_run: int = 0
    sample_steps: int = 0
    sample_depth_hits: int = 0
    unique_sample_states: int = 0
    coverage_estimate: Optional[float] = None

    def merge_into(self, stats: SearchStats, strategy: str) -> None:
        """Fold this run's counters into an explorer's stats object."""
        stats.truncated = stats.truncated or self.truncated
        stats.deadline_hit = stats.deadline_hit or self.deadline_hit
        stats.dedup_hits += self.dedup_hits
        stats.strategy = strategy
        stats.samples_run += self.samples_run
        stats.sample_steps += self.sample_steps
        stats.sample_depth_hits += self.sample_depth_hits
        stats.unique_sample_states += self.unique_sample_states
        if self.coverage_estimate is not None:
            stats.coverage_estimate = self.coverage_estimate


class SearchKernel:
    """One state-space search: frontier + visited set + budgets + stats.

    Parameters
    ----------
    successors:
        The transition-enumeration callback.  Called once per visited
        state; returns (an iterable of) successor states.  Terminal
        handling is the callback's job: a final state returns no
        successors and records its outcome as a side effect.
    config:
        The explorer's :class:`~repro.explore.config.BaseSearchConfig`.
        ``strategy`` picks the loop, ``max_states`` and
        ``deadline_seconds`` are the budgets (the deadline is measured
        with ``time.monotonic``, so NTP steps on the wall clock never
        fire it early or late), and ``samples``, ``sample_depth`` and
        ``seed`` shape the random walks.
    key_fn:
        Visited-set identity of a state; ``None`` makes a state its own
        key.  No explorer passes one: tests do, to search reference
        states or to turn pruning off.  A ``sample`` run uses the key
        only to count distinct states.
    """

    def __init__(
        self,
        successors: Callable[[object], Iterable],
        config: BaseSearchConfig,
        *,
        key_fn: Optional[Callable[[object], object]] = None,
    ) -> None:
        self.successors = successors
        self.config = config
        self.key_fn = key_fn
        self.stats = KernelStats()
        self._deadline: Optional[float] = None

    def deadline_exceeded(self) -> bool:
        if self._deadline is None:
            return False
        if time.monotonic() >= self._deadline:
            self.stats.deadline_hit = True
            return True
        return False

    def run(self, roots: Sequence) -> KernelStats:
        """Search from ``roots`` until exhaustion or a budget trips."""
        start = time.perf_counter()
        if self.config.deadline_seconds is not None:
            self._deadline = time.monotonic() + self.config.deadline_seconds
        if self.config.strategy == "dfs":
            self._depth_first(roots)
        else:
            self._random_walks(roots)
        self._record_metrics(time.perf_counter() - start)
        return self.stats

    def _depth_first(self, roots: Sequence) -> None:
        """``dfs``: exhaustive enumeration, LIFO frontier, visited-set pruning."""
        stats = self.stats
        max_states = self.config.max_states
        key_fn = self.key_fn
        frontier: list = []
        visited: set = set()
        for root in roots:
            visited.add(root if key_fn is None else key_fn(root))
            frontier.append(root)
        while frontier:
            state = frontier.pop()
            stats.states += 1
            if stats.states > max_states or self.deadline_exceeded():
                stats.truncated = True
                break
            for successor in self.successors(state):
                stats.transitions += 1
                key = successor if key_fn is None else key_fn(successor)
                if key in visited:
                    stats.dedup_hits += 1
                    continue
                visited.add(key)
                frontier.append(successor)

    def _random_walks(self, roots: Sequence) -> None:
        """``sample``: ``samples`` seeded walks of at most ``sample_depth`` steps.

        In the spirit of litmus-style statistical running (vs. herd-style
        enumeration).  No pruning — a walk follows one random successor
        per step until it bottoms out or hits its depth bound — so the
        outcome set is a sound *under-approximation*: every outcome found
        is genuinely reachable, but absence proves nothing.
        """
        stats = self.stats
        config = self.config
        key_fn = self.key_fn
        rng = random.Random(config.seed)
        #: Unique states touched across all walks — not used for pruning
        #: (a walk must be free to re-traverse), only for the coverage
        #: estimate: a low new-state rate means the walks keep
        #: reconverging and the sample is saturating.
        seen: set = set()
        roots = list(roots)
        exhausted = False
        for _walk in range(config.samples):
            if exhausted:
                break
            state = roots[0] if len(roots) == 1 else rng.choice(roots)
            completed = False
            for _step in range(config.sample_depth):
                stats.states += 1
                if stats.states > config.max_states or self.deadline_exceeded():
                    stats.truncated = True
                    exhausted = True
                    break
                seen.add(state if key_fn is None else key_fn(state))
                successors = list(self.successors(state))
                stats.transitions += len(successors)
                if not successors:
                    # Terminal (or deadlocked): the transition callback has
                    # recorded whatever outcome the state carries; restart.
                    completed = True
                    break
                state = rng.choice(successors)
                stats.sample_steps += 1
            else:
                # Depth bound hit mid-walk: the walk is abandoned without
                # reaching a terminal state (and is not counted as run).
                stats.sample_depth_hits += 1
            if completed:
                stats.samples_run += 1
        stats.unique_sample_states = len(seen)
        if stats.states:
            stats.coverage_estimate = round(len(seen) / stats.states, 6)

    def _record_metrics(self, elapsed: float) -> None:
        """Flush this run's counters to the metrics registry (once)."""
        name = self.config.strategy
        _KERNEL_RUNS.inc(strategy=name)
        _KERNEL_STATES.inc(self.stats.states, strategy=name)
        _KERNEL_TRANSITIONS.inc(self.stats.transitions, strategy=name)
        _KERNEL_DEDUP_HITS.inc(self.stats.dedup_hits, strategy=name)
        if self.stats.truncated:
            cause = "deadline" if self.stats.deadline_hit else "max_states"
            _KERNEL_TRUNCATIONS.inc(cause=cause)
        _KERNEL_RUN_SECONDS.observe(elapsed, strategy=name)
        if elapsed > 0:
            _KERNEL_STATES_PER_SECOND.set(self.stats.states / elapsed, strategy=name)

    def finish(self, stats: SearchStats) -> None:
        """Fold the kernel counters into an explorer's stats object."""
        self.stats.merge_into(stats, self.config.strategy)


__all__ = ["KernelStats", "SearchKernel", "SearchStats"]
