"""Pluggable search strategies for the :class:`~repro.explore.kernel.SearchKernel`.

A strategy owns the *drive loop*: how the frontier is ordered, whether a
visited set prunes re-expansion, and when the search stops.  The kernel
supplies everything else (the transition callback, budgets, stats), so
the two concrete strategies stay tiny:

* :class:`DepthFirst` — LIFO frontier, visited-set pruning.  This is the
  historical behaviour of every explorer in the repo, bit-identical by
  construction (same push order, same pop position, same pre-insertion
  dedup check, same budget accounting).
* :class:`RandomWalks` — the ``sample`` strategy: N seeded bounded random
  walks with restart, in the spirit of litmus-style statistical running
  (vs. herd-style enumeration).  No pruning — a walk follows one random
  successor per step until it bottoms out or hits its depth bound — so
  the outcome set is a sound *under-approximation*: every outcome found
  is genuinely reachable, but absence proves nothing.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .kernel import SearchKernel


class Strategy:
    """Base class; subclasses define ``name``/``exhaustive`` and ``search``."""

    name: str = "?"
    #: Whether the strategy visits every reachable state (budget allowing).
    exhaustive: bool = True

    def search(self, kernel: "SearchKernel", roots: Sequence) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class DepthFirst(Strategy):
    """``dfs``: exhaustive enumeration with a LIFO frontier."""

    name = "dfs"

    def search(self, kernel: "SearchKernel", roots: Sequence) -> None:
        stats = kernel.stats
        frontier: list = []
        visited = kernel.visited
        key_fn = kernel.key_fn
        for root in roots:
            visited.add(key_fn(root))
            frontier.append(root)
        while frontier:
            state = frontier.pop()
            stats.states += 1
            if stats.states > kernel.max_states or kernel.deadline_exceeded():
                stats.truncated = True
                break
            for successor in kernel.successors(state):
                stats.transitions += 1
                key = key_fn(successor)
                if key in visited:
                    stats.dedup_hits += 1
                    continue
                visited.add(key)
                frontier.append(successor)


class RandomWalks(Strategy):
    """``sample``: N bounded random walks with restart, seeded."""

    name = "sample"
    exhaustive = False

    def __init__(self, samples: int = 256, depth: int = 4096, seed: int = 0) -> None:
        if samples < 1:
            raise ValueError("samples must be at least 1")
        if depth < 1:
            raise ValueError("sample depth must be at least 1")
        self.samples = samples
        self.depth = depth
        self.seed = seed

    def describe(self) -> str:
        return f"sample(n={self.samples}, depth={self.depth}, seed={self.seed})"

    def search(self, kernel: "SearchKernel", roots: Sequence) -> None:
        stats = kernel.stats
        rng = random.Random(self.seed)
        #: Unique states touched across all walks — not used for pruning
        #: (a walk must be free to re-traverse), only for the coverage
        #: estimate: a low new-state rate means the walks keep
        #: reconverging and the sample is saturating.
        seen: set = set()
        roots = list(roots)
        exhausted = False
        for _walk in range(self.samples):
            if exhausted:
                break
            state = roots[0] if len(roots) == 1 else rng.choice(roots)
            completed = False
            for _step in range(self.depth):
                stats.states += 1
                if stats.states > kernel.max_states or kernel.deadline_exceeded():
                    stats.truncated = True
                    exhausted = True
                    break
                seen.add(kernel.key_fn(state))
                successors = list(kernel.successors(state))
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


#: Registry of strategy names accepted by configs, the CLI, and the service.
STRATEGIES = ("dfs", "sample")


def is_exhaustive(name: str) -> bool:
    """Whether ``name`` is an exhaustive (full-enumeration) strategy."""
    return name == "dfs"


def make_strategy(
    name: str, *, samples: int = 256, sample_depth: int = 4096, seed: int = 0
) -> Strategy:
    """Instantiate a strategy by name (the config-facing constructor)."""
    if name == "dfs":
        return DepthFirst()
    if name == "sample":
        return RandomWalks(samples=samples, depth=sample_depth, seed=seed)
    raise ValueError(f"unknown search strategy {name!r}; expected one of {STRATEGIES}")


def strategy_for(config) -> Strategy:
    """The strategy a :class:`~repro.explore.config.BaseSearchConfig` names."""
    return make_strategy(
        config.strategy,
        samples=config.samples,
        sample_depth=config.sample_depth,
        seed=config.seed,
    )


__all__ = [
    "STRATEGIES",
    "Strategy",
    "DepthFirst",
    "RandomWalks",
    "is_exhaustive",
    "make_strategy",
    "strategy_for",
]
