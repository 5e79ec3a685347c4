"""Shared configuration base of every state-space explorer.

Historically each explorer grew its own config dataclass and the common
fields (architecture, loop bound, state budget, dedup knob) drifted into
triplicates.  :class:`BaseSearchConfig` is the single home for everything
the :class:`~repro.explore.kernel.SearchKernel` consumes; the concrete
explorer configs (:class:`~repro.promising.exhaustive.ExploreConfig`,
:class:`~repro.flat.explorer.FlatConfig`) extend it with model-specific
fields only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..lang.kinds import Arch

#: Strategy applied when a config does not name one.
DEFAULT_STRATEGY = "dfs"


@dataclass
class BaseSearchConfig:
    """Fields every kernel-driven explorer shares."""

    #: Architecture variant (ARM or RISC-V).
    arch: Arch = Arch.ARM
    #: Loop unrolling bound applied when the program contains loops.
    loop_bound: int = 2
    #: Cap on kernel-visited states (safety valve; exploration is reported
    #: as truncated when hit).  Concrete configs override the default.
    max_states: int = 1_000_000
    #: Wall-clock budget for one exploration, in seconds (``None`` =
    #: unbounded).  Measured with ``time.monotonic`` so NTP adjustments
    #: can never fire it early or late; hitting it marks the run truncated.
    deadline_seconds: Optional[float] = None
    #: Deduplicate structurally identical states (visited sets over
    #: hash-consed state keys).  Disabling is for ablation benchmarks
    #: only; the outcome set of an exhaustive run is identical either way.
    dedup: bool = True
    #: Frontier discipline: ``"dfs"`` (default, the historical behaviour),
    #: ``"bfs"``, or ``"sample"`` — seeded bounded random walks with
    #: restart.  Exhaustive strategies produce identical outcome sets;
    #: ``sample`` produces a sound under-approximation.
    strategy: str = DEFAULT_STRATEGY
    #: Number of random walks a ``sample`` run performs.
    samples: int = 256
    #: Step bound of one random walk before it restarts.
    sample_depth: int = 4096
    #: PRNG seed of a ``sample`` run (same seed ⇒ same outcome set).
    seed: int = 0

    def for_arch(self, arch: Arch):
        # ``dataclasses.replace`` rather than a field-by-field copy, so a
        # config field added later is carried over instead of silently
        # reset to its default when the harness re-targets an arch.
        return dataclasses.replace(self, arch=arch)

    @property
    def exhaustive(self) -> bool:
        """Whether this configuration enumerates the full state space."""
        from .strategy import is_exhaustive

        return is_exhaustive(self.strategy)


__all__ = ["BaseSearchConfig", "DEFAULT_STRATEGY"]
