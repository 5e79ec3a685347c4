"""Shared configuration base of every state-space explorer.

Historically each explorer grew its own config dataclass and the common
fields (architecture, loop bound, state budget, strategy) drifted into
triplicates.  :class:`BaseSearchConfig` is the single home for everything
the :class:`~repro.explore.kernel.SearchKernel` consumes; the concrete
explorer configs (:class:`~repro.promising.exhaustive.ExploreConfig`,
:class:`~repro.flat.explorer.FlatConfig`) extend it with model-specific
fields only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.kinds import Arch

#: Strategy applied when a config does not name one.
DEFAULT_STRATEGY = "dfs"
#: Strategy names accepted by configs, the CLI, and the service.
STRATEGIES = ("dfs", "sample")


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
    #: Frontier discipline: ``"dfs"`` (default, exhaustive) or
    #: ``"sample"`` — seeded bounded random walks with restart, a sound
    #: under-approximation of the outcome set.
    strategy: str = DEFAULT_STRATEGY
    #: Number of random walks a ``sample`` run performs.
    samples: int = 256
    #: Step bound of one random walk before it restarts.
    sample_depth: int = 4096
    #: PRNG seed of a ``sample`` run (same seed ⇒ same outcome set).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown search strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.strategy == "sample":
            if self.samples < 1:
                raise ValueError("samples must be at least 1")
            if self.sample_depth < 1:
                raise ValueError("sample depth must be at least 1")

    @property
    def exhaustive(self) -> bool:
        """Whether this configuration enumerates the full state space."""
        return self.strategy == "dfs"


__all__ = ["BaseSearchConfig", "DEFAULT_STRATEGY", "STRATEGIES"]
