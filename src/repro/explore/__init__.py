"""Unified exploration kernel with pluggable search strategies.

One :class:`SearchKernel` owns what every explorer used to hand-roll —
frontier, interned visited sets, state/wall-clock budgets, truncation
accounting, and a shared stats vocabulary — parameterised by a
transition-enumeration callback and a :class:`Strategy`:

* ``dfs`` — exhaustive enumeration (the historical, bit-identical
  default);
* ``sample`` — seeded bounded random walks with restart, producing a
  sound under-approximation of the outcome set on state spaces that
  exhaustive search cannot touch.

The promising explorers (:mod:`repro.promising.exhaustive`) and the
Flat explorer (:mod:`repro.flat.explorer`) are built on this kernel;
their configs extend :class:`BaseSearchConfig`.  State representation is
delegated to the execution backend (:mod:`repro.backend`); the kernel
only ever sees opaque packed states, each its own visited-set key.
"""

from .config import BaseSearchConfig, DEFAULT_STRATEGY
from .kernel import KernelStats, SearchKernel, SearchStats
from .strategy import (
    STRATEGIES,
    DepthFirst,
    RandomWalks,
    Strategy,
    is_exhaustive,
    make_strategy,
    strategy_for,
)

__all__ = [
    "BaseSearchConfig",
    "DEFAULT_STRATEGY",
    "KernelStats",
    "SearchKernel",
    "SearchStats",
    "STRATEGIES",
    "Strategy",
    "DepthFirst",
    "RandomWalks",
    "is_exhaustive",
    "make_strategy",
    "strategy_for",
]
