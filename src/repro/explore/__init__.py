"""Unified exploration kernel.

One :class:`SearchKernel` owns what every explorer used to hand-roll —
frontier, visited set, state/wall-clock budgets, truncation accounting,
and a shared stats vocabulary — parameterised by a
transition-enumeration callback and the explorer's config, whose
``strategy`` picks one of the kernel's two loops:

* ``dfs`` — exhaustive depth-first enumeration (the default);
* ``sample`` — seeded bounded random walks with restart, producing a
  sound under-approximation of the outcome set on state spaces that
  exhaustive search cannot touch.

The promising explorers (:mod:`repro.promising.exhaustive`) and the
Flat explorer (:mod:`repro.flat.explorer`) are built on this kernel;
their configs extend :class:`BaseSearchConfig`.  State representation is
delegated to the execution backend (:mod:`repro.backend`); the kernel
only ever sees opaque packed states, each its own visited-set key.
"""

from .config import DEFAULT_STRATEGY, STRATEGIES, BaseSearchConfig
from .kernel import KernelStats, SearchKernel, SearchStats

__all__ = [
    "BaseSearchConfig",
    "DEFAULT_STRATEGY",
    "KernelStats",
    "SearchKernel",
    "SearchStats",
    "STRATEGIES",
]
