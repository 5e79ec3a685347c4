"""Promising-ARM/RISC-V — Python reproduction of the PLDI 2019 system.

The package is organised as:

* :mod:`repro.lang` — the paper's small imperative calculus.
* :mod:`repro.promising` — the Promising operational model, certification,
  and the exhaustive / interactive exploration tools (the paper's primary
  contribution).
* :mod:`repro.axiomatic` — the reference ARMv8/RISC-V axiomatic model the
  operational model is equivalent to.
* :mod:`repro.flat` — a Flat-style abstract-microarchitectural baseline.
* :mod:`repro.isa` — ARMv8 and RISC-V assembly front ends.
* :mod:`repro.litmus` — litmus tests: format, catalogue, and the
  relaxation-cycle generator.
* :mod:`repro.harness` — the parallel sweep harness: batch execution of
  litmus jobs with a worker pool, persistent result cache, and JSON
  sweep reports.
* :mod:`repro.workloads` — the concurrent data structures of the
  evaluation (spinlocks, ticket lock, Treiber stack, Michael-Scott queue,
  Chase-Lev deque, producer/consumer queues).
* :mod:`repro.tools` — the command-line interface.
"""

__version__ = "1.0.0"

from .lang import Arch

__all__ = ["Arch", "__version__"]
