"""Experiment E2 — Table 2: Promising explorer vs the Flat-style baseline.

The paper's Table 2 compares exhaustive-exploration run times of the
Promising tool against Flat on the data-structure workloads, showing
Promising is one to four orders of magnitude faster (Flat frequently times
out).  Here the same comparison runs on scaled-down configurations (the
substrate is a pure-Python model); the *shape* to reproduce is

* Promising finishes quickly on every configuration, and
* the Flat-style baseline explores vastly more states and is slower on
  every configuration (or exhausts its state budget, the analogue of the
  paper's "ooT" entries).
"""

from __future__ import annotations

import time

import pytest

from repro.flat import FlatConfig
from repro.harness import Job, run_jobs
from repro.lang.kinds import Arch
from repro.promising import ExploreConfig
from repro.workloads import (
    ms_queue,
    spinlock_asm,
    spinlock_cxx,
    spsc_queue,
    treiber_stack,
)

pytestmark = pytest.mark.bench

#: Scaled-down Table 2 rows: (paper row, workload builder).
CONFIGS = [
    ("SLA-1 (paper: SLA-7)", lambda: spinlock_asm(2, 1)),
    ("SLC-1 (paper: SLC-3)", lambda: spinlock_cxx(2, 1)),
    ("PCS-1-1 (paper: PCS-3-3)", lambda: spsc_queue(1, 1)),
    ("STC-p-o (paper: STC-100-010-010)", lambda: treiber_stack(("p", "o"))),
    ("QU-e-d (paper: QU-100-010-000)", lambda: ms_queue(("e", "d"))),
]

#: State budget for the baseline — the analogue of the paper's 4 h timeout.
FLAT_STATE_BUDGET = 60_000

_rows: list[list[object]] = []


def _run_promising(workload):
    job = Job.for_program(
        workload.program, "promising", Arch.ARM, explore_config=ExploreConfig(loop_bound=2)
    )
    return run_jobs([job])[0]


def _run_flat(workload):
    job = Job.for_program(
        workload.program,
        "flat",
        Arch.ARM,
        flat_config=FlatConfig(loop_bound=2, max_states=FLAT_STATE_BUDGET),
    )
    return run_jobs([job])[0]


@pytest.mark.parametrize("label,builder", CONFIGS, ids=[c[0].split(" ")[0] for c in CONFIGS])
def test_table2_row(benchmark, assert_complete, label, builder):
    workload = builder()
    promising = benchmark.pedantic(lambda: _run_promising(workload), rounds=1, iterations=1)

    start = time.perf_counter()
    flat = _run_flat(workload)
    flat_time = time.perf_counter() - start

    # Promising must finish untruncated; Flat may exhaust its state
    # budget, which the table declares as "ooT".
    assert_complete(promising, label)
    assert flat.ok, label
    flat_cell = f"{flat_time:.2f}s" + (" (ooT)" if flat.stats["truncated"] else "")
    _rows.append(
        [
            label,
            f"{promising.elapsed_seconds:.2f}s",
            flat_cell,
            promising.stats["promise_states"],
            flat.stats["states"],
        ]
    )

    # Safety of the workload is re-checked while we are here.
    assert workload.check(promising.outcomes), label
    # The headline shape: the Flat-style baseline needs far more states.
    assert flat.stats["states"] > 5 * promising.stats["promise_states"], label
    # And it must not be faster than Promising on any configuration.
    assert flat.stats["truncated"] or flat_time >= promising.elapsed_seconds, label


def test_table2_summary(table_printer):
    table_printer(
        "Table 2 (reproduction, scaled): Promising vs Flat run times",
        ["configuration", "Promising", "Flat-style", "prom. states", "flat states"],
        _rows,
    )
    assert len(_rows) == len(CONFIGS)
