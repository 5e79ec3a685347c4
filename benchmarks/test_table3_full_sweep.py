"""Experiment E2 (continued) — Table 3: the full Promising run-time sweep.

Table 3 of the paper (the appendix version of Table 2) sweeps each workload
family over growing configurations and reports the Promising tool's run
time, showing how the cost grows with the number of operations/unrollings.
This benchmark reproduces the sweep shape on scaled-down configurations:
within each family, larger configurations must cost at least as many
explored states as smaller ones.
"""

from __future__ import annotations

import pytest

from repro.harness import Job, run_jobs
from repro.lang.kinds import Arch
from repro.promising import DEFAULT_FUEL, ExploreConfig
from repro.workloads import (
    chase_lev,
    ms_queue,
    spinlock_asm,
    spinlock_cxx,
    spinlock_rust,
    spmc_queue,
    spsc_queue,
    ticket_lock,
    treiber_stack,
)

pytestmark = pytest.mark.bench

#: (family, config label, builder) — two points per family.
SWEEP = [
    ("SLA", "SLA-1", lambda: spinlock_asm(2, 1)),
    ("SLA", "SLA-2", lambda: spinlock_asm(2, 2)),
    ("SLC", "SLC-1", lambda: spinlock_cxx(2, 1)),
    ("SLC", "SLC-2", lambda: spinlock_cxx(2, 2)),
    ("SLR", "SLR-1", lambda: spinlock_rust(2, 1)),
    ("TL", "TL-1", lambda: ticket_lock(2, 1)),
    ("PCS", "PCS-1-1", lambda: spsc_queue(1, 1)),
    ("PCS", "PCS-2-2", lambda: spsc_queue(2, 2)),
    ("PCM", "PCM-1-1-1", lambda: spmc_queue(1, (1, 1))),
    ("STC", "STC-p-o", lambda: treiber_stack(("p", "o"))),
    ("STC", "STC-pp-o", lambda: treiber_stack(("pp", "o"))),
    ("STR", "STR-p-o", lambda: treiber_stack(("p", "o"), name="STR")),
    ("DQ", "DQ-p-1", lambda: chase_lev("p", (1,))),
    ("DQ", "DQ-pp-1", lambda: chase_lev("pp", (1,))),
    ("QU", "QU-e-d", lambda: ms_queue(("e", "d"))),
    ("QU", "QU-ee-d", lambda: ms_queue(("ee", "d"))),
]

#: Certification fuel of the rows whose sequential graphs outgrow the
#: default (4,000 nodes), set above each row's measured need: QU-ee-d's
#: largest graph has 6,375 nodes.  Every other row runs on the default.
CERT_FUEL = {"QU-ee-d": 10_000}

_results: dict[str, list[tuple[str, float, int]]] = {}


@pytest.mark.parametrize("family,label,builder", SWEEP, ids=[s[1] for s in SWEEP])
def test_table3_row(benchmark, assert_complete, family, label, builder):
    workload = builder()
    job = Job.for_program(
        workload.program,
        "promising",
        Arch.ARM,
        explore_config=ExploreConfig(loop_bound=2, cert_fuel=CERT_FUEL.get(label, DEFAULT_FUEL)),
        name=label,
    )
    result = benchmark.pedantic(lambda: run_jobs([job])[0], rounds=1, iterations=1)
    # A truncated row's outcome set is an under-approximation: it fails.
    assert_complete(result, label)
    assert workload.check(result.outcomes), label
    _results.setdefault(family, []).append(
        (label, result.elapsed_seconds, result.stats["promise_states"])
    )


def test_table3_summary(table_printer):
    rows = []
    for family, entries in _results.items():
        for label, seconds, states in entries:
            rows.append([family, label, f"{seconds:.2f}s", states])
        # Larger configurations within a family explore at least as much.
        if len(entries) == 2:
            assert entries[1][2] >= entries[0][2], family
    table_printer(
        "Table 3 (reproduction, scaled): Promising run-time sweep",
        ["family", "configuration", "time", "promise-mode states"],
        rows,
    )
    assert rows
