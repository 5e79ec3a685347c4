"""Experiment E4 — §7 litmus agreement between the two model implementations.

The paper validates the executable Promising model against the axiomatic
models on ~6,500 ARM and ~7,000 RISC-V litmus tests, finding experimental
agreement.  This benchmark runs the reproduction's generated battery plus
the hand-written catalogue through both implementations, asserts full
agreement of the projected outcome sets (through the one battery
runner, :func:`repro.harness.run_fuzz`, as ``promising-arm sweep`` does),
and reports the throughput (tests per second) for each model.
"""

from __future__ import annotations

import time

import pytest

from repro.harness import run_fuzz
from repro.lang.kinds import Arch
from repro.litmus import all_tests, generate_cycle_battery, run_axiomatic, run_promising

pytestmark = pytest.mark.bench

#: Size of the generated-battery slice used here (the full battery has
#: several hundred entries; the unit tests cover another slice).
BATTERY_SIZE = 60


def _battery():
    return generate_cycle_battery(max_tests=BATTERY_SIZE) + [
        t for t in all_tests() if t.program.n_threads <= 3
    ]


def _agreement(tests, arch):
    return run_fuzz(tests, ("promising", "axiomatic"), (arch,), name="litmus-agreement")


def test_agreement_rate_arm(benchmark, table_printer):
    tests = _battery()
    run = benchmark.pedantic(lambda: _agreement(tests, Arch.ARM), rounds=1, iterations=1)
    table_printer(
        "§7 litmus agreement (ARM)",
        ["tests", "jobs", "counterexamples", "time"],
        [[len(tests), run.report["n_jobs"], len(run.counterexamples),
          f"{run.wall_seconds:.1f}s"]],
    )
    assert run.ok, run.describe()


def test_agreement_rate_riscv(benchmark):
    tests = generate_cycle_battery(max_tests=BATTERY_SIZE // 2)
    run = benchmark.pedantic(lambda: _agreement(tests, Arch.RISCV), rounds=1, iterations=1)
    assert run.ok, run.describe()


def test_model_throughput(benchmark, table_printer):
    """Tests per second for each implementation on the catalogue."""
    tests = [t for t in all_tests() if t.program.n_threads <= 3]

    def run_all():
        timings = {}
        start = time.perf_counter()
        for test in tests:
            run_promising(test, Arch.ARM)
        timings["promising"] = time.perf_counter() - start
        start = time.perf_counter()
        for test in tests:
            run_axiomatic(test, Arch.ARM)
        timings["axiomatic"] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [model, f"{seconds:.2f}s", f"{len(tests) / seconds:.1f} tests/s"]
        for model, seconds in timings.items()
    ]
    table_printer("litmus throughput (catalogue, ARM)", ["model", "time", "throughput"], rows)
    assert all(seconds > 0 for seconds in timings.values())
