"""Harness benchmark — sweep throughput, cache reuse, report artifacts.

Not a paper table: this battery tracks the execution subsystem added for
the §7-scale sweeps.  It measures (a) a cold promising+axiomatic sweep of
the cycle-generated battery through the scheduler, (b) the warm rerun hitting
the persistent result cache (which must be at least 5× faster), and
(c) that the JSON report artifact records timings, verdicts and the cache
hit rate.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.harness import ResultCache, run_fuzz
from repro.lang.kinds import Arch
from repro.litmus import generate_cycle_battery

pytestmark = pytest.mark.bench

BATTERY_SIZE = 40


def sweep(tests, **kwargs):
    """What ``promising-arm sweep`` runs: promising vs axiomatic on ARM."""
    return run_fuzz(tests, ("promising", "axiomatic"), (Arch.ARM,), name="litmus-sweep", **kwargs)


def test_cold_vs_warm_sweep(benchmark, tmp_path, table_printer):
    tests = generate_cycle_battery(max_tests=BATTERY_SIZE)
    cache = ResultCache(tmp_path / "cache")
    report_path = tmp_path / "sweep.json"

    cold = benchmark.pedantic(
        lambda: sweep(tests, cache=cache, report_path=report_path),
        rounds=1, iterations=1,
    )
    start = time.perf_counter()
    warm = sweep(tests, cache=cache, report_path=report_path)
    warm_wall = time.perf_counter() - start

    table_printer(
        "sweep harness: cold vs warm cache",
        ["run", "wall", "cache hit rate", "mismatches"],
        [
            ["cold", f"{cold.wall_seconds:.2f}s",
             f"{cold.report['cache']['hit_rate'] * 100:.0f}%", len(cold.counterexamples)],
            ["warm", f"{warm_wall:.2f}s",
             f"{warm.report['cache']['hit_rate'] * 100:.0f}%", len(warm.counterexamples)],
        ],
    )
    assert cold.ok and warm.ok
    assert cold.report["cache"]["hit_rate"] == 0.0
    assert warm.report["cache"]["hit_rate"] == 1.0
    assert warm_wall * 5 <= cold.wall_seconds, (warm_wall, cold.wall_seconds)

    artifact = json.loads(report_path.read_text())
    from repro.harness import REPORT_SCHEMA_VERSION

    assert artifact["schema_version"] == REPORT_SCHEMA_VERSION
    assert artifact["n_jobs"] == 2 * len(tests)
    assert all(job["elapsed_seconds"] >= 0 for job in artifact["jobs"])


def test_parallel_sweep_matches_serial(benchmark):
    tests = generate_cycle_battery(max_tests=BATTERY_SIZE // 2)
    serial = sweep(tests, workers=1)
    parallel = benchmark.pedantic(
        lambda: sweep(tests, workers=4),
        rounds=1, iterations=1,
    )
    assert serial.ok and parallel.ok
    for a, b in zip(serial.results, parallel.results):
        assert a.name == b.name and a.model == b.model
        assert a.verdict == b.verdict
        assert set(a.outcomes) == set(b.outcomes)
