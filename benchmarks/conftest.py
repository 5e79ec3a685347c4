"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table (or inline result list) of the
paper's evaluation section, printing rows in a paper-like format in
addition to the pytest-benchmark timings.  Because the substrate here is a
pure-Python model (not the authors' OCaml tool on a desktop machine), the
workload configurations are scaled down; EXPERIMENTS.md records the
scaling factors and the measured numbers next to the paper's.
"""

from __future__ import annotations

import pytest


def print_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    """Print a small aligned table (visible with ``pytest -s`` and in logs)."""
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print()
    print(f"== {title} ==")
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))


@pytest.fixture
def table_printer():
    return print_table


def truncation_budget(result) -> str:
    """The budget a truncated job hit, named: deadline, cert fuel or states."""
    stats = result.stats
    if stats.get("deadline_hit"):
        return "deadline (deadline_seconds)"
    if stats.get("cert_fuel_hits"):
        return (
            f"cert fuel (cert_fuel): {stats['cert_fuel_hits']} certification(s) ran out, "
            f"the largest graph had {stats['max_cert_nodes']} nodes"
        )
    return "states (max_states)"


@pytest.fixture
def assert_complete():
    """Fail a job that errored or was truncated, naming the budget it hit."""

    def check(result, label: str) -> None:
        assert result.ok, f"{label}: {result.status} {result.error}"
        assert not result.truncated, f"{label}: truncated by its {truncation_budget(result)} budget"

    return check
