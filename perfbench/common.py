"""Shared helpers of the end-to-end benchmark: paths, child processes,
statistics and outcome digests.

Everything the benchmark runs is started from here with the checkout's
``src`` on ``PYTHONPATH``, so the program measured is always the one in
the checkout that holds this file, never an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
from pathlib import Path
from typing import Iterable, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space for cache directories and temporary files (git-ignored).
TMP = ROOT / ".perfbench_tmp"
REFS_PATH = BENCH / "refs.json"

#: Every child gets a bounded wall clock; a wedged program fails the run
#: instead of hanging the benchmark.
CHILD_TIMEOUT_S = 120.0


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program source, bad refs)."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}: nothing to benchmark")


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    A fixed hash seed keeps set iteration (and with it exploration
    order and every per-layer count) identical from run to run.
    """
    TMP.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(TMP)
    return env


def run_child(argv: Sequence[str], *, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run one child to completion with captured text output."""
    return subprocess.run(
        list(argv),
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def peak_child_rss_mb() -> float:
    """Largest resident set of any process this one started and reaped.

    Linux reports ``ru_maxrss`` in KiB; descendants that were waited for
    by their own parents (e.g. a server's pool workers) are included.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def percentile(values: Iterable[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated over the samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def outcome_digest(outcomes_json: Sequence[dict]) -> str:
    """Content hash of a projected outcome set in its JSON form.

    The input is the ``outcomes`` list of the program's public result
    serialisation (cache entries, reports and ``/v1/explore`` rows all
    share it); order inside the list does not matter.  It is computed here,
    not with the program's own digest helper, so a change to that helper
    cannot make a wrong output match its reference.
    """
    payload = sorted(json.dumps(outcome, sort_keys=True) for outcome in outcomes_json)
    return hashlib.sha256("\x1e".join(payload).encode()).hexdigest()[:16]


def listing_digest(lines: Iterable[str]) -> str:
    """Content hash of the CLI's ``final states`` listing."""
    payload = "\n".join(sorted(line.strip() for line in lines))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_refs(path: Path = REFS_PATH) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read reference digests {path}: {exc}") from exc
