"""Self-tests of the benchmark: tiny runs, reference checking, tracing.

    python3 -m pytest perfbench/tests -q

They run each workload at a tiny size against the real program, so they
need the checkout's ``src`` (the repository's pytest settings put it on
the path).
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import cli_cold  # noqa: E402
import fuzz_smoke  # noqa: E402
import serve_mixed  # noqa: E402
from common import load_refs  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

SERVE_SEQUENCE = ["MP|arm|promising", "MP|arm|promising", "SB|riscv|flat", "MP|arm|promising"]


@pytest.fixture(scope="module")
def refs():
    return load_refs()


@pytest.fixture(scope="module")
def mp_tests():
    return fuzz_smoke.corpus(seed=7, families=["MP"])


def _corrupt(table: dict, key: str) -> dict:
    bad = copy.deepcopy(table)
    if isinstance(bad[key], dict):
        field = "digest" if "digest" in bad[key] else "listing"
        bad[key][field] = "0" * 16
    else:
        bad[key] = "0" * 16
    return bad


def test_fuzz_tiny_pass_matches_references(refs, mp_tests):
    result = fuzz_smoke.run_pass(mp_tests, refs["fuzz"])
    assert result["attempted"] == 8  # one test x 4 models x 2 archs
    assert result["failed"] == 0 and result["counterexamples"] == 0
    assert result["model_s"]["promising"] > 0


def test_cli_tiny_pass_matches_references(refs):
    result = cli_cold.run_pass([("MP", "arm"), ("SB", "riscv")], refs["cli"])
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert all(seconds > 0 for seconds, _start, _end in result["ops"])


def test_serve_tiny_traced_pass_matches_references(refs):
    result = serve_mixed.run_pass(SERVE_SEQUENCE, refs["catalogue"], "selftest", traced=True)
    assert (result["attempted"], result["failed"]) == (4, 0)
    layers = result["layers"]
    assert layers["service.computed"] == 2 and layers["cache.lru_hits"] == 2
    assert layers["cache.disk_stores"] == 2
    assert layers["http.requests_per_connection"] > 4


def test_corrupted_fuzz_digest_counts_as_failed(refs, mp_tests):
    key = fuzz_smoke.job_key(mp_tests[0].name, "ARM", "promising")
    result = fuzz_smoke.run_pass(mp_tests, _corrupt(refs["fuzz"], key))
    assert result["failed"] == 1


def test_corrupted_serve_digest_counts_as_failed(refs):
    bad = _corrupt(refs["catalogue"], "SB|riscv|flat")
    result = serve_mixed.run_pass(SERVE_SEQUENCE, bad, "selftest-corrupt")
    assert result["failed"] == 1


def test_corrupted_cli_listing_counts_as_failed(refs):
    result = cli_cold.run_pass([("MP", "arm")], _corrupt(refs["cli"], "MP|arm"))
    assert result["failed"] == 1


def test_tracer_restores_every_patched_function(refs, mp_tests):
    with Tracer() as tracer:
        fuzz_smoke.install(tracer)
        live = list(tracer.patched)
        assert live, "no layer function was found to trace"
        for owner, attr, original in live:
            assert vars(owner)[attr] is not original
        fuzz_smoke.run_pass(mp_tests, refs["fuzz"])
    assert not tracer.patched
    for owner, attr, original in live:
        assert vars(owner)[attr] is original, f"{owner}.{attr} left patched"
    assert tracer.calls["promising.certify"] > 0
    assert tracer.calls["promising-naive.certify"] > 0
    assert tracer.counts["kernel.states"] > 0


def test_tracer_skips_missing_targets():
    tracer = Tracer()
    assert not tracer.patch("repro.no_such_module:f", "x")
    assert not tracer.patch("repro.harness.jobs:NoSuchClass.method", "x")
    assert not tracer.patched


def test_speed_factor_is_reference_over_mean_probe():
    sampler = SpeedSampler()
    sampler.times = [float(t) for t in range(10)]
    sampler.probes = [2 * REFERENCE_PROBE_S] * 10
    assert sampler.factor(2.0, 8.0) == pytest.approx(0.5)


def test_run_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
