#!/usr/bin/env python
"""Guard the tracked sweep artifact against silent regressions.

Re-runs the battery recorded in a baseline report (``BENCH_sweep.json``
by default), then compares the fresh results job-by-job:

* **Semantics** — every job's projected outcome-set digest must equal the
  baseline's (schema v2 reports carry ``outcome_digest`` per job; older
  baselines fall back to the outcome *count*).  Any difference means a
  model change altered an outcome set without the artifact being
  regenerated on purpose — the exact failure mode the PR 3 dedup layer
  must never introduce.

* **Performance** — per litmus family (the test-name prefix before the
  first ``+``), the summed fresh compute time must not exceed
  ``--slowdown`` (default 2.0) times the baseline's, ignoring families
  under the noise floor.

* **Service artifact** — the committed ``BENCH_service.json`` must parse
  against the service-bench schema, record a warm-vs-cold speedup of at
  least ``--min-service-speedup`` (default 10), and a coalescing burst
  that actually coalesced.  This validates the committed artifact's
  shape and recorded claims; regenerating the numbers is
  ``scripts/bench_service.py``'s job.

* **Sampling artifact** — the committed ``BENCH_sample.json`` must parse
  against the sample-scaling schema and record the PR 5 capability
  claim: on the blown-up workload, every exhaustive row truncated while
  every ``sample`` row completed with a non-empty outcome set, zero
  safety-condition violations, and less wall-clock than its truncated
  exhaustive counterpart.  Regeneration is
  ``benchmarks/test_sample_scaling.py``'s job (via ``bench.sh``).

* **Observability artifact** — the committed ``BENCH_obs.json`` must
  parse against the obs-overhead schema and record an
  instrumented-vs-disabled overhead ratio within
  ``--max-obs-overhead`` (default 1.05, i.e. ≤5%) with its own claim
  flag set.  Regeneration is ``scripts/bench_obs.py``'s job (via
  ``bench.sh``).

* **Distributed artifact** — the committed ``BENCH_distrib.json`` must
  parse against the distrib-scaling schema and record the PR 8 claims:
  every scaling row's batch digest bit-identical to the pooled
  reference, every job computed exactly once per row, the warm rerun
  served entirely through the shared cache (nothing recomputed), and
  coordinator overhead within the recorded bound.  The ≥``--min-distrib-
  speedup`` 4-worker scaling claim is enforced only when the recording
  machine's measured ``effective_parallelism`` reached 2 — a single-core
  runner records ``hardware_limited`` instead, because no queue can
  outrun the silicon.  Regeneration is ``scripts/bench_distrib.py``'s
  job (via ``bench.sh``).

Exit status: 0 clean, 1 regression found, 2 usage/baseline problems.

Run it locally after touching an explorer::

    PYTHONPATH=src python scripts/check_bench_regression.py

CI runs it as an advisory job (shared runners make wall-clock noisy); the
semantic check is the part that should never fire.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness import run_sweep  # noqa: E402
from repro.harness.report import job_entry  # noqa: E402
from repro.lang.kinds import Arch  # noqa: E402
from repro.litmus import generate_battery  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="tracked sweep report to compare against",
    )
    parser.add_argument(
        "--slowdown",
        type=float,
        default=2.0,
        help="per-family slowdown factor that counts as a regression",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=0.05,
        help="ignore families whose baseline compute time is below this (s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the fresh sweep (1 = deterministic serial)",
    )
    parser.add_argument(
        "--perf-advisory",
        action="store_true",
        help=(
            "report per-family slowdowns without failing on them "
            "(outcome-digest drift still exits 1); for noisy CI runners"
        ),
    )
    parser.add_argument(
        "--report",
        default=None,
        help="optionally write the fresh sweep report to this path",
    )
    parser.add_argument(
        "--service-baseline",
        default=str(REPO_ROOT / "BENCH_service.json"),
        help="tracked service-bench report to schema-validate",
    )
    parser.add_argument(
        "--min-service-speedup",
        type=float,
        default=10.0,
        help="lowest acceptable recorded warm-vs-cold service speedup",
    )
    parser.add_argument(
        "--skip-service",
        action="store_true",
        help="skip BENCH_service.json validation entirely",
    )
    parser.add_argument(
        "--sample-baseline",
        default=str(REPO_ROOT / "BENCH_sample.json"),
        help="tracked sample-scaling report to schema-validate",
    )
    parser.add_argument(
        "--skip-sample",
        action="store_true",
        help="skip BENCH_sample.json validation entirely",
    )
    parser.add_argument(
        "--obs-baseline",
        default=str(REPO_ROOT / "BENCH_obs.json"),
        help="tracked observability-overhead report to schema-validate",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=1.05,
        help="highest acceptable recorded instrumented/baseline ratio",
    )
    parser.add_argument(
        "--skip-obs",
        action="store_true",
        help="skip BENCH_obs.json validation entirely",
    )
    parser.add_argument(
        "--distrib-baseline",
        default=str(REPO_ROOT / "BENCH_distrib.json"),
        help="tracked distributed-scaling report to schema-validate",
    )
    parser.add_argument(
        "--min-distrib-speedup",
        type=float,
        default=1.7,
        help="lowest acceptable recorded 4-worker distributed speedup "
        "(enforced only when the artifact was recorded on multi-core hardware)",
    )
    parser.add_argument(
        "--skip-distrib",
        action="store_true",
        help="skip BENCH_distrib.json validation entirely",
    )
    return parser.parse_args(argv)


#: ``BENCH_service.json`` required layout: top-level key -> required
#: sub-keys (None = scalar leaf).  Kept in lockstep with
#: ``scripts/bench_service.py``.
SERVICE_SCHEMA = {
    "schema_version": None,
    "name": None,
    "generated_unix": None,
    "tests": None,
    "workers": None,
    "cold_cli": ("runs", "per_test_seconds", "mean_seconds"),
    "warm_service": (
        "requests",
        "mean_seconds",
        "p50_seconds",
        "p95_seconds",
        "throughput_rps",
    ),
    "speedup_cold_vs_warm_p50": None,
    "coalescing": ("concurrent_requests", "coalesced", "computed"),
    "keep_alive": (
        "connections",
        "requests",
        "requests_per_connection",
        "close_p50_seconds",
        "prior_close_p50_seconds",
        "p50_no_worse_than_close",
    ),
    "service_stats": None,
}


def validate_service_report(path: Path, min_speedup: float) -> list[str]:
    """Schema + recorded-claims validation of ``BENCH_service.json``."""
    failures: list[str] = []
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"service baseline {path} unreadable: {exc}"]
    if not isinstance(report, dict):
        return [f"service baseline {path} is not a JSON object"]
    for key, subkeys in SERVICE_SCHEMA.items():
        if key not in report:
            failures.append(f"service baseline missing key {key!r}")
            continue
        if subkeys is None:
            continue
        block = report[key]
        if not isinstance(block, dict):
            failures.append(f"service baseline {key!r} must be an object")
            continue
        for subkey in subkeys:
            if subkey not in block:
                failures.append(f"service baseline missing {key}.{subkey}")
    if failures:
        return failures
    speedup = report["speedup_cold_vs_warm_p50"]
    if not isinstance(speedup, (int, float)) or speedup < min_speedup:
        failures.append(
            f"service warm speedup {speedup!r} below the {min_speedup:.0f}x bar"
        )
    coalesced = report["coalescing"]["coalesced"]
    if not isinstance(coalesced, int) or coalesced < 1:
        failures.append(
            f"service coalescing burst recorded no coalesced requests ({coalesced!r})"
        )
    for field in ("p50_seconds", "p95_seconds", "throughput_rps"):
        value = report["warm_service"][field]
        if not isinstance(value, (int, float)) or value <= 0:
            failures.append(f"service warm_service.{field} must be a positive number")
    keep_alive = report["keep_alive"]
    connections = keep_alive["connections"]
    requests = keep_alive["requests"]
    if not isinstance(connections, int) or connections < 1:
        failures.append(f"service keep_alive.connections must be >= 1 ({connections!r})")
    elif not isinstance(requests, int) or requests <= connections:
        # The whole point of keep-alive: strictly more requests than
        # connections, i.e. connections actually got reused.
        failures.append(
            f"service keep-alive never reused a connection "
            f"({requests!r} requests over {connections!r} connections)"
        )
    close_p50 = keep_alive["close_p50_seconds"]
    if not isinstance(close_p50, (int, float)) or close_p50 <= 0:
        failures.append(
            f"service keep_alive.close_p50_seconds must be a positive number "
            f"({close_p50!r})"
        )
    # Re-derive the claim from the recorded laps instead of trusting the
    # flag: keep-alive must not be slower than the same-run
    # ``Connection: close`` control lap.
    elif (
        keep_alive["p50_no_worse_than_close"] is not True
        or report["warm_service"]["p50_seconds"] > close_p50
    ):
        failures.append(
            "service keep-alive warm p50 regressed past the same-run "
            "Connection-close control lap "
            f"({report['warm_service']['p50_seconds']!r}s vs {close_p50!r}s)"
        )
    return failures


#: ``BENCH_sample.json`` required layout, in lockstep with
#: ``benchmarks/test_sample_scaling.py``.
SAMPLE_SCHEMA = {
    "schema_version": None,
    "name": None,
    "generated_unix": None,
    "workload": ("name", "n_threads"),
    "sample_depth": None,
    "seed": None,
    "exhaustive": None,
    "sample_runs": None,
    "claims": ("sample_completes_where_exhaustive_truncates",),
}

SAMPLE_EXHAUSTIVE_ROW_KEYS = ("model", "max_states", "truncated", "n_outcomes", "elapsed_seconds")
SAMPLE_RUN_ROW_KEYS = (
    "model",
    "samples",
    "seed",
    "samples_run",
    "n_outcomes",
    "coverage_estimate",
    "condition_violations",
    "elapsed_seconds",
)


def validate_sample_report(path: Path) -> list[str]:
    """Schema + recorded-claims validation of ``BENCH_sample.json``."""
    failures: list[str] = []
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"sample baseline {path} unreadable: {exc}"]
    if not isinstance(report, dict):
        return [f"sample baseline {path} is not a JSON object"]
    for key, subkeys in SAMPLE_SCHEMA.items():
        if key not in report:
            failures.append(f"sample baseline missing key {key!r}")
            continue
        if subkeys is None:
            continue
        block = report[key]
        if not isinstance(block, dict):
            failures.append(f"sample baseline {key!r} must be an object")
            continue
        for subkey in subkeys:
            if subkey not in block:
                failures.append(f"sample baseline missing {key}.{subkey}")
    if failures:
        return failures
    exhaustive_rows = report["exhaustive"]
    sample_rows = report["sample_runs"]
    if not exhaustive_rows or not sample_rows:
        return ["sample baseline must record exhaustive and sample rows"]
    for row in exhaustive_rows:
        missing = [k for k in SAMPLE_EXHAUSTIVE_ROW_KEYS if k not in row]
        if missing:
            failures.append(f"sample baseline exhaustive row missing {missing}")
            continue
        if not row["truncated"]:
            failures.append(
                f"exhaustive {row['model']} did not truncate — the artifact no "
                "longer demonstrates a state space that needs sampling"
            )
    exhaustive_by_model = {r["model"]: r for r in exhaustive_rows if "model" in r}
    for row in sample_rows:
        missing = [k for k in SAMPLE_RUN_ROW_KEYS if k not in row]
        if missing:
            failures.append(f"sample baseline sample row missing {missing}")
            continue
        label = f"sample {row['model']} n={row['samples']}"
        if row["n_outcomes"] < 1:
            failures.append(f"{label} recorded an empty outcome set")
        if row["condition_violations"] != 0:
            failures.append(
                f"{label} recorded {row['condition_violations']} safety-condition "
                "violation(s) — a real model bug, not a bench artifact problem"
            )
        exhaustive = exhaustive_by_model.get(row["model"])
        if exhaustive and row["elapsed_seconds"] >= exhaustive["elapsed_seconds"]:
            failures.append(f"{label} was not faster than its truncated exhaustive run")
    claims = report["claims"]["sample_completes_where_exhaustive_truncates"]
    if not (isinstance(claims, dict) and claims and all(claims.values())):
        failures.append(f"sample baseline claim block must be all-true, got {claims!r}")
    return failures


#: ``BENCH_obs.json`` required layout, in lockstep with
#: ``scripts/bench_obs.py``.
OBS_SCHEMA = {
    "schema_version": None,
    "name": None,
    "generated_unix": None,
    "tests": None,
    "models": None,
    "repeats": None,
    "baseline_seconds": None,
    "instrumented_seconds": None,
    "overhead_ratio": None,
    "bound": None,
    "runs": ("baseline", "instrumented"),
    "claims": ("overhead_within_bound",),
}


def validate_obs_report(path: Path, max_overhead: float) -> list[str]:
    """Schema + recorded-claims validation of ``BENCH_obs.json``."""
    failures: list[str] = []
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"obs baseline {path} unreadable: {exc}"]
    if not isinstance(report, dict):
        return [f"obs baseline {path} is not a JSON object"]
    for key, subkeys in OBS_SCHEMA.items():
        if key not in report:
            failures.append(f"obs baseline missing key {key!r}")
            continue
        if subkeys is None:
            continue
        block = report[key]
        if not isinstance(block, dict):
            failures.append(f"obs baseline {key!r} must be an object")
            continue
        for subkey in subkeys:
            if subkey not in block:
                failures.append(f"obs baseline missing {key}.{subkey}")
    if failures:
        return failures
    ratio = report["overhead_ratio"]
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        failures.append(f"obs overhead_ratio must be a positive number, got {ratio!r}")
    elif ratio > max_overhead:
        failures.append(
            f"observability overhead {100 * (ratio - 1):.1f}% exceeds the "
            f"{100 * (max_overhead - 1):.0f}% bound — instrumentation got too "
            "expensive (or the artifact needs regenerating on a quiet machine)"
        )
    if report["claims"]["overhead_within_bound"] is not True:
        failures.append("obs baseline claim overhead_within_bound must be true")
    for field in ("baseline_seconds", "instrumented_seconds"):
        value = report[field]
        if not isinstance(value, (int, float)) or value <= 0:
            failures.append(f"obs {field} must be a positive number")
    for leg in ("baseline", "instrumented"):
        times = report["runs"][leg]
        if not isinstance(times, list) or len(times) != report["repeats"]:
            failures.append(f"obs runs.{leg} must record one time per repeat")
    return failures


#: ``BENCH_distrib.json`` required layout, in lockstep with
#: ``scripts/bench_distrib.py``.
DISTRIB_SCHEMA = {
    "schema_version": None,
    "name": None,
    "generated_unix": None,
    "tests": None,
    "models": None,
    "n_jobs": None,
    "min_speedup": None,
    "overhead_bound": None,
    "effective_parallelism": None,
    "hardware_limited": None,
    "pooled": ("wall_seconds", "digest"),
    "rows": None,
    "warm": ("workers", "wall_seconds", "computed_jobs", "digest_match"),
    "coordinator_overhead_ratio": None,
    "speedup_at_4_workers": None,
    "claims": (
        "digests_identical",
        "exactly_once",
        "dedup_through_cache",
        "coordinator_overhead_within_bound",
        "scaling_demonstrated",
    ),
}

DISTRIB_ROW_KEYS = (
    "workers",
    "wall_seconds",
    "computed_jobs",
    "lease_reclaims",
    "digest",
    "digest_match",
    "speedup_vs_1",
)


def validate_distrib_report(path: Path, min_speedup: float) -> list[str]:
    """Schema + recorded-claims validation of ``BENCH_distrib.json``."""
    failures: list[str] = []
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"distrib baseline {path} unreadable: {exc}"]
    if not isinstance(report, dict):
        return [f"distrib baseline {path} is not a JSON object"]
    for key, subkeys in DISTRIB_SCHEMA.items():
        if key not in report:
            failures.append(f"distrib baseline missing key {key!r}")
            continue
        if subkeys is None:
            continue
        block = report[key]
        if not isinstance(block, dict):
            failures.append(f"distrib baseline {key!r} must be an object")
            continue
        for subkey in subkeys:
            if subkey not in block:
                failures.append(f"distrib baseline missing {key}.{subkey}")
    if failures:
        return failures
    rows = report["rows"]
    if not isinstance(rows, list) or not rows:
        return ["distrib baseline must record at least one scaling row"]
    pooled_digest = report["pooled"]["digest"]
    n_jobs = report["n_jobs"]
    for row in rows:
        missing = [k for k in DISTRIB_ROW_KEYS if k not in row]
        if missing:
            failures.append(f"distrib baseline row missing {missing}")
            continue
        label = f"distrib {row['workers']}-worker row"
        # Semantics are non-negotiable on every row: same digests as the
        # pooled reference, every job computed exactly once.
        if row["digest"] != pooled_digest or not row["digest_match"]:
            failures.append(
                f"{label}: batch digest {row['digest']} != pooled {pooled_digest} — "
                "the distributed path changed an outcome set"
            )
        if row["computed_jobs"] != n_jobs:
            failures.append(
                f"{label}: computed {row['computed_jobs']} of {n_jobs} jobs — "
                "a job was lost or computed twice"
            )
    warm = report["warm"]
    if warm["computed_jobs"] != 0:
        failures.append(
            f"distrib warm rerun recomputed {warm['computed_jobs']} job(s) — "
            "dedup-through-cache broke"
        )
    if not warm["digest_match"]:
        failures.append("distrib warm rerun digest diverged from the pooled reference")
    overhead = report["coordinator_overhead_ratio"]
    bound = report["overhead_bound"]
    if not isinstance(overhead, (int, float)) or overhead <= 0:
        failures.append(f"distrib coordinator_overhead_ratio must be positive, got {overhead!r}")
    elif overhead > bound:
        failures.append(
            f"distrib coordinator overhead {overhead}x exceeds the recorded {bound}x bound"
        )
    hardware_limited = report["hardware_limited"]
    speedup = report["speedup_at_4_workers"]
    if hardware_limited:
        # Recorded on a machine without real parallelism (effective
        # parallelism < 2): the scaling claim is unprovable there and the
        # artifact must say so rather than fake a number.
        if report["effective_parallelism"] >= 2.0:
            failures.append(
                "distrib baseline claims hardware_limited but measured effective "
                f"parallelism {report['effective_parallelism']}"
            )
    else:
        if not isinstance(speedup, (int, float)) or speedup < min_speedup:
            failures.append(
                f"distrib 4-worker speedup {speedup!r} below the {min_speedup}x bar "
                "on hardware that can parallelise"
            )
        if report["claims"]["scaling_demonstrated"] is not True:
            failures.append(
                "distrib baseline claim scaling_demonstrated must be true on "
                "multi-core hardware"
            )
    for claim in (
        "digests_identical",
        "exactly_once",
        "dedup_through_cache",
        "coordinator_overhead_within_bound",
    ):
        if report["claims"][claim] is not True:
            failures.append(f"distrib baseline claim {claim} must be true")
    return failures


def family(name: str) -> str:
    return name.split("+")[0]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"baseline report not found: {baseline_path}")
        return 2
    baseline = json.loads(baseline_path.read_text())
    base_jobs = {
        (j["name"], j["model"], j["arch"]): j
        for j in baseline.get("jobs", [])
        if j.get("status") == "ok"
    }
    if not base_jobs:
        print(f"baseline report {baseline_path} has no ok jobs to compare")
        return 2

    extra = baseline.get("extra", {})
    n_tests = extra.get("n_tests") or len({k[0] for k in base_jobs})
    models = baseline.get("models") or ["promising", "axiomatic"]
    arch_name = (extra.get("arch") or "ARM").upper()
    arch = Arch.RISCV if arch_name.startswith("RISC") else Arch.ARM

    print(f"baseline : {baseline_path} ({len(base_jobs)} ok jobs)")
    print(f"fresh    : {n_tests} tests x {'+'.join(models)} on {arch.value}")
    tests = generate_battery(max_tests=n_tests)
    sweep = run_sweep(
        tests,
        tuple(models),
        arch,
        workers=args.workers,
        report_path=args.report,
        name="bench-regression-check",
    )
    fresh = {
        (e["name"], e["model"], e["arch"]): e
        for e in (job_entry(r) for r in sweep.results)
        if e["status"] == "ok"
    }

    failures: list[str] = []

    # -- service artifact --------------------------------------------------
    if not args.skip_service:
        service_path = Path(args.service_baseline)
        if service_path.exists():
            service_failures = validate_service_report(
                service_path, args.min_service_speedup
            )
            failures.extend(service_failures)
            print(
                f"service  : {service_path} "
                f"({'OK' if not service_failures else f'{len(service_failures)} problem(s)'})"
            )
        else:
            # The artifact is committed; its absence is itself a
            # regression (--skip-service is the explicit opt-out).
            failures.append(f"service baseline not found: {service_path}")
            print(f"service  : {service_path} MISSING")

    # -- sampling artifact -------------------------------------------------
    if not args.skip_sample:
        sample_path = Path(args.sample_baseline)
        if sample_path.exists():
            sample_failures = validate_sample_report(sample_path)
            failures.extend(sample_failures)
            print(
                f"sample   : {sample_path} "
                f"({'OK' if not sample_failures else f'{len(sample_failures)} problem(s)'})"
            )
        else:
            failures.append(f"sample baseline not found: {sample_path}")
            print(f"sample   : {sample_path} MISSING")

    # -- observability artifact --------------------------------------------
    if not args.skip_obs:
        obs_path = Path(args.obs_baseline)
        if obs_path.exists():
            obs_failures = validate_obs_report(obs_path, args.max_obs_overhead)
            failures.extend(obs_failures)
            print(
                f"obs      : {obs_path} "
                f"({'OK' if not obs_failures else f'{len(obs_failures)} problem(s)'})"
            )
        else:
            failures.append(f"obs baseline not found: {obs_path}")
            print(f"obs      : {obs_path} MISSING")

    # -- distributed artifact -----------------------------------------------
    if not args.skip_distrib:
        distrib_path = Path(args.distrib_baseline)
        if distrib_path.exists():
            distrib_failures = validate_distrib_report(distrib_path, args.min_distrib_speedup)
            failures.extend(distrib_failures)
            print(
                f"distrib  : {distrib_path} "
                f"({'OK' if not distrib_failures else f'{len(distrib_failures)} problem(s)'})"
            )
        else:
            failures.append(f"distrib baseline not found: {distrib_path}")
            print(f"distrib  : {distrib_path} MISSING")

    # -- semantic comparison ----------------------------------------------
    compared = 0
    for key, base_entry in sorted(base_jobs.items()):
        fresh_entry = fresh.get(key)
        if fresh_entry is None:
            failures.append(f"missing from fresh sweep: {key}")
            continue
        compared += 1
        base_digest = base_entry.get("outcome_digest")
        if base_digest is not None:
            if fresh_entry["outcome_digest"] != base_digest:
                failures.append(
                    f"outcome-set digest changed: {key} "
                    f"{base_digest} -> {fresh_entry['outcome_digest']}"
                )
        elif fresh_entry["n_outcomes"] != base_entry.get("n_outcomes"):
            failures.append(
                f"outcome count changed: {key} "
                f"{base_entry.get('n_outcomes')} -> {fresh_entry['n_outcomes']}"
            )
    differences = sum("digest" in f or "count" in f for f in failures)
    print(f"semantic : {compared} jobs compared, {differences} differences")

    # -- per-family timing ------------------------------------------------
    base_time: dict[str, float] = {}
    fresh_time: dict[str, float] = {}
    for (name, _model, _arch), entry in base_jobs.items():
        base_time[family(name)] = base_time.get(family(name), 0.0) + entry["elapsed_seconds"]
    for (name, _model, _arch), entry in fresh.items():
        fresh_time[family(name)] = fresh_time.get(family(name), 0.0) + entry["elapsed_seconds"]
    print(f"{'family':12s} {'baseline':>9s} {'fresh':>9s} {'ratio':>7s}")
    for fam in sorted(base_time):
        base_s = base_time[fam]
        fresh_s = fresh_time.get(fam, 0.0)
        ratio = fresh_s / base_s if base_s else float("inf")
        marker = ""
        if base_s >= args.noise_floor and fresh_s > args.slowdown * base_s:
            slowdown = f"family {fam} slowed {ratio:.2f}x ({base_s:.3f}s -> {fresh_s:.3f}s)"
            if args.perf_advisory:
                marker = f"  SLOWDOWN (> {args.slowdown:.1f}x, advisory)"
            else:
                marker = f"  REGRESSION (> {args.slowdown:.1f}x)"
                failures.append(slowdown)
        print(f"{fam:12s} {base_s:8.3f}s {fresh_s:8.3f}s {ratio:6.2f}x{marker}")

    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno regressions against the tracked baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
