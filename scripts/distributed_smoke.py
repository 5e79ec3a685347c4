#!/usr/bin/env python
"""CI distributed smoke: a real worker fleet, a real crash, identical digests.

What it does, end to end:

1. Starts three ``promising-arm work`` subprocesses against a SQLite
   queue in a temporary directory, sharing one result-cache directory —
   exactly the deployment shape from the README fleet quickstart.
2. Runs the bounded differential fuzz battery through the coordinator,
   which starts no worker of its own: the fleet drains the queue.
3. Mid-run, SIGSTOPs one worker, confirms it is holding a lease, then
   SIGKILLs it — a real crash with a job in flight.  The coordinator
   must reclaim the expired lease and another worker must finish the
   job, exactly once.
4. Runs the same corpus through the ordinary in-process pool and diffs
   every job's outcome digest between the two reports.  The diff must be
   empty: distribution may never change semantics.
5. Repeats the fleet run against a network-reachable queue: an HTTP
   server mounts the work ledger at ``/v1/queue/<op>`` and two workers
   join with ``--backend-url http://host:port`` and **no shared
   filesystem at all** (no queue file, no cache directory).  The report
   must again be digest-identical to the pooled run.

Exit status: 0 on success, 1 on any assertion failure.
"""

from __future__ import annotations

import json
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.distrib import DistribConfig  # noqa: E402
from repro.harness import run_fuzz  # noqa: E402
from repro.litmus import generate_cycle_battery  # noqa: E402

N_WORKERS = 3
MAX_PER_FAMILY = 4
LEASE_SECONDS = 2.0
VICTIM = "w0"


def spawn_worker(
    backend_url: str, worker_id: str, cache: Path | None = None
) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro.tools",
        "work",
        "--backend-url",
        backend_url,
        "--worker-id",
        worker_id,
        "--lease-seconds",
        str(LEASE_SECONDS),
        "--poll-seconds",
        "0.05",
    ]
    if cache is not None:
        command += ["--cache-dir", str(cache)]
    return subprocess.Popen(
        command,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def holds_lease(queue: Path, worker_id: str) -> bool:
    try:
        conn = sqlite3.connect(queue, timeout=5.0)
        try:
            row = conn.execute(
                "SELECT COUNT(*) FROM items WHERE status = 'leased' AND worker = ?",
                (worker_id,),
            ).fetchone()
            return bool(row[0])
        finally:
            conn.close()
    except sqlite3.OperationalError:
        return False


def kill_victim_mid_lease(queue: Path, victim: subprocess.Popen, deadline: float) -> bool:
    """SIGSTOP-check-SIGKILL: freeze the victim, verify it holds a lease
    (a stopped process cannot complete one under our feet), then kill it.
    Returns True if it died holding a lease."""
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            return False
        victim.send_signal(signal.SIGSTOP)
        if holds_lease(queue, VICTIM):
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            return True
        victim.send_signal(signal.SIGCONT)
        time.sleep(0.05)
    return False


def digests(report: dict) -> dict:
    return {
        (j["name"], j["model"], j["arch"]): j["outcome_digest"] for j in report["jobs"]
    }


def diff_digests(left_report: dict, right_report: dict, failures: list[str], label: str) -> None:
    left, right = digests(left_report), digests(right_report)
    if left.keys() != right.keys():
        failures.append(f"{label}: job sets differ: {left.keys() ^ right.keys()}")
    diverged = [k for k in left.keys() & right.keys() if left[k] != right[k]]
    if diverged:
        failures.append(
            f"{label}: outcome digests diverged on {len(diverged)} job(s): {diverged[:5]}"
        )
    print(f"{label}: {len(diverged)} difference(s) over {len(left)} jobs")


def http_fleet_leg(tests, pooled_report: dict, tmp: Path) -> list[str]:
    """Fleet over an HTTP queue: two workers, no shared filesystem."""
    import queue as queue_module

    from repro.distrib import DistribConfig
    from repro.harness import run_fuzz
    from repro.service import ServiceClient, ServiceConfig
    from repro.service.http import run_server

    ready: "queue_module.Queue[tuple[str, int]]" = queue_module.Queue()
    server = threading.Thread(
        target=run_server,
        args=(ServiceConfig(workers=1), "127.0.0.1", 0),
        kwargs={"on_ready": lambda host, port: ready.put((host, port))},
        daemon=True,
    )
    server.start()
    host, port = ready.get(timeout=60)
    url = f"http://{host}:{port}"
    print(f"http leg: queue mounted at {url}/v1/queue, 2 workers, no shared filesystem")
    workers = [spawn_worker(url, f"h{i}") for i in range(2)]
    try:
        distributed = run_fuzz(
            tests,
            models=("promising", "axiomatic"),
            report_path=tmp / "fuzz-http.json",
            name="http-smoke",
            distrib=DistribConfig(backend_url=url, stall_timeout=120.0),
        )
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in workers:
            if worker.poll() is None:
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.kill()
        ServiceClient(host, port).shutdown()
        server.join(timeout=30)

    failures: list[str] = []
    info = distributed.report["extra"]["distrib"]
    print(
        f"http fleet: {distributed.report['n_jobs']} jobs, "
        f"{info['jobs_computed']} computed + {info['jobs_cache_served']} cache-served, "
        f"workers {[w['worker_id'] for w in info['workers']]}"
    )
    if not distributed.report["ok"]:
        failures.append(f"http fuzz run not ok: {distributed.report['status_counts']}")
    if info["jobs_computed"] + info["jobs_cache_served"] == 0:
        failures.append("http fleet served no jobs — the workers never joined")
    diff_digests(distributed.report, pooled_report, failures, "http digest diff vs pooled run")
    return failures


def main() -> int:
    tests = generate_cycle_battery(max_per_family=MAX_PER_FAMILY)
    print(f"corpus: {len(tests)} tests, {N_WORKERS} fleet workers, lease {LEASE_SECONDS}s")

    with tempfile.TemporaryDirectory(prefix="distrib-smoke-") as tmp:
        queue = Path(tmp) / "queue.db"
        cache = Path(tmp) / "cache"
        workers = [spawn_worker(str(queue), f"w{i}", cache) for i in range(N_WORKERS)]
        killed = {"mid_lease": False}
        killer = threading.Thread(
            target=lambda: killed.__setitem__(
                "mid_lease", kill_victim_mid_lease(queue, workers[0], time.monotonic() + 60)
            ),
            daemon=True,
        )
        killer.start()
        try:
            distributed = run_fuzz(
                tests,
                models=("promising", "axiomatic"),
                report_path=Path(tmp) / "fuzz-distributed.json",
                name="distrib-smoke",
                distrib=DistribConfig(backend_url=str(queue), stall_timeout=120.0),
            )
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.terminate()
            for worker in workers:
                if worker.poll() is None:
                    try:
                        worker.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        worker.kill()
        killer.join(timeout=5)

        pooled = run_fuzz(
            tests,
            models=("promising", "axiomatic"),
            report_path=Path(tmp) / "fuzz-pooled.json",
            name="pooled-smoke",
            workers=2,
        )

        http_failures = http_fleet_leg(tests, pooled.report, Path(tmp))

    failures: list[str] = []
    info = distributed.report["extra"]["distrib"]
    print(
        f"distributed: {distributed.report['n_jobs']} jobs, "
        f"{info['jobs_computed']} computed + {info['jobs_cache_served']} cache-served, "
        f"{info['lease_reclaims']} lease reclaim(s), "
        f"workers {[w['worker_id'] for w in info['workers']]}"
    )

    if not killed["mid_lease"]:
        failures.append("never caught worker w0 holding a lease — kill leg did not run")
    if info["lease_reclaims"] < 1:
        failures.append("coordinator recorded no lease reclamations after the worker kill")
    if not distributed.report["ok"]:
        failures.append(f"distributed fuzz run not ok: {distributed.report['status_counts']}")
    n_mismatches = len(distributed.report["mismatches"]) + len(pooled.report["mismatches"])
    if n_mismatches:
        failures.append(
            f"model mismatches: distributed={len(distributed.report['mismatches'])} "
            f"pooled={len(pooled.report['mismatches'])}"
        )
    # Exactly-once: every job was served by exactly one completion —
    # computed plus cache-served covers the enqueued set with no repeats.
    served = info["jobs_computed"] + info["jobs_cache_served"] + info["local_cache_hits"]
    expected = distributed.report["n_jobs"] - info["in_batch_duplicates"]
    if served != expected:
        failures.append(f"served {served} jobs, expected exactly {expected}")
    # ...and the fleet's per-worker completion counts tile those
    # completions with no overlap (the victim's pre-crash finishes
    # included — a reclaimed lease never double-counts).
    fleet_done = sum(w["jobs_done"] for w in info["workers"])
    if fleet_done != info["jobs_computed"] + info["jobs_cache_served"]:
        failures.append(
            f"fleet jobs_done {fleet_done} != {info['jobs_computed']} computed + "
            f"{info['jobs_cache_served']} cache-served ({info['workers']})"
        )

    # -- digest diff: distribution must not change a single outcome set --
    diff_digests(distributed.report, pooled.report, failures, "digest diff vs pooled run")
    failures.extend(http_failures)

    if failures:
        print(f"\n{len(failures)} failure(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(json.dumps({"ok": True, "lease_reclaims": info["lease_reclaims"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
