"""Tests for the distributed exploration layer: queue laws, fleet parity.

The guarantees pinned here: the SQLite ledger obeys the claim/lease/
complete/requeue laws both in process and over HTTP (fencing tokens make
completion exactly-once even against zombie workers), concurrent claimants never
double-serve an item, a crashed worker's lease is reclaimed and its job
completes exactly once, and a distributed batch is bit-identical — per
job, per report digest, and in folded metrics — to the single-pool run
of the same corpus.  The coordinator starts no worker, so every batch
here is served by :func:`fleet`: :func:`run_worker` processes.
"""

import dataclasses
import json
import multiprocessing
import os
import queue as queue_module
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.distrib import (
    DistribConfig,
    HttpWorkBackend,
    SqliteBackend,
    open_backend,
    run_distributed,
    run_worker,
)
from repro.distrib.backend import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_LEASED,
    STATUS_PENDING,
)
from repro.distrib.worker import decode_result, encode_work
from repro.harness import BatchStats, build_fuzz_jobs, differential_mismatches, run_fuzz, run_jobs
from repro.harness.jobs import Job, STATUS_ERROR
from repro.harness.report import build_report, outcome_set_digest
from repro.lang.kinds import Arch
from repro.litmus import generate_cycle_battery, get_test
from repro.litmus.test import Verdict
from repro.obs.metrics import diff_snapshots, get_registry
from repro.service import ServiceClientError
from repro.tools.cli import main


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(params=["sqlite", "http"])
def ledger(request, tmp_path):
    clock = FakeClock()
    if request.param == "sqlite":
        backend = SqliteBackend(tmp_path / "queue.db", clock=clock)
    else:
        # The same laws must hold over the wire: a clock-controlled SQLite
        # ledger mounted on a live server, driven through HttpWorkBackend.
        from repro.service import ServiceClient, ServiceConfig
        from repro.service.http import run_server

        ready: "queue_module.Queue[tuple[str, int]]" = queue_module.Queue()
        thread = threading.Thread(
            target=run_server,
            args=(ServiceConfig(workers=1), "127.0.0.1", 0),
            kwargs={
                "on_ready": lambda host, port: ready.put((host, port)),
                "queue_backend": SqliteBackend(tmp_path / "served.db", clock=clock),
            },
            daemon=True,
        )
        thread.start()
        host, port = ready.get(timeout=30)
        backend = HttpWorkBackend(f"http://{host}:{port}")
        yield backend, clock
        backend.close()
        ServiceClient(host, port).shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server thread ignored shutdown"
        return
    yield backend, clock
    backend.close()


@contextmanager
def fleet(backend_url, workers=2, cache=None):
    """Start ``workers`` :func:`run_worker` processes on ``backend_url``.

    Yields once every worker has registered on the ledger, and terminates
    them on exit.  They must be processes: a worker in the test process
    would count its job metrics twice, once as it runs and again when the
    coordinator folds its delta.  They are spawned, not forked, because
    some tests run a server thread in this process.
    """
    ids = [f"fleet-{index}" for index in range(workers)]
    processes = []
    try:
        for worker_id in ids:
            process = multiprocessing.get_context("spawn").Process(
                target=run_worker,
                args=(backend_url, cache),
                kwargs={"worker_id": worker_id, "poll_seconds": 0.02},
                daemon=True,
            )
            process.start()
            processes.append(process)
        ledger = open_backend(backend_url)
        try:
            deadline = time.monotonic() + 30
            while not set(ids) <= {w.worker_id for w in ledger.workers()}:
                assert time.monotonic() < deadline, "fleet workers never registered"
                time.sleep(0.02)
        finally:
            ledger.close()
        yield processes
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join(timeout=10)


def arm_jobs(tests, models=("promising",)):
    return build_fuzz_jobs(tests, models, (Arch.ARM,))


def corpus_jobs(n_tests=4, models=("promising", "axiomatic")):
    return arm_jobs(generate_cycle_battery(max_tests=n_tests), models)


# ---------------------------------------------------------------------------
# Backend laws (identical in process and over HTTP)
# ---------------------------------------------------------------------------


class TestBackendLaws:
    def test_enqueue_dedups_by_item_id(self, ledger):
        backend, _ = ledger
        assert backend.enqueue("a", b"one")
        assert not backend.enqueue("a", b"two")
        claim = backend.claim("w", 30)
        assert claim.payload == b"one"

    def test_claims_are_fifo_and_exclusive(self, ledger):
        backend, _ = ledger
        for item in ("a", "b", "c"):
            backend.enqueue(item, item.encode())
        assert backend.claim("w1", 30).item_id == "a"
        assert backend.claim("w2", 30).item_id == "b"
        assert backend.claim("w1", 30).item_id == "c"
        assert backend.claim("w2", 30) is None
        assert backend.counts() == {
            STATUS_PENDING: 0,
            STATUS_LEASED: 3,
            STATUS_DONE: 0,
            STATUS_FAILED: 0,
        }

    def test_fencing_token_gates_every_mutation(self, ledger):
        backend, _ = ledger
        backend.enqueue("a", b"x")
        claim = backend.claim("w1", 30)
        assert claim.token == 1
        # Wrong worker or wrong token: extend/complete/fail all refuse.
        assert not backend.extend("a", "w2", claim.token, 30)
        assert not backend.extend("a", "w1", claim.token + 1, 30)
        assert not backend.complete("a", "w2", claim.token, b"r")
        assert not backend.fail("a", "w1", claim.token + 1, "nope")
        assert backend.extend("a", "w1", claim.token, 30)
        assert backend.complete("a", "w1", claim.token, b"r")
        # Exactly-once: the same holder cannot complete twice.
        assert not backend.complete("a", "w1", claim.token, b"r")

    def test_extend_keeps_a_lease_alive(self, ledger):
        backend, clock = ledger
        backend.enqueue("a", b"x")
        claim = backend.claim("w1", lease_seconds=10)
        clock.advance(8)
        assert backend.extend("a", "w1", claim.token, 10)
        clock.advance(8)  # past the original expiry, inside the extension
        assert backend.requeue_expired() == []
        assert backend.complete("a", "w1", claim.token, b"r")

    def test_expired_lease_is_reclaimed_and_zombie_complete_rejected(self, ledger):
        backend, clock = ledger
        backend.enqueue("a", b"x")
        zombie = backend.claim("dead-worker", lease_seconds=5)
        clock.advance(6)
        assert backend.requeue_expired() == ["a"]
        fresh = backend.claim("live-worker", 30)
        assert fresh.token == zombie.token + 1
        assert fresh.attempts == 2
        # The zombie wakes up late: its token is stale, nothing it does lands.
        assert not backend.complete("a", "dead-worker", zombie.token, b"zombie")
        assert not backend.extend("a", "dead-worker", zombie.token, 30)
        assert backend.complete("a", "live-worker", fresh.token, b"real")
        view = backend.collect(["a"])["a"]
        assert view.status == STATUS_DONE
        assert view.result == b"real"
        assert view.attempts == 2

    def test_reclaim_records_the_dead_worker(self, ledger):
        backend, clock = ledger
        backend.enqueue("a", b"x")
        backend.claim("w-gone", lease_seconds=1)
        clock.advance(2)
        backend.requeue_expired()
        backend.claim("w2", 30)
        clock.advance(40)
        backend.requeue_expired()
        view_error = None
        # Not terminal yet, so collect() hides it; drain via claims.
        claim = backend.claim("w3", 30)
        assert claim.attempts == 3
        backend.fail("a", "w3", claim.token, "boom", requeue=False)
        view_error = backend.collect(["a"])["a"]
        assert view_error.status == STATUS_FAILED
        assert view_error.error == "boom"

    def test_max_attempts_turns_reclaim_terminal(self, ledger):
        backend, clock = ledger
        backend.enqueue("a", b"x")
        for attempt in range(1, backend.max_attempts + 1):
            claim = backend.claim(f"w{attempt}", lease_seconds=1)
            assert claim.attempts == attempt
            clock.advance(2)
            assert backend.requeue_expired() == ["a"]
        assert backend.claim("w-final", 30) is None
        view = backend.collect(["a"])["a"]
        assert view.status == STATUS_FAILED
        assert "lease expired" in view.error

    def test_fail_requeues_until_attempts_run_out(self, ledger):
        backend, _ = ledger
        backend.enqueue("a", b"x")
        claim = backend.claim("w1", 30)
        assert backend.fail("a", "w1", claim.token, "transient")
        assert backend.counts()[STATUS_PENDING] == 1
        again = backend.claim("w1", 30)
        assert again.attempts == 2
        assert backend.fail("a", "w1", again.token, "fatal", requeue=False)
        assert backend.collect(["a"])["a"].status == STATUS_FAILED

    def test_collect_returns_only_terminal_items(self, ledger):
        backend, _ = ledger
        for item in ("p", "l", "d"):
            backend.enqueue(item, b"x")
        backend.claim("w", 30)  # leases "p"
        claim = backend.claim("w", 30)  # leases "l"
        backend.complete("l", "w", claim.token, b"r")
        views = backend.collect(["p", "l", "d", "missing"])
        assert set(views) == {"l"}

    def test_lease_must_be_finite_and_positive(self, ledger):
        # NaN or infinity would lease an item forever; zero or less would
        # hand it out already expired.  A refused claim or extend leaves
        # the item's status, token and lease as they were.
        backend, clock = ledger
        bad_leases = (float("nan"), float("inf"), 0, -1)
        # A ValueError in process, the same message in a 400 over HTTP.
        refused = (ValueError, ServiceClientError)
        reason = "lease_seconds must be finite and positive"
        backend.enqueue("a", b"x")
        for lease in bad_leases:
            with pytest.raises(refused, match=reason):
                backend.claim("w1", lease)
        assert backend.counts()[STATUS_PENDING] == 1
        claim = backend.claim("w1", lease_seconds=10)
        assert (claim.token, claim.attempts) == (1, 1)
        for lease in bad_leases:
            with pytest.raises(refused, match=reason):
                backend.extend("a", "w1", claim.token, lease)
        assert backend.counts()[STATUS_LEASED] == 1
        clock.advance(11)  # the original lease, never extended, runs out
        assert backend.requeue_expired() == ["a"]
        assert backend.claim("w2", 30).token == claim.token + 1

    def test_worker_registration_heartbeat_and_throughput(self, ledger):
        backend, clock = ledger
        backend.register_worker("w1", meta={"host": "box"})
        clock.advance(5)
        backend.heartbeat("w1")
        backend.enqueue("a", b"x")
        claim = backend.claim("w1", 30)
        backend.complete("a", "w1", claim.token, b"r")
        (worker,) = backend.workers()
        assert worker.worker_id == "w1"
        assert worker.heartbeat_at == worker.registered_at + 5
        assert worker.jobs_done == 1
        assert worker.meta == {"host": "box"}


class TestConcurrentClaims:
    def test_no_item_served_twice_under_racing_claimants(self, tmp_path):
        backend = SqliteBackend(tmp_path / "queue.db")
        items = [f"item-{i}" for i in range(24)]
        for item in items:
            backend.enqueue(item, item.encode())
        served: list[str] = []
        lock = threading.Lock()

        def claimant(worker_id):
            own = SqliteBackend(tmp_path / "queue.db")
            while True:
                claim = own.claim(worker_id, 30)
                if claim is None:
                    break
                assert own.complete(claim.item_id, worker_id, claim.token, b"r")
                with lock:
                    served.append(claim.item_id)
            own.close()

        threads = [
            threading.Thread(target=claimant, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(served) == sorted(items)  # each exactly once
        views = backend.collect(items)
        assert all(views[item].status == STATUS_DONE for item in items)
        assert all(views[item].attempts == 1 for item in items)
        backend.close()


class TestOpenBackend:
    def test_sqlite_urls_and_bare_paths(self, tmp_path):
        by_url = open_backend(f"sqlite:///{tmp_path}/q.db")
        assert isinstance(by_url, SqliteBackend)
        by_path = open_backend(str(tmp_path / "q2.db"))
        assert isinstance(by_path, SqliteBackend)
        by_url.close()
        by_path.close()

    def test_unknown_scheme_is_rejected(self):
        with pytest.raises(ValueError):
            open_backend("redis://localhost/0")
        with pytest.raises(ValueError):
            open_backend("sqlite://")

    def test_backend_objects_pass_through(self, tmp_path):
        backend = SqliteBackend(tmp_path / "q.db")
        assert open_backend(backend) is backend
        backend.close()

    def test_http_urls_dispatch_without_connecting(self):
        # Nothing listens on this port: the constructor must not connect
        # (workers open backends before the coordinator's server is known
        # to be reachable), only the first op does.
        backend = open_backend("http://127.0.0.1:9")
        assert isinstance(backend, HttpWorkBackend)
        backend.close()
        with pytest.raises(ValueError):
            HttpWorkBackend("http:///nohost")


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------


class TestWorker:
    def test_worker_executes_and_caches(self, tmp_path):
        backend = SqliteBackend(tmp_path / "q.db")
        jobs = arm_jobs([get_test("MP"), get_test("SB")])
        for job in jobs:
            backend.enqueue(job.fingerprint(), encode_work(job))
        stats = run_worker(
            backend,
            tmp_path / "cache",
            worker_id="w1",
            max_jobs=len(jobs),
            poll_seconds=0.01,
        )
        assert stats.computed == len(jobs)
        assert stats.cache_hits == 0
        views = backend.collect([job.fingerprint() for job in jobs])
        for job in jobs:
            view = views[job.fingerprint()]
            assert view.served_from == "computed"
            result = decode_result(view.result)
            assert result.ok
            assert result.fingerprint == job.fingerprint()

        # Re-enqueue the same fingerprints on a fresh queue: the shared
        # cache now serves every one without recomputation.
        warm = SqliteBackend(tmp_path / "warm.db")
        for job in jobs:
            warm.enqueue(job.fingerprint(), encode_work(job))
        stats2 = run_worker(
            warm,
            tmp_path / "cache",
            worker_id="w2",
            max_jobs=len(jobs),
            poll_seconds=0.01,
        )
        assert stats2.computed == 0
        assert stats2.cache_hits == len(jobs)
        assert all(
            v.served_from == "cache"
            for v in warm.collect([j.fingerprint() for j in jobs]).values()
        )
        backend.close()
        warm.close()

    def test_undecodable_payload_fails_and_requeues(self, tmp_path):
        backend = SqliteBackend(tmp_path / "q.db", max_attempts=2)
        backend.enqueue("junk", b"not a pickle")
        stats = run_worker(backend, None, worker_id="w1", max_jobs=2, poll_seconds=0.01)
        assert stats.failures == 2
        view = backend.collect(["junk"])["junk"]
        assert view.status == STATUS_FAILED
        assert "UnpicklingError" in view.error or "Error" in view.error
        backend.close()

    def test_idle_exit_retires_a_drained_worker(self, tmp_path):
        backend = SqliteBackend(tmp_path / "q.db")
        start = time.monotonic()
        stats = run_worker(
            backend, None, worker_id="w1", idle_exit_seconds=0.05, poll_seconds=0.01
        )
        assert stats.claimed == 0
        assert time.monotonic() - start < 10
        backend.close()

    def test_heartbeat_extends_the_running_lease(self, tmp_path):
        # A job that outlives its lease must not be reclaimed from a live
        # worker: the keeper thread extends the lease mid-execution.
        backend = SqliteBackend(tmp_path / "q.db")
        job = Job(test=get_test("IRIW+addrs"), model="promising")
        backend.enqueue(job.fingerprint(), encode_work(job))

        reclaimed: list[str] = []
        done = threading.Event()

        def reaper():
            while not done.wait(0.05):
                reclaimed.extend(backend.requeue_expired())

        thread = threading.Thread(target=reaper)
        thread.start()
        try:
            stats = run_worker(
                backend,
                None,
                worker_id="w1",
                max_jobs=1,
                lease_seconds=0.2,
                poll_seconds=0.01,
            )
        finally:
            done.set()
            thread.join()
        assert stats.computed == 1
        assert stats.lost_leases == 0
        assert reclaimed == []
        backend.close()


# ---------------------------------------------------------------------------
# Coordinator: crash reclamation, parity, teardown
# ---------------------------------------------------------------------------


class TestCrashReclamation:
    def test_dead_claimant_item_is_reclaimed_and_completes_exactly_once(self, tmp_path):
        # A worker that claimed an item and crashed (no heartbeats ever
        # again) is simulated by claiming with a short lease and walking
        # away; the coordinator requeues it and the fleet completes it.
        queue = tmp_path / "queue.db"
        jobs = arm_jobs([get_test("MP"), get_test("SB")])
        pre = SqliteBackend(queue)
        victim = jobs[0]
        pre.enqueue(victim.fingerprint(), encode_work(victim))
        zombie = pre.claim("crashed-worker", lease_seconds=0.3)
        assert zombie is not None

        with fleet(str(queue), 1):
            run = run_distributed(
                jobs, config=DistribConfig(backend_url=str(queue)), cache=tmp_path / "cache"
            )
        assert [r.status for r in run.results] == ["ok", "ok"]
        assert run.info["lease_reclaims"] == 1
        # Exactly once: the reclaimed item shows one real completion on
        # its second attempt, and the zombie's stale token can't land.
        view = pre.collect([victim.fingerprint()])[victim.fingerprint()]
        assert view.status == STATUS_DONE
        assert view.attempts == 2
        assert not pre.complete(
            victim.fingerprint(), "crashed-worker", zombie.token, b"late"
        )
        serial = run_jobs(jobs)
        assert [outcome_set_digest(r.outcomes) for r in run.results] == [
            outcome_set_digest(r.outcomes) for r in serial
        ]
        pre.close()

    def test_killed_worker_process_mid_job_is_recovered(self, tmp_path):
        # Real crash-kill: a separate worker process claims under a short
        # lease with heartbeats disabled, gets SIGKILLed mid-job, and the
        # coordinator reclaims the item for the fleet to complete exactly
        # once.
        queue = tmp_path / "queue.db"
        job = Job(test=get_test("IRIW+addrs"), model="promising")
        backend = SqliteBackend(queue)
        backend.enqueue(job.fingerprint(), encode_work(job))
        script = (
            "import sys\n"
            "from repro.distrib import SqliteBackend\n"
            "backend = SqliteBackend(sys.argv[1])\n"
            "claim = backend.claim('doomed', lease_seconds=0.5)\n"
            "assert claim is not None\n"
            "print('claimed', flush=True)\n"
            "import time; time.sleep(600)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(queue)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "claimed"
            proc.kill()
            proc.wait()
            with fleet(str(queue), 1):
                run = run_distributed([job], config=DistribConfig(backend_url=str(queue)))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert run.results[0].ok
        assert run.info["lease_reclaims"] == 1
        view = backend.collect([job.fingerprint()])[job.fingerprint()]
        assert view.status == STATUS_DONE
        assert view.attempts == 2
        assert view.worker != "doomed"
        backend.close()

    def test_terminally_failed_item_surfaces_as_error_result(self, tmp_path):
        queue = tmp_path / "queue.db"
        jobs = arm_jobs([get_test("MP")])
        # Poison the queue entry so the worker's decode fails; once its
        # attempts run out the item goes terminal and the coordinator
        # reports it as an error result instead of hanging.
        backend = SqliteBackend(queue)
        backend.enqueue(jobs[0].fingerprint(), b"poison")
        with fleet(str(queue), 1):
            run = run_distributed(jobs, config=DistribConfig(backend_url=str(queue)))
        assert run.results[0].status == STATUS_ERROR
        assert run.results[0].error
        assert run.info["jobs_failed"] == 1
        view = backend.collect([jobs[0].fingerprint()])[jobs[0].fingerprint()]
        assert view.status == STATUS_FAILED
        assert view.attempts == backend.max_attempts
        backend.close()


class TestDistributedParity:
    def test_distributed_equals_pooled_over_random_corpus_slice(self, tmp_path):
        import random

        tests = generate_cycle_battery(max_per_family=3)
        tests = random.Random(8).sample(tests, min(6, len(tests)))
        jobs = arm_jobs(tests, ("promising", "axiomatic"))
        pooled = run_jobs(jobs, workers=2, cache=tmp_path / "pool-cache")
        queue = str(tmp_path / "q.db")
        with fleet(queue, 3, cache=tmp_path / "distrib-cache"):
            run = run_distributed(
                jobs, config=DistribConfig(backend_url=queue), cache=tmp_path / "distrib-cache"
            )
        assert [r.status for r in run.results] == [r.status for r in pooled]
        assert [outcome_set_digest(r.outcomes) for r in run.results] == [
            outcome_set_digest(r.outcomes) for r in pooled
        ]
        # The reports agree row-for-row on outcome digests.
        report_a = build_report(pooled, differential_mismatches(jobs, pooled)[0])
        report_b = build_report(run.results, differential_mismatches(jobs, run.results)[0])
        assert [j["outcome_digest"] for j in report_a["jobs"]] == [
            j["outcome_digest"] for j in report_b["jobs"]
        ]
        assert report_a["mismatches"] == report_b["mismatches"] == []

    def test_http_fleet_matches_pooled_with_no_shared_filesystem(self, tmp_path):
        # Worker processes that talk to the queue only over HTTP — no
        # shared cache directory, no shared SQLite file — produce a report
        # digest-identical to the pooled run.
        from repro.service import ServiceClient, ServiceConfig
        from repro.service.http import run_server

        jobs = corpus_jobs(n_tests=3, models=("promising", "axiomatic"))
        pooled = run_jobs(jobs, workers=2, cache=tmp_path / "pool-cache")

        ready: "queue_module.Queue[tuple[str, int]]" = queue_module.Queue()
        thread = threading.Thread(
            target=run_server,
            args=(ServiceConfig(workers=1), "127.0.0.1", 0),
            kwargs={"on_ready": lambda host, port: ready.put((host, port))},
            daemon=True,
        )
        thread.start()
        host, port = ready.get(timeout=30)
        url = f"http://{host}:{port}"
        try:
            with fleet(url, 2):
                run = run_distributed(jobs, config=DistribConfig(backend_url=url))
        finally:
            ServiceClient(host, port).shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive(), "server thread ignored shutdown"
        assert len(run.info["workers"]) == 2
        assert run.info["jobs_computed"] == len(jobs)
        report_a = build_report(pooled, differential_mismatches(jobs, pooled)[0])
        report_b = build_report(run.results, differential_mismatches(jobs, run.results)[0])
        assert [j["outcome_digest"] for j in report_a["jobs"]] == [
            j["outcome_digest"] for j in report_b["jobs"]
        ]
        assert report_a["mismatches"] == report_b["mismatches"] == []

    def test_folded_metrics_match_the_single_process_run(self, tmp_path):
        # The per-job counters a distributed run folds back must equal the
        # increments the same corpus produces in-process.
        jobs = corpus_jobs(n_tests=3, models=("promising",))
        registry = get_registry()

        def executed_delta(before, after):
            delta = diff_snapshots(before, after)
            return {
                key: value
                for key, value in sorted(delta.items())
                if "jobs_executed_total" in str(key)
            }

        before = registry.snapshot()
        run_jobs(jobs)
        serial_delta = executed_delta(before, registry.snapshot())
        assert serial_delta  # the corpus really ran

        queue = str(tmp_path / "q.db")
        with fleet(queue, 2):
            before = registry.snapshot()
            run_distributed(jobs, config=DistribConfig(backend_url=queue))
            distrib_delta = executed_delta(before, registry.snapshot())
        assert distrib_delta == serial_delta

    def test_local_cache_hits_and_in_batch_duplicates_never_hit_the_queue(self, tmp_path):
        jobs = arm_jobs([get_test("MP"), get_test("SB")])
        cache = tmp_path / "cache"
        run_jobs(jobs, cache=cache)  # warm every fingerprint
        duplicated = jobs + [jobs[0]]
        stats = BatchStats()
        queue = str(tmp_path / "q.db")
        with fleet(queue, 1):
            run = run_distributed(
                duplicated, config=DistribConfig(backend_url=queue), cache=cache, stats=stats
            )
        assert run.info["jobs_enqueued"] == 0
        assert run.info["local_cache_hits"] == 3
        assert all(r.cached for r in run.results)
        assert stats.executed == 0

    def test_sweep_and_fuzz_route_through_distrib(self, tmp_path):
        tests = [get_test("MP"), get_test("SB")]
        models, archs = ("promising", "axiomatic"), (Arch.ARM,)
        queue = str(tmp_path / "sweep.db")
        with fleet(queue, 2):
            sweep = run_fuzz(tests, models, archs, distrib=DistribConfig(backend_url=queue))
        assert sweep.ok
        assert sweep.report["extra"]["distrib"]["jobs_computed"] == 4
        baseline = run_fuzz(tests, models, archs)
        assert [j["outcome_digest"] for j in sweep.report["jobs"]] == [
            j["outcome_digest"] for j in baseline.report["jobs"]
        ]

        queue = str(tmp_path / "fuzz.db")
        with fleet(queue, 2):
            fuzz = run_fuzz(
                max_tests=2,
                models=("promising", "axiomatic"),
                distrib=DistribConfig(backend_url=queue),
            )
        assert fuzz.ok
        # The corpus is exclusive-free: each RISC-V job shares its ARM
        # job's fingerprint and is fanned out, never enqueued.
        distinct = {job.fingerprint() for job in fuzz.jobs}
        assert (len(distinct), fuzz.report["n_jobs"]) == (4, 8)
        assert fuzz.report["extra"]["distrib"]["jobs_computed"] == len(distinct)

    def test_ledger_rows_answer_the_job_that_asked(self, tmp_path):
        # A persistent ledger answers a fingerprint it already holds with
        # the row of whichever job enqueued it first; the coordinator must
        # hand it back under the asking job's name, arch and expectation.
        mp = get_test("MP")
        twin = dataclasses.replace(mp, name="MP-twin", expected={Arch.RISCV: Verdict.ALLOWED})
        config = DistribConfig(backend_url=str(tmp_path / "q.db"), stall_timeout=30)
        with fleet(config.backend_url, 1):
            first = run_distributed([Job(test=mp, model="promising")], config=config)
            renamed = run_distributed([Job(test=twin, model="promising")], config=config)
            riscv = run_distributed(
                [Job(test=twin, model="promising", arch=Arch.RISCV)], config=config
            )
        assert first.results[0].name == "MP"
        row = renamed.results[0]
        assert (row.name, row.arch, row.expected) == ("MP-twin", Arch.ARM, None)
        row = riscv.results[0]
        assert (row.name, row.arch, row.expected) == ("MP-twin", Arch.RISCV, Verdict.ALLOWED)
        for run in (renamed, riscv):
            assert run.info["jobs_enqueued"] == 0
            assert run.results[0].fingerprint == first.results[0].fingerprint

    def test_ledger_rows_are_served_not_computed_again(self, tmp_path):
        # A row an earlier batch left on a persistent ledger answers a later
        # batch without running: that batch must neither count it as
        # computed nor fold the row's metrics delta a second time.
        from repro.harness.jobs import _JOBS_EXECUTED

        config = DistribConfig(backend_url=str(tmp_path / "q.db"), stall_timeout=30)
        job = Job(test=get_test("MP"), model="promising")

        def executed():
            return _JOBS_EXECUTED.value(model="promising", status="ok")

        with fleet(config.backend_url, 1):
            before = executed()
            first_stats, second_stats = BatchStats(), BatchStats()
            first = run_distributed([job], config=config, stats=first_stats)
            after_first = executed()
            second = run_distributed([job], config=config, stats=second_stats)
            after_second = executed()
        assert (first.info["jobs_enqueued"], first.info["jobs_computed"]) == (1, 1)
        assert (after_first - before, first_stats.executed) == (1, 1)
        assert (second.info["jobs_enqueued"], second.info["jobs_computed"]) == (0, 0)
        assert second.info["jobs_cache_served"] == 1
        assert (second_stats.executed, second_stats.cache_hits) == (0, 1)
        assert after_second == after_first
        row = second.results[0]
        assert row.cached and row.metrics_delta is None
        assert set(row.outcomes) == set(first.results[0].outcomes)

    def test_cli_distributed_sweep(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        queue = str(tmp_path / "queue.db")
        argv = ["sweep", "--max-tests", "4", "--models", "promising", "--distributed"]
        argv += ["--backend-url", queue, "--report", str(report)]
        with fleet(queue, 2):
            code = main(argv)
        assert code == 0
        data = json.loads(report.read_text())
        assert data["ok"]
        assert len(data["extra"]["distrib"]["workers"]) == 2
        # No local worker ran: the report names no local worker count.
        assert data["extra"]["workers"] is None

    def test_cli_work_drains_a_queue(self, tmp_path, capsys):
        queue = tmp_path / "queue.db"
        backend = SqliteBackend(queue)
        job = Job(test=get_test("MP"), model="promising")
        backend.enqueue(job.fingerprint(), encode_work(job))
        argv = ["work", "--backend-url", str(queue), "--cache-dir", str(tmp_path / "cache")]
        argv += ["--max-jobs", "1", "--worker-id", "cli-worker"]
        code = main(argv)
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-worker" in out and "1 computed" in out
        view = backend.collect([job.fingerprint()])[job.fingerprint()]
        assert view.status == STATUS_DONE
        backend.close()


class TestTeardown:
    def test_no_orphaned_workers_after_a_clean_run(self, tmp_path):
        # A distributed run starts no process: the fleet is external.
        jobs = arm_jobs([get_test("MP")])
        queue = str(tmp_path / "q.db")
        with fleet(queue, 1) as workers:
            run = run_distributed(jobs, config=DistribConfig(backend_url=queue))
            assert set(multiprocessing.active_children()) == set(workers)
        assert run.info["jobs_computed"] == 1
        assert multiprocessing.active_children() == []

    def test_no_local_fleet_needs_a_reachable_backend(self):
        # With no local fleet, a run with no ledger for an external fleet
        # to serve would wait forever: an empty backend_url is refused.
        jobs = arm_jobs([get_test("MP")])
        with pytest.raises(ValueError, match="backend_url"):
            run_distributed(jobs, config=DistribConfig(backend_url=""))
        assert multiprocessing.active_children() == []

    def test_stall_timeout_leaves_unserved_items_pending(self, tmp_path):
        # No worker serves this ledger: the stall guard ends the run, and
        # both items stay pending for a later fleet to serve.
        queue = tmp_path / "q.db"
        jobs = arm_jobs([get_test("MP"), get_test("SB")])
        config = DistribConfig(backend_url=str(queue), stall_timeout=0.2)
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="with 2 item"):
            run_distributed(jobs, config=config)
        assert time.monotonic() - start < 10
        backend = SqliteBackend(queue)
        assert backend.counts()[STATUS_PENDING] == 2
        backend.close()
        with fleet(str(queue), 1):
            run = run_distributed(jobs, config=config)
        assert run.info["jobs_enqueued"] == 0
        assert [r.status for r in run.results] == ["ok", "ok"]


class TestCliLedgerFailures:
    """A ledger that cannot be opened, reached or served ends ``sweep``,
    ``fuzz`` or ``work`` with one error line and exit 1, as a ``serve``
    ledger that cannot be opened does; a ledger URL that no rule accepts
    (for ``serve``, any but SQLite) is refused at parse time (exit 2)."""

    @staticmethod
    def error_line(argv, capsys) -> str:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("promising-arm: error:")]
        return line

    def test_unserved_ledger_stalls(self, tmp_path, capsys):
        queue = str(tmp_path / "q.db")
        argv = ["fuzz", "--max-tests", "1", "--models", "promising", "--distributed"]
        argv += ["--backend-url", queue, "--stall-timeout", "0.5"]
        line = self.error_line(argv, capsys)
        assert queue in line and "no distributed progress" in line

    @pytest.mark.parametrize("command", ["sweep", "work"])
    @pytest.mark.parametrize("where", ["unreachable", "directory"])
    def test_ledger_that_cannot_be_opened(self, command, where, tmp_path, capsys):
        url = "http://127.0.0.1:9" if where == "unreachable" else str(tmp_path)
        argv = ["work", "--backend-url", url]
        if command == "sweep":
            argv = ["sweep", "--max-tests", "1", "--models", "promising", "--distributed"]
            argv += ["--backend-url", url]
        assert url in self.error_line(argv, capsys)

    @pytest.mark.parametrize("command", ["fuzz", "work", "serve"])
    def test_ledger_directory_that_cannot_be_made(self, command, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        url = str(blocker / "q.db")
        argv = ["work", "--backend-url", url]
        if command == "fuzz":
            argv = ["fuzz", "--max-tests", "1", "--models", "promising", "--distributed"]
            argv += ["--backend-url", url]
        if command == "serve":
            argv = ["serve", "--port", "0", "--queue-url", url]
        line = self.error_line(argv, capsys)
        assert url in line and "cannot make directory" in line

    def test_serve_ledger_that_is_a_directory(self, tmp_path, capsys):
        # serve opens its ledger before it starts anything, so nothing leaks.
        url = str(tmp_path)
        assert url in self.error_line(["serve", "--port", "0", "--queue-url", url], capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--max-tests", "1", "--distributed", "--backend-url", "redis://x"],
            ["serve", "--port", "0", "--queue-url", "redis://x"],
            ["work", "--backend-url", "sqlite://"],
            ["serve", "--port", "0", "--queue-url", "http://127.0.0.1:9"],
        ],
        ids=["sweep-scheme", "serve-scheme", "work-empty-path", "serve-http"],
    )
    def test_bad_ledger_url_is_a_usage_error(self, argv, capsys, monkeypatch):
        # Refused when the arguments are parsed, by open_backend's rules
        # (serve also refuses an http:// ledger: it mounts SQLite only).  A
        # serve that got past the parser returns at once instead of serving.
        monkeypatch.setattr("repro.service.run_server", lambda *args, **kwargs: None)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "backend url" in line
