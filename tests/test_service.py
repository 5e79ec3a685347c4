"""Tests for the long-lived exploration service.

Covers request normalization, the resident :class:`WorkerPool`, the
caching/coalescing engine (the coalesced-counter assertion is an
acceptance criterion of the service PR), and a live HTTP round-trip
through the blocking client — the same path the CI smoke job drives.
"""

import asyncio
import queue
import threading

import pytest

from repro.harness.jobs import Job, execute_job
from repro.harness.scheduler import WorkerPool
from repro.lang.kinds import Arch
from repro.litmus import get_test
from repro.service import (
    ExplorationService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceError,
    TokenBuckets,
    percentile,
)
from repro.service.core import OPTION_KEYS
from repro.service.http import run_server

MP_SOURCE = (
    "AArch64 MP-service\n"
    "{ 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=x; }\n"
    " P0          | P1          ;\n"
    " MOV W0,#1   | LDR W0,[X1] ;\n"
    " STR W0,[X1] | LDR W2,[X3] ;\n"
    " STR W0,[X3] |             ;\n"
    "exists (1:X0=1 /\\ 1:X2=0)\n"
)


def make_service(**overrides) -> ExplorationService:
    defaults = dict(workers=1, batch_max_delay=0.0)
    defaults.update(overrides)
    return ExplorationService(ServiceConfig(**defaults))


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 0.5) is None

    def test_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile(values, 0.5) == 0.2
        assert percentile(values, 0.95) == 0.4
        assert percentile([7.0], 0.95) == 7.0


class TestNormalize:
    def normalize(self, payload, **overrides):
        return make_service(**overrides).normalize(payload)

    def test_requires_exactly_one_of_source_and_test(self):
        with pytest.raises(ServiceError):
            self.normalize({})
        with pytest.raises(ServiceError):
            self.normalize({"test": "MP", "source": MP_SOURCE})

    def test_catalogue_test(self):
        request = self.normalize({"test": "MP", "models": ["promising", "axiomatic"]})
        assert request.name == "MP" and request.arch is Arch.ARM
        assert [job.model for job in request.jobs] == ["promising", "axiomatic"]
        assert len({job.fingerprint() for job in request.jobs}) == 2

    def test_source_arch_comes_from_header(self):
        request = self.normalize({"source": MP_SOURCE})
        assert request.arch is Arch.ARM and request.name == "MP-service"

    def test_explicit_arch_and_comma_models(self):
        request = self.normalize({"test": "SB", "arch": "riscv", "models": "promising,flat"})
        assert request.arch is Arch.RISCV
        assert request.models == ("promising", "flat")

    def test_models_deduped(self):
        request = self.normalize({"test": "SB", "models": ["promising", "promising"]})
        assert request.models == ("promising",)

    def test_unknown_model_arch_and_test(self):
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "models": ["quantum"]})
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "arch": "ia64"})
        with pytest.raises(ServiceError):
            self.normalize({"test": "definitely-not-a-test"})

    def test_unparseable_source_is_client_error(self):
        with pytest.raises(ServiceError):
            self.normalize({"source": "this is not litmus"})

    def test_option_bounds(self):
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "options": {"loop_bound": 0}})
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "options": {"loop_bound": 99}})
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "options": {"timeout": -1}})
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "options": {"max_states": 0}})
        # Over-limit timeouts are rejected like every other option, not
        # silently clamped.
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "options": {"timeout": 10_000}})
        request = self.normalize({"test": "SB", "options": {"timeout": 5}})
        assert request.timeout == 5.0

    def test_unknown_options_are_rejected(self):
        # A retired key or a typo must never run unbounded on defaults.
        for options in ({"backend": "packed"}, {"max_state": 10}):
            with pytest.raises(ServiceError) as excinfo:
                self.normalize({"test": "SB", "options": options})
            assert excinfo.value.status == 400
            message = str(excinfo.value)
            assert repr(next(iter(options))) in message
            assert all(key in message for key in OPTION_KEYS)

    def test_oversized_source_is_413(self):
        with pytest.raises(ServiceError) as excinfo:
            self.normalize({"source": MP_SOURCE}, max_source_bytes=8)
        assert excinfo.value.status == 413

    def test_options_shape_job_fingerprints(self):
        loose = self.normalize({"test": "SB"})
        tight = self.normalize({"test": "SB", "options": {"max_states": 17}})
        assert loose.jobs[0].fingerprint() != tight.jobs[0].fingerprint()

    def test_deadline_option_bounds(self):
        for bad in (True, "2", 0, -1.0, 10_000):
            with pytest.raises(ServiceError):
                self.normalize({"test": "SB", "options": {"deadline_seconds": bad}})
        request = self.normalize({"test": "SB", "options": {"deadline_seconds": 2}})
        assert request.deadline_seconds == 2.0

    def test_deadline_shapes_job_fingerprints(self):
        # The deadline enters the search config, so deadline-tier answers
        # never collide with exhaustive ones in any cache layer.
        full = self.normalize({"test": "SB"})
        tiered = self.normalize({"test": "SB", "options": {"deadline_seconds": 2}})
        assert full.jobs[0].fingerprint() != tiered.jobs[0].fingerprint()


class TestTokenBuckets:
    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenBuckets(0, 1.0)
        with pytest.raises(ValueError):
            TokenBuckets(5, 0)

    def test_spend_refill_and_retry_after(self):
        clock = [0.0]
        buckets = TokenBuckets(2, 4.0, clock=lambda: clock[0])
        assert buckets.take("alice") is None
        assert buckets.take("alice") is None
        # Bucket empty: the wait is exactly the refill time for one token.
        assert buckets.take("alice") == pytest.approx(0.25)
        clock[0] += 0.25
        assert buckets.take("alice") is None

    def test_cost_above_capacity_drains_a_full_bucket(self):
        # A burst bigger than the bucket is admitted (capacity is a burst
        # cap, not a hard request-size wall) and empties the bucket.
        buckets = TokenBuckets(2, 1.0, clock=lambda: 0.0)
        assert buckets.take("bob", cost=10) is None
        assert buckets.take("bob") == pytest.approx(1.0)

    def test_clients_have_independent_buckets(self):
        buckets = TokenBuckets(1, 1.0, clock=lambda: 0.0)
        assert buckets.take("alice") is None
        assert buckets.take("alice") is not None
        assert buckets.take("bob") is None


class TestWorkerPool:
    def test_results_match_serial_execution(self):
        jobs = [Job(test=get_test(name), model="axiomatic") for name in ("SB", "MP")]
        with WorkerPool(2) as pool:
            pooled = pool.run(jobs)
        serial = [execute_job(job) for job in jobs]
        for a, b in zip(pooled, serial):
            assert a.name == b.name
            assert set(a.outcomes) == set(b.outcomes)

    def test_pool_stays_warm_across_batches(self):
        job = Job(test=get_test("SB"), model="axiomatic")
        with WorkerPool(1) as pool:
            pool.run([job])
            pool.run([job])
            assert pool.batches == 2 and pool.jobs_executed == 2

    def test_on_result_streams_every_index(self):
        jobs = [Job(test=get_test(name), model="axiomatic") for name in ("SB", "MP", "LB")]
        seen = {}
        with WorkerPool(2) as pool:
            pool.run(jobs, on_result=lambda index, result: seen.__setitem__(index, result))
        assert sorted(seen) == [0, 1, 2]

    def test_timeout_sequence_must_match(self):
        job = Job(test=get_test("SB"), model="axiomatic")
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError):
                pool.run([job, job], timeout=[1.0])

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.run([Job(test=get_test("SB"), model="axiomatic")])


class TestServiceCore:
    def test_compute_then_lru_hit(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, first = await service.handle_explore({"test": "SB"})
                assert status == 200 and first["ok"]
                assert first["results"][0]["served_from"] == "computed"
                status, second = await service.handle_explore({"test": "SB"})
                assert second["results"][0]["served_from"] == "lru"
                assert (
                    second["results"][0]["outcome_digest"]
                    == first["results"][0]["outcome_digest"]
                )
                snapshot = service.stats_snapshot()
                assert snapshot["served"]["computed"] == 1
                assert snapshot["served"]["lru"] == 1
                assert snapshot["cache_hit_rate"] == 0.5
            finally:
                await service.stop()

        run_async(scenario())

    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            # A generous batch window keeps the first job in flight while
            # the identical followers arrive, making coalescing
            # deterministic rather than a timing accident.
            service = make_service(batch_max_delay=0.2)
            await service.start()
            try:
                request = {"test": "LB", "models": ["promising"]}
                responses = await asyncio.gather(
                    *(service.handle_explore(request) for _ in range(3))
                )
                snapshot = service.stats_snapshot()
                assert snapshot["served"]["computed"] == 1
                assert snapshot["served"]["coalesced"] == 2
                assert snapshot["batches"]["jobs"] == 1
                digests = {
                    response["results"][0]["outcome_digest"]
                    for _status, response in responses
                }
                assert len(digests) == 1
                kinds = sorted(
                    response["results"][0]["served_from"] for _status, response in responses
                )
                assert kinds == ["coalesced", "coalesced", "computed"]
            finally:
                await service.stop()

        run_async(scenario())

    def test_disk_cache_survives_restart(self, tmp_path):
        async def scenario():
            first = make_service(cache_dir=str(tmp_path))
            await first.start()
            try:
                await first.handle_explore({"test": "SB"})
            finally:
                await first.stop()
            second = make_service(cache_dir=str(tmp_path))
            await second.start()
            try:
                _status, response = await second.handle_explore({"test": "SB"})
                assert response["results"][0]["served_from"] == "disk"
                # Promotion: the next hit comes from the in-process LRU.
                _status, response = await second.handle_explore({"test": "SB"})
                assert response["results"][0]["served_from"] == "lru"
            finally:
                await second.stop()

        run_async(scenario())

    def test_truncation_warning_flows_to_response(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, response = await service.handle_explore(
                    {"test": "SB", "options": {"max_states": 1}}
                )
                assert status == 200
                row = response["results"][0]
                assert row["truncated"] is True
                assert row["warning"] and "truncated" in row["warning"]
                assert row["matches_expectation"] is None
            finally:
                await service.stop()

        run_async(scenario())

    def test_bad_request_is_400_and_counted(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, response = await service.handle_explore({"test": "nope"})
                assert status == 400 and not response["ok"]
                assert service.stats.bad_requests == 1
                assert service.stats_snapshot()["requests"] == 0
            finally:
                await service.stop()

        run_async(scenario())

    def test_stop_fails_pending_requests_instead_of_hanging(self):
        async def scenario():
            # A huge batch window guarantees the request is still queued
            # when the service stops; the waiter must get a 503, not hang.
            service = make_service(batch_max_delay=30.0)
            await service.start()
            pending = asyncio.create_task(service.handle_explore({"test": "SB"}))
            await asyncio.sleep(0.05)
            await service.stop()
            status, response = await asyncio.wait_for(pending, timeout=5.0)
            assert status == 503 and not response["ok"]

        run_async(scenario())

    def test_include_outcomes_false_omits_payload(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                _status, response = await service.handle_explore(
                    {"test": "SB", "options": {"include_outcomes": False}}
                )
                assert "outcomes" not in response["results"][0]
                assert response["results"][0]["n_outcomes"] is not None
            finally:
                await service.stop()

        run_async(scenario())

    def test_deadline_tier_response_is_flagged_and_billed(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, response = await service.handle_explore(
                    {"test": "MP", "options": {"deadline_seconds": 0.000001}}
                )
                assert status == 200
                # The response says which budget shaped it and that the
                # verdict is partial, per row and at the top level.
                assert response["deadline_seconds"] == pytest.approx(1e-6)
                assert response["truncated"] is True
                row = response["results"][0]
                assert row["truncated"] is True
                assert row["warning"]
                assert row["matches_expectation"] is None
                assert "sampled" in row
                # Billed through the same per-request cost block.
                assert row["cost"]["served_from"] == "computed"
            finally:
                await service.stop()

        run_async(scenario())

    def test_exhaustive_responses_carry_no_deadline_fields(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, response = await service.handle_explore({"test": "SB"})
                assert status == 200
                assert "deadline_seconds" not in response
                assert "truncated" not in response
            finally:
                await service.stop()

        run_async(scenario())


class TestAdmissionControl:
    def test_queue_depth_gate_is_429_with_retry_after(self):
        async def scenario():
            # One job already queued (the huge batch window keeps it there)
            # fills the whole admission budget; the next request bounces.
            service = make_service(batch_max_delay=30.0, max_pending_jobs=1)
            await service.start()
            pending = asyncio.create_task(service.handle_explore({"test": "SB"}))
            await asyncio.sleep(0.05)
            status, response = await service.handle_explore({"test": "MP"})
            assert status == 429 and not response["ok"]
            assert response["retry_after"] == pytest.approx(
                service.config.admission_retry_after
            )
            assert service.stats.admission_rejections == 1
            await service.stop()
            await asyncio.wait_for(pending, timeout=5.0)

        run_async(scenario())

    def test_quota_exhaustion_is_429_per_client(self):
        async def scenario():
            service = make_service(quota_tokens=2.0, quota_refill_per_second=0.5)
            await service.start()
            try:
                for _ in range(2):
                    status, _ = await service.handle_explore(
                        {"test": "SB"}, client_id="alice"
                    )
                    assert status == 200
                status, response = await service.handle_explore(
                    {"test": "SB"}, client_id="alice"
                )
                assert status == 429 and not response["ok"]
                assert "quota" in response["error"]
                # ~2s to refill one token at 0.5/s, minus whatever trickled
                # back in while the first two requests ran.
                assert 0 < response["retry_after"] <= 2.0
                assert service.stats.quota_rejections == 1
                # Another identity is unaffected — quotas are per client.
                status, _ = await service.handle_explore(
                    {"test": "SB"}, client_id="bob"
                )
                assert status == 200
            finally:
                await service.stop()

        run_async(scenario())

    def test_quota_cost_is_jobs_not_requests(self):
        async def scenario():
            service = make_service(quota_tokens=2.0, quota_refill_per_second=0.1)
            await service.start()
            try:
                # One two-model request spends both tokens at once.
                status, _ = await service.handle_explore(
                    {"test": "SB", "models": ["promising", "axiomatic"]},
                    client_id="alice",
                )
                assert status == 200
                status, _ = await service.handle_explore(
                    {"test": "SB"}, client_id="alice"
                )
                assert status == 429
            finally:
                await service.stop()

        run_async(scenario())


class TestGracefulDrain:
    def test_drain_serves_cache_and_inflight_but_rejects_cold_work(self):
        async def scenario():
            service = make_service(batch_max_delay=0.05)
            await service.start()
            _, warm = await service.handle_explore({"test": "SB"})
            assert warm["ok"]
            # In-flight work admitted before the drain began must finish.
            inflight = asyncio.create_task(service.handle_explore({"test": "MP"}))
            await asyncio.sleep(0.01)
            service.begin_drain()
            # New cold work is turned away with an explicit come-back-later.
            status, rejected = await service.handle_explore({"test": "LB"})
            assert status == 503 and not rejected["ok"]
            assert rejected["retry_after"] == pytest.approx(
                service.config.drain_retry_after
            )
            assert service.stats.drain_rejections == 1
            # Cache hits still answer during the drain.
            status, cached = await service.handle_explore({"test": "SB"})
            assert status == 200
            assert cached["results"][0]["served_from"] == "lru"
            status, finished = await asyncio.wait_for(inflight, timeout=10.0)
            assert status == 200 and finished["ok"]
            assert await service.drain(timeout=10.0)
            assert service.healthz()["status"] == "draining"
            await service.stop()

        run_async(scenario())

    def test_drain_times_out_rather_than_hanging(self):
        async def scenario():
            # Nothing will ever flush a 30s batch window; drain must give
            # up at its own deadline, not wait the window out.
            service = make_service(batch_max_delay=30.0)
            await service.start()
            pending = asyncio.create_task(service.handle_explore({"test": "SB"}))
            await asyncio.sleep(0.05)
            service.begin_drain()
            assert not await service.drain(timeout=0.2)
            await service.stop()
            await asyncio.wait_for(pending, timeout=5.0)

        run_async(scenario())


@pytest.fixture(scope="module")
def live_service():
    """A real server on an ephemeral port, driven through the client."""
    ready: "queue.Queue[tuple[str, int]]" = queue.Queue()
    config = ServiceConfig(workers=1, batch_max_delay=0.0, lru_capacity=64)
    thread = threading.Thread(
        target=run_server,
        args=(config, "127.0.0.1", 0),
        kwargs={"on_ready": lambda host, port: ready.put((host, port))},
        daemon=True,
    )
    thread.start()
    host, port = ready.get(timeout=30)
    client = ServiceClient(host, port, timeout=60.0)
    client.wait_until_ready(30)
    yield client
    client.shutdown()
    thread.join(timeout=30)


class TestHttpRoundTrip:
    def test_healthz(self, live_service):
        health = live_service.healthz()
        assert health["status"] == "ok"
        assert health["pool"] == "inline"

    def test_explore_and_warm_hit(self, live_service):
        first = live_service.explore(test="MP+dmb+addr", models=["promising", "axiomatic"])
        assert first["ok"] and first["test"] == "MP+dmb+addr"
        verdicts = {row["model"]: row["verdict"] for row in first["results"]}
        assert verdicts == {"promising": "forbidden", "axiomatic": "forbidden"}
        second = live_service.explore(test="MP+dmb+addr", models=["promising", "axiomatic"])
        assert all(row["served_from"] == "lru" for row in second["results"])

    def test_source_round_trip(self, live_service):
        response = live_service.explore(source=MP_SOURCE, models="promising")
        assert response["ok"] and response["results"][0]["verdict"] == "allowed"
        assert response["results"][0]["outcomes"]

    def test_stats_endpoint(self, live_service):
        live_service.explore(test="SB")
        stats = live_service.stats()
        assert stats["requests"] >= 1
        assert stats["served"]["computed"] >= 1
        assert stats["latency_seconds"]["p50"] is not None

    def test_client_error_carries_status(self, live_service):
        with pytest.raises(ServiceClientError) as excinfo:
            live_service.explore(test="not-a-test")
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_404(self, live_service):
        # Only the versioned surface answers: unversioned paths are unknown.
        for method, path in (("GET", "/nope"), ("GET", "/healthz"), ("POST", "/explore")):
            with pytest.raises(ServiceClientError) as excinfo:
                live_service._request(method, path)
            assert excinfo.value.status == 404, path

    def test_negative_content_length_is_400(self, live_service):
        import socket

        with socket.create_connection((live_service.host, live_service.port)) as sock:
            sock.sendall(
                b"POST /v1/explore HTTP/1.1\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            reply = sock.recv(4096).decode()
        assert reply.startswith("HTTP/1.1 400")

    def test_header_flood_is_431(self, live_service):
        import socket

        flood = b"".join(b"x-filler-%d: y\r\n" % i for i in range(200))
        with socket.create_connection((live_service.host, live_service.port)) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n" + flood + b"\r\n")
            reply = sock.recv(4096).decode()
        assert reply.startswith("HTTP/1.1 431")

    def test_deadline_tier_over_http(self, live_service):
        response = live_service.explore(
            test="LB", options={"deadline_seconds": 0.000001}
        )
        assert response["truncated"] is True
        assert response["deadline_seconds"] == pytest.approx(1e-6)
        row = response["results"][0]
        assert row["truncated"] is True and "sampled" in row


class _RawHttp:
    """Minimal HTTP response reader over a raw socket.

    Keeps bytes beyond the current response buffered, so back-to-back
    pipelined responses are split correctly instead of discarded.
    """

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def read_response(self) -> tuple[int, dict, bytes]:
        while b"\r\n\r\n" not in self.buffer:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            self.buffer += chunk
        head, _, rest = self.buffer.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(rest) < length:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self.buffer = rest[length:]
        return status, headers, rest[:length]


class TestKeepAliveProtocol:
    def test_sequential_requests_reuse_one_connection(self, live_service):
        import socket

        request = (
            b"GET /v1/healthz HTTP/1.1\r\nHost: svc\r\n\r\n"
        )
        with socket.create_connection((live_service.host, live_service.port)) as sock:
            http = _RawHttp(sock)
            for _ in range(3):
                sock.sendall(request)
                status, headers, _body = http.read_response()
                assert status == 200
                assert headers["connection"] == "keep-alive"

    def test_pipelined_responses_come_back_in_request_order(self, live_service):
        import json
        import socket

        def explore(test, request_id):
            body = json.dumps({"test": test}).encode()
            return (
                b"POST /v1/explore HTTP/1.1\r\nHost: svc\r\n"
                b"X-Request-Id: " + request_id.encode() + b"\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            )

        # All three hit the wire before any response is read; HTTP/1.1
        # demands answers in request order even when they finish out of it.
        wire = explore("SB", "pipe-0") + explore("MP", "pipe-1") + explore("LB", "pipe-2")
        with socket.create_connection((live_service.host, live_service.port)) as sock:
            http = _RawHttp(sock)
            sock.sendall(wire)
            for index, expected_test in enumerate(["SB", "MP", "LB"]):
                status, headers, body = http.read_response()
                assert status == 200
                assert headers["x-request-id"] == f"pipe-{index}"
                assert json.loads(body)["test"] == expected_test

    def test_connection_close_is_honoured(self, live_service):
        import socket

        with socket.create_connection((live_service.host, live_service.port)) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, headers, _body = _RawHttp(sock).read_response()
            assert status == 200
            assert headers["connection"] == "close"
            assert sock.recv(4096) == b""  # server actually closed

    def test_client_pool_reuses_connections(self, live_service):
        before = live_service.stats()["http"]
        for _ in range(4):
            live_service.explore(test="SB")
        after = live_service.stats()["http"]
        # Six requests (4 explores + 2 stats) rode existing connections.
        assert after["requests"] - before["requests"] == 5
        assert after["connections"] == before["connections"]


@pytest.fixture()
def quota_service():
    """A server with a tiny per-client quota (the 429 path, end to end)."""
    ready: "queue.Queue[tuple[str, int]]" = queue.Queue()
    config = ServiceConfig(
        workers=1,
        batch_max_delay=0.0,
        quota_tokens=2.0,
        quota_refill_per_second=2.0,
    )
    thread = threading.Thread(
        target=run_server,
        args=(config, "127.0.0.1", 0),
        kwargs={"on_ready": lambda host, port: ready.put((host, port))},
        daemon=True,
    )
    thread.start()
    host, port = ready.get(timeout=30)
    yield host, port
    ServiceClient(host, port).shutdown()
    thread.join(timeout=30)


class TestQuotaOverHttp:
    def test_exhaustion_is_429_with_retry_after(self, quota_service):
        host, port = quota_service
        with ServiceClient(host, port, client_id="greedy") as client:
            client.wait_until_ready(30)
            client.explore(test="SB", options={"include_outcomes": False})
            client.explore(test="SB", options={"include_outcomes": False})
            with pytest.raises(ServiceClientError) as excinfo:
                client.explore(
                    test="SB", options={"include_outcomes": False}, retry=False
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1  # header is ceil'd to whole seconds

    def test_client_retries_past_429_honouring_retry_after(self, quota_service):
        host, port = quota_service
        with ServiceClient(host, port, client_id="patient") as client:
            client.wait_until_ready(30)
            for _ in range(3):  # third call drains the bucket and must retry
                response = client.explore(
                    test="SB", options={"include_outcomes": False}
                )
                assert response["ok"]
            assert client.retries >= 1
