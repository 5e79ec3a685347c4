"""Tests for the unified observability layer (``repro.obs``).

Covers the registry laws (counter monotonicity, inclusive histogram
bucket edges, label isolation, registration conflicts), the snapshot /
merge / diff algebra that carries worker metrics over the
multiprocessing boundary, structured JSON logging with contextvars
correlation, span tracing, and a live-service round trip of
``GET /metrics`` and the ``X-Request-Id`` echo.
"""

from __future__ import annotations

import io
import json
import queue
import re
import threading

import pytest

from repro.backend.packed import EXPLORE_PHASE_SECONDS
from repro.harness import Job, run_jobs
from repro.litmus import get_test
from repro.obs import (
    JsonFormatter,
    MetricsRegistry,
    PhaseAccumulator,
    bind,
    configure_logging,
    current_context,
    diff_snapshots,
    get_logger,
    get_registry,
    log_event,
    new_request_id,
    sanitize_request_id,
    span,
)
from repro.promising import explore_naive
from repro.service import (
    PROMETHEUS_CONTENT_TYPE,
    SERVICE_SCHEMA_VERSION,
    ServiceClient,
    ServiceConfig,
    states_explored,
)
from repro.service.http import run_server


# -- registry laws -----------------------------------------------------------
class TestRegistryLaws:
    def test_counter_accumulates_and_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "test", labels=("layer",))
        counter.inc(layer="lru")
        counter.inc(2.5, layer="lru")
        assert counter.value(layer="lru") == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0, layer="lru")
        assert counter.value(layer="lru") == 3.5

    def test_label_isolation(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "test", labels=("layer", "outcome"))
        counter.inc(layer="lru", outcome="hit")
        counter.inc(layer="disk", outcome="hit")
        counter.inc(layer="lru", outcome="miss")
        assert counter.value(layer="lru", outcome="hit") == 1.0
        assert counter.value(layer="disk", outcome="hit") == 1.0
        assert counter.value(layer="disk", outcome="miss") == 0.0
        assert len(counter.series()) == 4  # the read above created the empty series

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "test", labels=("layer",))
        with pytest.raises(ValueError):
            counter.inc(tier="lru")
        with pytest.raises(ValueError):
            counter.inc()  # missing the label entirely

    def test_duplicate_registration_is_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "test", labels=("layer",))
        b = registry.counter("hits_total", "test", labels=("layer",))
        assert a is b
        with pytest.raises(ValueError):
            registry.gauge("hits_total", "test", labels=("layer",))  # kind mismatch
        with pytest.raises(ValueError):
            registry.counter("hits_total", "test", labels=("tier",))  # label mismatch

    def test_histogram_bucket_edges_are_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "test", buckets=(0.1, 1.0))
        hist.observe(0.1)   # lands in the 0.1 bucket (inclusive upper bound)
        hist.observe(0.5)   # lands in the 1.0 bucket
        hist.observe(99.0)  # lands in the +Inf overflow slot
        child = hist.labels()
        assert child.counts == [1, 1, 1]
        assert child.count == 3
        assert child.sum == pytest.approx(99.6)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("lat", "test", buckets=(1.0, 0.1))
        with pytest.raises(ValueError):
            registry.histogram("lat2", "test", buckets=())

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("workers", "test")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3.0


# -- snapshot / merge / diff -------------------------------------------------
class TestSnapshotMergeDiff:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs_total", "c", labels=("status",)).inc(3, status="ok")
        registry.gauge("depth", "g").set(7)
        hist = registry.histogram("lat", "h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_snapshot_is_plain_and_json_safe(self):
        snap = self._populated().snapshot()
        json.dumps(snap)  # picklable/serialisable: plain dicts and numbers
        assert snap["jobs_total"]["kind"] == "counter"
        assert snap["jobs_total"]["series"]["ok"] == 3.0
        assert snap["lat"]["series"][""]["counts"] == [1, 1, 0]

    def test_merge_adds_counters_and_histograms(self):
        parent = MetricsRegistry()
        snap = self._populated().snapshot()
        parent.merge(snap)
        parent.merge(snap)
        assert parent.get("jobs_total").value(status="ok") == 6.0
        child = parent.get("lat").labels()
        assert child.counts == [2, 2, 0]
        assert child.count == 4
        # gauges take the incoming value rather than adding
        assert parent.get("depth").value() == 7.0

    def test_diff_snapshots_isolates_one_jobs_worth(self):
        registry = self._populated()
        before = registry.snapshot()
        registry.get("jobs_total").inc(2, status="ok")
        registry.get("jobs_total").inc(1, status="error")
        registry.get("lat").observe(5.0)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["jobs_total"]["series"] == {"ok": 2.0, "error": 1.0}
        assert delta["lat"]["series"][""]["counts"] == [0, 0, 1]
        assert "depth" not in delta  # unchanged gauge drops out of the delta

    def test_diff_then_merge_round_trips(self):
        registry = self._populated()
        before = registry.snapshot()
        registry.get("jobs_total").inc(4, status="ok")
        delta = diff_snapshots(before, registry.snapshot())
        parent = MetricsRegistry()
        parent.merge(delta)
        assert parent.get("jobs_total").value(status="ok") == 4.0


# -- Prometheus rendering ----------------------------------------------------
#: One Prometheus text-format line: comment, blank, or sample.
_PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+"
    r"|)$"
)


def assert_prometheus_text(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        assert _PROM_LINE.match(line), f"not Prometheus text: {line!r}"


class TestPrometheusRendering:
    def test_render_covers_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Hits.", labels=("layer",)).inc(2, layer="lru")
        registry.gauge("workers", "Pool size.").set(4)
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.5)
        text = registry.render_prometheus()
        assert_prometheus_text(text)
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{layer="lru"} 2' in text
        assert "workers 4" in text
        # histogram buckets are cumulative and end at +Inf
        assert 'lat_seconds_bucket{le="0.1"} 0' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "", labels=("what",)).inc(what='a"b\\c\nd')
        text = registry.render_prometheus()
        assert 'what="a\\"b\\\\c\\nd"' in text


# -- structured logging ------------------------------------------------------
class TestStructuredLogging:
    def _capture(self):
        stream = io.StringIO()
        configure_logging("json", "debug", stream=stream)
        return stream

    def teardown_method(self):
        configure_logging("text", "info")

    def test_json_lines_parse_and_carry_context(self):
        stream = self._capture()
        log = get_logger("test.obs")
        with bind(request_id="req-1", job="abc123"):
            log_event(log, "unit of work", states=17)
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "unit of work"
        assert record["logger"] == "repro.test.obs"
        assert record["request_id"] == "req-1"
        assert record["job"] == "abc123"
        assert record["states"] == 17
        assert record["level"] == "info"

    def test_bind_restores_previous_context(self):
        with bind(request_id="outer"):
            with bind(request_id="inner", extra="x"):
                assert current_context() == {"request_id": "inner", "extra": "x"}
            assert current_context() == {"request_id": "outer"}

    def test_reserved_field_names_do_not_crash(self):
        stream = self._capture()
        log_event(get_logger("test.obs"), "evt", name="colliding", msg="also")
        record = json.loads(stream.getvalue().strip())
        assert record["field_name"] == "colliding"
        assert record["field_msg"] == "also"

    def test_text_format_mentions_event_and_fields(self):
        stream = io.StringIO()
        configure_logging("text", "info", stream=stream)
        log_event(get_logger("test.obs"), "hello", k="v")
        line = stream.getvalue()
        assert "hello" in line and "k=v" in line

    def test_formatter_survives_unserialisable_values(self):
        stream = self._capture()
        log_event(get_logger("test.obs"), "evt", obj=object())
        json.loads(stream.getvalue().strip())  # default=str keeps it valid JSON

    def test_request_id_helpers(self):
        assert len(new_request_id()) == 12
        assert new_request_id() != new_request_id()
        assert sanitize_request_id("ok-id_1.2") == "ok-id_1.2"
        assert sanitize_request_id("a\r\nSet-Cookie: x") == "aSet-Cookiex"
        assert sanitize_request_id("x" * 200) == "x" * 64
        assert sanitize_request_id("") is None
        assert sanitize_request_id("\r\n") is None

    def test_configure_logging_is_idempotent(self):
        logger = configure_logging("json", "info")
        configure_logging("json", "info")
        assert len(logger.handlers) == 1
        assert isinstance(logger.handlers[0].formatter, JsonFormatter)
        with pytest.raises(ValueError):
            configure_logging("yaml")


# -- tracing -----------------------------------------------------------------
class TestTracing:
    def test_spans_nest_into_dotted_paths(self):
        registry = get_registry()
        hist = registry.get("span_seconds")
        with span("outer"):
            with span("inner") as handle:
                pass
        assert handle.path == "outer.inner"
        series = hist.series()
        assert ("outer",) in series
        assert ("outer.inner",) in series
        assert handle.seconds >= 0.0

    def test_span_accepts_name_field(self):
        with span("sweep", name="litmus-sweep") as handle:
            pass
        assert handle.fields == {"name": "litmus-sweep"}

    def test_phase_accumulator_flushes_once(self):
        registry = MetricsRegistry()
        counter = registry.counter("phase_seconds", "", labels=("model", "phase"))
        phases = PhaseAccumulator()
        phases.add("certify", 0.25)
        phases.add("certify", 0.25)
        phases.add("enumerate", 1.0)
        phases.flush(counter, model="promising")
        assert counter.value(model="promising", phase="certify") == 0.5
        assert counter.value(model="promising", phase="enumerate") == 1.0
        assert phases.totals == {}

    def test_naive_books_certify_and_enumerate_phases(self):
        def totals():
            return {k: child.value for k, child in EXPLORE_PHASE_SECONDS.series().items()}

        before = totals()
        explore_naive(get_test("LB").program)
        after = totals()
        for phase in ("certify", "enumerate"):
            key = ("promising-naive", phase)
            assert after[key] > before.get(key, 0.0), phase
        assert not any(model == "promising_naive" for model, _phase in after)


# -- cross-process metric flow -----------------------------------------------
class TestCrossProcessMerge:
    def test_worker_metrics_merge_into_parent(self):
        jobs = [
            Job(test=get_test("MP"), model="promising"),
            Job(test=get_test("SB"), model="promising"),
        ]
        registry = get_registry()
        kernel_states = registry.counter(
            "kernel_states_total", labels=("strategy",)
        )
        before = kernel_states.value(strategy="dfs")
        results = run_jobs(jobs, workers=2)
        assert [r.status for r in results] == ["ok", "ok"]
        # the transport fields were consumed by the parent-side merge
        assert all(r.metrics_delta is None for r in results)
        assert all(r.queue_seconds is not None and r.queue_seconds >= 0.0 for r in results)
        # the kernel ran only in the workers, yet the parent counter grew
        assert kernel_states.value(strategy="dfs") > before
        assert registry.get("pool_jobs_total") is not None

    def test_serial_path_keeps_metrics_local(self):
        jobs = [Job(test=get_test("MP"), model="promising")]
        registry = get_registry()
        kernel_states = registry.counter(
            "kernel_states_total", labels=("strategy",)
        )
        before = kernel_states.value(strategy="dfs")
        results = run_jobs(jobs, workers=1)
        assert results[0].status == "ok"
        assert kernel_states.value(strategy="dfs") > before

    def test_transport_fields_stay_out_of_report_json(self):
        from repro.harness.jobs import result_to_json

        results = run_jobs([Job(test=get_test("MP"), model="promising")], workers=2)
        row = result_to_json(results[0])
        assert "metrics_delta" not in row
        assert "queue_seconds" not in row


# -- live service round trip -------------------------------------------------
@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    """A real server on an ephemeral port, driven through the client."""
    ready: "queue.Queue[tuple[str, int]]" = queue.Queue()
    config = ServiceConfig(
        workers=1,
        lru_capacity=64,
        cache_dir=str(tmp_path_factory.mktemp("obs-service-cache")),
    )
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
    assert not thread.is_alive(), "server thread ignored shutdown"


class TestServiceObservability:
    def test_metrics_endpoint_serves_prometheus_text(self, live_service):
        live_service.explore(test="MP", models="promising")
        status, headers, raw = live_service._raw_request("GET", "/v1/metrics")
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        text = raw.decode()
        assert_prometheus_text(text)
        # kernel, pool/service, and cache layers are all represented
        assert "# TYPE kernel_states_total counter" in text
        assert "# TYPE service_requests_total counter" in text
        assert 'cache_requests_total{layer="lru"' in text
        assert 'cache_requests_total{layer="disk"' in text

    def test_request_id_is_echoed(self, live_service):
        live_service.healthz()
        generated = live_service.last_request_id
        assert generated and len(generated) == 12
        live_service.explore(test="SB", models="promising", request_id="my-corr-id")
        assert live_service.last_request_id == "my-corr-id"

    def test_explore_reports_cost(self, live_service):
        response = live_service.explore(test="MP+dmb+addr", models="promising")
        assert response["ok"]
        cost = response["cost"]
        assert cost["states_explored"] > 0
        assert cost["queue_ms"] >= 0.0
        assert cost["compute_ms"] >= 0.0
        assert sum(cost["served_from"].values()) == len(response["results"])
        row = response["results"][0]
        assert row["cost"]["states"] == states_explored(row["stats"])
        # a warm repeat is served from the LRU and billed zero compute
        repeat = live_service.explore(test="MP+dmb+addr", models="promising")
        assert repeat["results"][0]["served_from"] == "lru"
        assert repeat["results"][0]["cost"]["compute_ms"] == 0.0

    def test_health_and_stats_carry_schema_and_build(self, live_service):
        health = live_service.healthz()
        stats = live_service.stats()
        for payload in (health, stats):
            assert payload["schema_version"] == SERVICE_SCHEMA_VERSION
            assert payload["build"]["version"]
            assert payload["build"]["python"]
        assert set(stats["errors"]) == {"jobs", "timeouts", "batches", "total"}

    def test_coalesced_layer_appears_after_concurrent_identical_requests(
        self, live_service
    ):
        # Two identical cold requests in flight at once: one computes, the
        # other coalesces onto it — visible as the third cache layer.
        payload = {"test": "LB+addrs", "models": ["promising"], "options": {}}
        results: list = []

        def fire():
            with ServiceClient(live_service.host, live_service.port, timeout=60.0) as client:
                results.append(client.explore(**payload))

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a request hung"
        assert len(results) == 4, f"{4 - len(results)} request(s) got no reply"
        served = [r["results"][0]["served_from"] for r in results]
        assert all(s in ("computed", "coalesced", "lru", "disk") for s in served)
        text = live_service.metrics_text()
        if "coalesced" in "".join(served):
            assert 'cache_requests_total{layer="coalesced",outcome="hit"}' in text


class TestServiceErrorAccounting:
    def test_job_error_increments_counters(self):
        # A private server whose executor raises: the error must land in
        # /stats errors and in service_errors_total, not vanish.
        from repro.harness import STATUS_ERROR, JobResult
        from repro.service import ExplorationService
        from repro.service.core import _SERVICE_ERRORS
        import repro.service.core as core_module

        def exploding(job, timeout=None, capture_errors=True):
            return JobResult(
                name=job.test.name,
                model=job.model,
                arch=job.arch,
                status=STATUS_ERROR,
                outcomes=None,
                verdict=None,
                expected=None,
                elapsed_seconds=0.0,
                error="synthetic failure",
                fingerprint=job.fingerprint(),
            )

        async def scenario():
            service = ExplorationService(ServiceConfig(workers=1, lru_capacity=8))
            await service.start()
            try:
                before = _SERVICE_ERRORS.value(kind="job_error")
                status, payload = await service.handle_explore(
                    {"test": "MP", "models": ["promising"]}
                )
                assert status == 200
                assert payload["results"][0]["status"] == STATUS_ERROR
                stats = service.stats_snapshot()
                assert stats["errors"]["jobs"] >= 1
                assert stats["errors"]["total"] >= 1
                assert _SERVICE_ERRORS.value(kind="job_error") > before
            finally:
                await service.stop()

        import asyncio

        original = core_module.execute_job
        core_module.execute_job = exploding
        try:
            asyncio.run(scenario())
        finally:
            core_module.execute_job = original
