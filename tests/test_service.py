"""Tests for the long-lived exploration service.

Covers request normalization, the resident :class:`WorkerPool`, the
caching/coalescing engine (the coalesced-counter assertion is an
acceptance criterion of the service PR), the cold path's admission
count and failure paths (an exploration that raises, a pool timeout, a
broken executor), and a live HTTP round-trip through the blocking
client — the same path the CI smoke job drives.
"""

import asyncio
import collections
import contextlib
import hashlib
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.harness.cache
import repro.harness.jobs
import repro.harness.report
from repro.harness.jobs import MODELS, Job, execute_job
from repro.harness.scheduler import WorkerPool
from repro.lang.kinds import Arch
from repro.litmus import all_tests, get_test
from repro.service import (
    ExplorationService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceError,
    TokenBuckets,
    percentile,
)
from repro.service.core import (
    ADMISSION_RETRY_AFTER,
    DRAIN_RETRY_AFTER,
    DRAIN_TIMEOUT,
    MEMO_MAX_BODY_BYTES,
    OPTION_KEYS,
)
from repro.service.http import ServiceServer, run_server

MP_SOURCE = (
    "AArch64 MP-service\n"
    "{ 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=x; }\n"
    " P0          | P1          ;\n"
    " MOV W0,#1   | LDR W0,[X1] ;\n"
    " STR W0,[X1] | LDR W2,[X3] ;\n"
    " STR W0,[X3] |             ;\n"
    "exists (1:X0=1 /\\ 1:X2=0)\n"
)

# The 3.2W shape: three threads, two stores each, no loads.  Every
# assignment is a machine step, so naive exploration visits about 69,000
# states.
W3_SOURCE = (
    "AArch64 3.2W-service\n"
    "{ 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=z; 2:X1=z; 2:X3=x; }\n"
    " P0          | P1          | P2          ;\n"
    " MOV W0,#2   | MOV W0,#2   | MOV W0,#2   ;\n"
    " STR W0,[X1] | STR W0,[X1] | STR W0,[X1] ;\n"
    " MOV W2,#1   | MOV W2,#1   | MOV W2,#1   ;\n"
    " STR W2,[X3] | STR W2,[X3] | STR W2,[X3] ;\n"
    "exists (x=2 /\\ y=2 /\\ z=2)\n"
)


def make_service(**overrides) -> ExplorationService:
    defaults = dict(workers=1)
    defaults.update(overrides)
    return ExplorationService(ServiceConfig(**defaults))


def hold_compute(service: ExplorationService) -> threading.Event:
    """Hold every cold job of ``service`` until the returned event is set.

    The job waits on its executor thread, so it stays pending (in flight,
    or waiting for a slot behind a held one) for as long as a scenario
    needs.  Set the event before the scenario returns: ``asyncio.run``
    waits for executor threads on exit.
    """
    release = threading.Event()
    execute = service._execute

    def held(job, timeout):
        release.wait(timeout=30)
        return execute(job, timeout)

    service._execute = held
    return release


def run_async(coroutine):
    return asyncio.run(coroutine)


async def explore_json(service: ExplorationService, payload, **kwargs):
    """``handle_explore`` as the HTTP front-end calls it: payload and its body."""
    body = json.dumps(payload).encode()
    return await service.handle_explore(json.loads(body), body=body, **kwargs)


#: What may differ between two answers to one request: where each row
#: came from, what it cost now, the wall time and the request id.
PER_ANSWER_ROW_KEYS = ("served_from", "cost", "cached", "elapsed_seconds")
PER_ANSWER_KEYS = ("elapsed_seconds", "cost", "request_id")


def answer_content(response: dict) -> dict:
    """``response`` without the fields that describe one answer, not the request."""
    content = {k: v for k, v in response.items() if k not in PER_ANSWER_KEYS}
    content["results"] = [
        {k: v for k, v in row.items() if k not in PER_ANSWER_ROW_KEYS}
        for row in response["results"]
    ]
    return content


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
        # NaN fails every comparison, so it must not slip past the bounds
        # and run with no deadline at all.
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "options": {"timeout": float("nan")}})
        with pytest.raises(ServiceError):
            self.normalize({"test": "SB", "options": {"max_states": 0}})
        # bool is an int subclass: ``true`` must not run as 1.
        for key in ("timeout", "loop_bound", "max_states"):
            with pytest.raises(ServiceError) as excinfo:
                self.normalize({"test": "SB", "options": {key: True}})
            assert excinfo.value.status == 400, key
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
        for bad in (True, "2", 0, -1.0, 10_000, float("nan")):
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
        # NaN passes a ``<= 0`` check; infinity is no quota at all.
        nan, inf = float("nan"), float("inf")
        for capacity, refill in ((nan, 1.0), (5, nan), (inf, 1.0), (5, inf)):
            with pytest.raises(ValueError):
                TokenBuckets(capacity, refill)

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

    def test_refilled_buckets_leave_the_ledger(self):
        clock = [0.0]
        buckets = TokenBuckets(4, 2.0, clock=lambda: clock[0])
        for n in range(10_000):
            assert buckets.take(f"one-shot-{n}") is None
        assert len(buckets._buckets) == 10_000
        clock[0] += 4 / 2.0 + 0.001  # past capacity / refill: every bucket is full
        assert buckets.take("late") is None
        assert len(buckets._buckets) == 1

    @pytest.mark.parametrize("capacity, refill, seed", [(3, 1.5, 1), (2, 0.3, 2), (7, 10.0, 3)])
    def test_pruning_changes_no_answer(self, capacity, refill, seed):
        # Differential: a ledger that never drops a bucket must answer every
        # take() exactly as the pruned one does.
        class Unpruned(TokenBuckets):
            def _sweep(self, now):
                pass

        clock = [0.0]
        pruned = TokenBuckets(capacity, refill, clock=lambda: clock[0])
        unpruned = Unpruned(capacity, refill, clock=lambda: clock[0])
        rng = random.Random(seed)
        regulars = [f"client-{n}" for n in range(30)]
        answers = collections.Counter()
        for step in range(20_000):
            clock[0] += rng.choice((0.0, 0.0, 0.01, 0.07, 0.3, 1.1, 4.0))
            client = rng.choice(regulars) if rng.random() < 0.7 else f"once-{step}"
            cost = rng.choice((1, 1, 1, 2, 3, 9))
            answer = pruned.take(client, cost)
            assert answer == unpruned.take(client, cost), (step, client, cost)
            answers[answer is None] += 1
        assert answers[True] and answers[False]  # both answers were exercised
        assert len(pruned._buckets) < len(unpruned._buckets) // 10


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

    def test_each_job_is_one_counted_lru_lookup(self):
        async def scenario():
            from repro.harness.cache import CACHE_REQUESTS

            def lru_counts():
                return (
                    CACHE_REQUESTS.value(layer="lru", outcome="hit"),
                    CACHE_REQUESTS.value(layer="lru", outcome="miss"),
                )

            service = make_service()
            await service.start()
            try:
                hits0, misses0 = lru_counts()
                status, _ = await service.handle_explore({"test": "MP"})
                assert status == 200
                lru = service.stats_snapshot()["lru"]
                assert (lru["hits"], lru["misses"]) == (0, 1)
                hits1, misses1 = lru_counts()
                assert (hits1 - hits0, misses1 - misses0) == (0, 1)
                # One resident job, one cold: a hit and a miss, once each.
                status, response = await service.handle_explore(
                    {"test": "MP", "models": ["promising", "axiomatic"]}
                )
                assert status == 200
                assert [row["served_from"] for row in response["results"]] == ["lru", "computed"]
                lru = service.stats_snapshot()["lru"]
                assert (lru["hits"], lru["misses"]) == (1, 2)
                hits2, misses2 = lru_counts()
                assert (hits2 - hits1, misses2 - misses1) == (1, 1)
                served = service.stats_snapshot()["served"]
                assert (served["lru"], served["computed"]) == (1, 2)
            finally:
                await service.stop()

        run_async(scenario())

    def test_cold_request_starts_without_waiting(self):
        async def scenario():
            # On the default settings a lone cold job runs as soon as it
            # arrives: its billed queue time is the slot check, not a window.
            service = ExplorationService(ServiceConfig(workers=1))
            await service.start()
            try:
                status, response = await service.handle_explore({"test": "SB"})
                assert status == 200
                cost = response["results"][0]["cost"]
                assert cost["served_from"] == "computed"
                assert cost["queue_ms"] < 5
            finally:
                await service.stop()

        run_async(scenario())

    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            # Holding the computation keeps the first job in flight while
            # the identical followers arrive, making coalescing
            # deterministic rather than a timing accident.
            service = make_service()
            release = hold_compute(service)
            await service.start()
            try:
                request = {"test": "LB", "models": ["promising"]}
                gathered = asyncio.gather(*(service.handle_explore(request) for _ in range(3)))
                await asyncio.sleep(0.05)
                release.set()
                responses = await gathered
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
                release.set()
                await service.stop()

        run_async(scenario())

    def test_other_architecture_is_answered_as_itself(self):
        async def scenario():
            # LB has no exclusive access, so a RISC-V job of it shares the
            # ARM job's fingerprint: it joins the ARM computation in
            # flight, and later hits the LRU, each time under its own
            # name, arch and expected verdict.
            import dataclasses

            from repro.litmus.test import Verdict

            service = make_service()
            release = hold_compute(service)
            await service.start()
            try:
                lb = get_test("LB")
                twin = dataclasses.replace(
                    lb, name="LB-twin", expected={Arch.RISCV: Verdict.ALLOWED}
                )
                arm = Job(test=lb, model="promising", arch=Arch.ARM)
                riscv = Job(test=twin, model="promising", arch=Arch.RISCV)
                gathered = asyncio.gather(
                    service._resolve(arm, None, None), service._resolve(riscv, None, None)
                )
                await asyncio.sleep(0.05)
                release.set()
                (first, first_from), (joined, joined_from) = await gathered
                assert (first_from, joined_from) == ("computed", "coalesced")
                assert (first.name, first.arch) == ("LB", Arch.ARM)
                assert first.expected is lb.expected_verdict(Arch.ARM)
                assert (joined.name, joined.arch) == ("LB-twin", Arch.RISCV)
                assert joined.expected is Verdict.ALLOWED
                status, response = await service.handle_explore(
                    {"test": "LB", "models": ["promising"], "arch": "riscv"}
                )
                assert status == 200 and response["arch"] == "RISC-V"
                row = response["results"][0]
                assert (row["served_from"], row["arch"]) == ("lru", "RISC-V")
                assert service.stats_snapshot()["served"]["computed"] == 1
            finally:
                release.set()
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
            # A held computation guarantees the request is still pending
            # when the service stops; the waiter must get a 503, not hang.
            service = make_service()
            release = hold_compute(service)
            await service.start()
            try:
                pending = asyncio.create_task(service.handle_explore({"test": "SB"}))
                await asyncio.sleep(0.05)
                await service.stop()
                status, response = await asyncio.wait_for(pending, timeout=5.0)
                assert status == 503 and not response["ok"]
            finally:
                release.set()

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


#: Option variants the memo law runs under: the defaults, a smaller loop
#: bound with no outcomes in the rows, and a seeded sampled run under the
#: deadline tier.
MEMO_LAW_OPTIONS = (
    None,
    {"loop_bound": 1, "include_outcomes": False},
    {"strategy": "sample", "samples": 8, "seed": 11, "deadline_seconds": 60},
)


class TestRequestMemo:
    """The normalisation memo in front of ``ExplorationService.normalize``."""

    def test_memoised_answers_equal_fresh_ones(self):
        # The law: for every catalogue test, both architectures, all four
        # models and each option variant, a memoised request has the jobs a
        # fresh normalisation builds, and answers as the first request did.
        async def scenario():
            service = make_service()
            await service.start()
            try:
                for options in MEMO_LAW_OPTIONS:
                    for test in all_tests():
                        for arch in ("arm", "riscv"):
                            payload = {"test": test.name, "arch": arch, "models": list(MODELS)}
                            if options is not None:
                                payload["options"] = options
                            body = json.dumps(payload).encode()
                            status, fresh = await explore_json(service, payload)
                            assert status == 200, fresh
                            hits = service.stats.memo_hits
                            status, memoised = await explore_json(service, payload)
                            assert (status, service.stats.memo_hits) == (200, hits + 1)
                            assert answer_content(memoised) == answer_content(fresh)
                            assert all(row["served_from"] == "lru" for row in memoised["results"])
                            recalled = service._requests[body]
                            renewed = service.normalize(json.loads(body))
                            assert recalled == renewed
                            assert [job.fingerprint() for job in recalled.jobs] == [
                                job.fingerprint() for job in renewed.jobs
                            ]
            finally:
                await service.stop()

        run_async(scenario())

    def test_a_repeat_recomputes_nothing(self, monkeypatch):
        # Counted: a repeated catalogue request runs normalize, the
        # fingerprint hash and the outcome digest 0 times; the cold one
        # runs each no more than its jobs need.
        counts = collections.Counter()

        def counting(name, function):
            def counted(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return counted

        digest = repro.harness.report.outcome_set_digest
        monkeypatch.setattr(
            ExplorationService, "normalize", counting("normalize", ExplorationService.normalize)
        )
        sha256 = staticmethod(counting("sha256", hashlib.sha256))
        monkeypatch.setattr(repro.harness.jobs, "hashlib", type("Hashlib", (), {"sha256": sha256}))
        for module in (repro.harness.report, repro.harness.cache):
            monkeypatch.setattr(module, "outcome_set_digest", counting("digest", digest))

        async def scenario():
            service = make_service()
            await service.start()
            try:
                payload = {"test": "MP", "arch": "riscv", "models": ["promising", "axiomatic"]}
                status, cold = await explore_json(service, payload)
                assert status == 200
                assert [row["served_from"] for row in cold["results"]] == ["computed"] * 2
                assert counts == {"normalize": 1, "sha256": 2, "digest": 2}
                counts.clear()
                for _ in range(3):
                    status, warm = await explore_json(service, payload)
                    assert [row["served_from"] for row in warm["results"]] == ["lru"] * 2
                    assert answer_content(warm) == answer_content(cold)
                assert counts == {}
            finally:
                await service.stop()

        run_async(scenario())

    def test_refused_requests_are_never_memoised(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                refused = (
                    {"test": "definitely-not-a-test"},
                    {"test": "SB", "options": {"loop_bound": 99}},
                    {"test": "SB", "models": ["quantum"]},
                    {"test": "SB", "source": MP_SOURCE},
                )
                for payload in refused:
                    for attempt in range(2):
                        status, _ = await explore_json(service, payload)
                        assert status == 400, (payload, attempt)
                assert service.stats.bad_requests == 2 * len(refused)
                assert len(service._requests) == 0
                # A list of models is memoised; a Python caller's tuple is
                # still refused, since only a JSON body keys the memo.
                listed = {"test": "SB", "models": ["axiomatic"]}
                status, _ = await explore_json(service, listed)
                assert status == 200 and len(service._requests) == 1
                tupled = {"test": "SB", "models": ("axiomatic",)}
                for _ in range(2):
                    status, _ = await service.handle_explore(tupled)
                    assert status == 400
                assert service.stats.bad_requests == 2 * len(refused) + 2
            finally:
                await service.stop()

        run_async(scenario())

    def test_sources_and_long_bodies_are_never_memoised(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                padded = {"test": "SB", "models": ["axiomatic"], "note": "x" * MEMO_MAX_BODY_BYTES}
                for payload in ({"source": MP_SOURCE, "models": ["axiomatic"]}, padded):
                    for _ in range(2):
                        status, response = await explore_json(service, payload)
                        assert status == 200 and response["ok"]
                assert len(service._requests) == 0
                memo = service.stats_snapshot()["request_memo"]
                # The padded body is never looked up; the source is, and misses.
                assert (memo["hits"], memo["misses"]) == (0, 2)
            finally:
                await service.stop()

        run_async(scenario())

    def test_memo_is_bounded_and_evicts_least_recently_used(self):
        async def scenario():
            service = make_service(lru_capacity=2)
            await service.start()
            try:
                names = ("SB", "MP", "SB", "LB", "MP", "2+2W")
                for name in names:
                    status, _ = await explore_json(service, {"test": name, "models": ["axiomatic"]})
                    assert status == 200
                    assert len(service._requests) <= 2
                # SB was refreshed before LB arrived, so MP went first; then
                # MP's return pushed out SB, and 2+2W pushed out LB.
                assert [json.loads(body)["test"] for body in service._requests] == ["MP", "2+2W"]
                memo = service.stats_snapshot()["request_memo"]
                assert memo == {"size": 2, "capacity": 2, "hits": 1, "misses": 5}
            finally:
                await service.stop()

        run_async(scenario())

    def test_admission_charges_memoised_requests(self):
        async def scenario():
            service = make_service(quota_tokens=2, quota_refill_per_second=0.001)
            await service.start()
            try:
                payload = {"test": "SB", "models": ["axiomatic"]}
                answers = [await explore_json(service, payload, client_id="c") for _ in range(3)]
                assert [status for status, _ in answers] == [200, 200, 429]
                assert service.stats.memo_hits == 2
                assert (service.stats.requests, service.stats.quota_rejections) == (2, 1)
            finally:
                await service.stop()

        run_async(scenario())


class TestAdmissionControl:
    def test_queue_depth_gate_is_429_with_retry_after(self):
        async def scenario():
            # One job already pending (held in flight) fills the whole
            # admission budget; the next request bounces.
            service = make_service(max_pending_jobs=1)
            release = hold_compute(service)
            await service.start()
            try:
                pending = asyncio.create_task(service.handle_explore({"test": "SB"}))
                await asyncio.sleep(0.05)
                status, response = await service.handle_explore({"test": "MP"})
                assert status == 429 and not response["ok"]
                assert response["retry_after"] == pytest.approx(ADMISSION_RETRY_AFTER)
                assert service.stats.admission_rejections == 1
                await service.stop()
                await asyncio.wait_for(pending, timeout=5.0)
            finally:
                release.set()

        run_async(scenario())

    def test_each_pending_job_counts_once(self):
        async def scenario():
            # Three pending jobs (one running, two waiting for the single
            # slot) leave room for a fourth under a budget of four.
            service = make_service(max_pending_jobs=4)
            release = hold_compute(service)
            await service.start()
            try:
                requests = []
                for name in ("SB", "MP", "LB", "2+2W"):
                    requests.append(asyncio.create_task(service.handle_explore({"test": name})))
                    await asyncio.sleep(0.02)
                assert service.stats.admission_rejections == 0
                snapshot = service.stats_snapshot()
                assert (snapshot["inflight"], snapshot["queue_depth"]) == (4, 3)
                release.set()
                responses = await asyncio.wait_for(asyncio.gather(*requests), timeout=30)
                assert [status for status, _ in responses] == [200] * 4
                assert service.stats_snapshot()["queue_depth"] == 0
            finally:
                release.set()
                await service.stop()

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
            service = make_service()
            await service.start()
            _, warm = await service.handle_explore({"test": "SB"})
            assert warm["ok"]
            release = hold_compute(service)
            try:
                # In-flight work admitted before the drain began must finish.
                inflight = asyncio.create_task(service.handle_explore({"test": "MP"}))
                await asyncio.sleep(0.01)
                service.begin_drain()
                # New cold work is turned away with an explicit come-back-later.
                status, rejected = await service.handle_explore({"test": "LB"})
                assert status == 503 and not rejected["ok"]
                assert rejected["retry_after"] == pytest.approx(DRAIN_RETRY_AFTER)
                assert service.stats.drain_rejections == 1
                # Cache hits still answer during the drain.
                status, cached = await service.handle_explore({"test": "SB"})
                assert status == 200
                assert cached["results"][0]["served_from"] == "lru"
            finally:
                release.set()
            status, finished = await asyncio.wait_for(inflight, timeout=10.0)
            assert status == 200 and finished["ok"]
            assert await service.drain(timeout=10.0)
            assert service.healthz()["status"] == "draining"
            await service.stop()

        run_async(scenario())

    def test_drain_times_out_rather_than_hanging(self):
        async def scenario():
            # A held computation outlives the drain's deadline; drain must
            # give up at that deadline, not wait the computation out.
            service = make_service()
            release = hold_compute(service)
            await service.start()
            try:
                pending = asyncio.create_task(service.handle_explore({"test": "SB"}))
                await asyncio.sleep(0.05)
                service.begin_drain()
                assert not await service.drain(timeout=0.2)
                await service.stop()
                await asyncio.wait_for(pending, timeout=5.0)
            finally:
                release.set()

        run_async(scenario())


class TestFailurePaths:
    def test_exploration_error_is_an_error_row_and_counted(self, monkeypatch):
        import repro.flat.explorer as flat_explorer

        def exploding(program, config):
            raise RuntimeError("synthetic exploration failure")

        # execute_job imports explore_flat from its module when a Flat job runs.
        monkeypatch.setattr(flat_explorer, "explore_flat", exploding)

        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, response = await service.handle_explore({"test": "SB", "models": ["flat"]})
                assert status == 200 and not response["ok"]
                row = response["results"][0]
                assert row["status"] == "error"
                assert "synthetic exploration failure" in row["error"]
                errors = service.stats_snapshot()["errors"]
                assert errors == {"jobs": 1, "timeouts": 0, "batches": 0, "total": 1}
            finally:
                await service.stop()

        run_async(scenario())

    def test_pool_timeout_is_a_timeout_row_and_counted(self):
        # The deadline must fire before the job ends: W3_SOURCE under
        # promising-naive takes about 700 ms in process, 7,000 times the
        # 0.1 ms deadline.  The alarm stops it there, so the test stays fast.
        async def scenario():
            service = make_service(workers=2)
            await service.start()
            try:
                status, response = await service.handle_explore(
                    {
                        "source": W3_SOURCE,
                        "models": ["promising-naive"],
                        "options": {"timeout": 0.0001},
                    }
                )
                assert status == 200 and not response["ok"]
                assert response["results"][0]["status"] == "timeout"
                errors = service.stats_snapshot()["errors"]
                assert errors == {"jobs": 0, "timeouts": 1, "batches": 0, "total": 1}
            finally:
                await service.stop()

        run_async(scenario())

    def test_execute_failure_is_a_500_and_the_service_keeps_serving(self):
        async def scenario():
            service = make_service()
            execute = service._execute

            def broken(job, timeout):
                service._execute = execute
                raise RuntimeError("synthetic pool breakage")

            service._execute = broken
            await service.start()
            try:
                status, response = await service.handle_explore({"test": "SB"})
                assert status == 500 and not response["ok"]
                assert "synthetic pool breakage" in response["error"]
                errors = service.stats_snapshot()["errors"]
                assert errors == {"jobs": 0, "timeouts": 0, "batches": 1, "total": 1}
                assert service.stats_snapshot()["inflight"] == 0
                status, response = await service.handle_explore({"test": "SB"})
                assert status == 200 and response["ok"]
                assert response["results"][0]["served_from"] == "computed"
            finally:
                await service.stop()

        run_async(scenario())


class TestQueueMount:
    def test_default_mount_is_a_private_sqlite_ledger(self):
        # With neither queue_backend nor queue_url, the server mounts a
        # SQLite ledger in a temporary directory of its own, serves the
        # queue protocol from it, and stop() removes the directory.
        from repro.distrib import HttpWorkBackend, SqliteBackend

        def round_trip(host, port):
            with ServiceClient(host, port) as client:
                assert client.queue_op("info", {})["info"]["backend"] == "SqliteBackend"
                backend = HttpWorkBackend(f"http://{host}:{port}", client=client)
                assert backend.enqueue("item", b"payload")
                claim = backend.claim("w1", 30)
                assert claim.payload == b"payload"
                assert backend.complete("item", "w1", claim.token, b"result")
                view = backend.collect(["item"])["item"]
                assert (view.status, view.result) == ("done", b"result")

        async def scenario():
            server = ServiceServer(make_service(), "127.0.0.1", 0)
            assert isinstance(server.queue_backend, SqliteBackend)
            directory = server.queue_backend.path.parent
            host, port = await server.start()
            try:
                assert directory.is_dir()
                await asyncio.get_running_loop().run_in_executor(None, round_trip, host, port)
            finally:
                await server.stop()
            assert not directory.exists()

        run_async(scenario())


def _child_pids(pid: int) -> list[int]:
    """The pids whose parent is ``pid``, read from ``/proc``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            # The fields after the parenthesised command: state, ppid, ...
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == pid:
                children.append(int(stat.parent.name))
    return children


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
class TestServeProcess:
    def test_sigterm_drains_and_stops_like_shutdown(self, tmp_path):
        # kill, docker stop and systemd send SIGTERM: serve must exit 0
        # through its shutdown path, reaping its pool workers and removing
        # its private queue directory.
        env = dict(os.environ, TMPDIR=str(tmp_path))
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        children: list[int] = []
        try:
            line = proc.stdout.readline()
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
                client.wait_until_ready(30)
                assert client.explore(test="MP", models=["promising"])["ok"]
            children = _child_pids(proc.pid)
            assert len(children) == 2, children
            assert list(tmp_path.glob("promising-queue-*"))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
            orphans = [pid for pid in children if _pid_alive(pid)]
            for pid in orphans:
                os.kill(pid, signal.SIGKILL)
        assert orphans == []
        assert list(tmp_path.glob("promising-queue-*")) == []


class TestCatalogueLookup:
    # The service looks a test up on every request naming one.
    def test_get_test_answers_one_shared_test(self):
        assert get_test("MP") is get_test("MP")

    def test_emptying_the_all_tests_list_changes_no_lookup(self):
        from repro.litmus import all_tests

        mp = get_test("MP")
        tests = all_tests()
        count = len(tests)
        tests.clear()
        assert get_test("MP") is mp
        assert len(all_tests()) == count


@pytest.fixture(scope="module")
def live_service():
    """A real server on an ephemeral port, driven through the client."""
    ready: "queue.Queue[tuple[str, int]]" = queue.Queue()
    config = ServiceConfig(workers=1, lru_capacity=64)
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

    def test_repeat_is_a_memo_hit(self, live_service):
        before = live_service.stats()["request_memo"]
        first = live_service.explore(test="2+2W", arch="riscv", models=["flat"])
        second = live_service.explore(test="2+2W", arch="riscv", models=["flat"])
        after = live_service.stats()["request_memo"]
        assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (1, 1)
        assert answer_content(second) == answer_content(first)

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

    def test_unencodable_retry_after_is_a_500_not_a_hang(self):
        # Retry-After used to be computed after _process's try block, so a
        # NaN raised there and left the ordered response slot empty.
        import socket

        service = make_service()

        async def nan_retry(payload, client_id=None):
            return 429, {"ok": False, "error": "slow down", "retry_after": float("nan")}

        service.handle_explore = nan_retry

        def round_trip(host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                http = _RawHttp(sock)
                sock.sendall(b"POST /v1/explore HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
                status, headers, _body = http.read_response()
                assert status == 500 and "retry-after" not in headers
                # The connection stays usable.
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                assert http.read_response()[0] == 200

        async def scenario():
            server = ServiceServer(service, "127.0.0.1", 0)
            host, port = await server.start()
            try:
                await asyncio.get_running_loop().run_in_executor(None, round_trip, host, port)
            finally:
                await server.stop()

        run_async(scenario())

    def test_pipeline_longer_than_any_inflight_cap(self, live_service):
        # 40 requests on the wire at once (the old per-connection cap was
        # 32): every one is answered, in order, and the socket stays open.
        import socket

        wire = b"".join(
            b"GET /v1/healthz HTTP/1.1\r\nX-Request-Id: deep-%d\r\n\r\n" % index
            for index in range(40)
        )
        with socket.create_connection((live_service.host, live_service.port), timeout=30) as sock:
            http = _RawHttp(sock)
            sock.sendall(wire)
            for index in range(40):
                status, headers, _body = http.read_response()
                assert status == 200
                assert headers["x-request-id"] == f"deep-{index}"
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            status, headers, _body = http.read_response()
            assert status == 200 and headers["connection"] == "keep-alive"

    @pytest.mark.parametrize("where", ["request-line", "header-line", "capped-request-line"])
    def test_oversized_line_is_a_431(self, live_service, where):
        # Beyond the stream's 64 KiB line limit readline raises ValueError;
        # it used to escape the handler and drop the connection unanswered.
        # A request line under that limit counts against MAX_HEADER_BYTES
        # on its own, with no header line after it.
        import socket

        big = b"a" * 70_000
        if where == "request-line":
            wire = b"GET /v1/" + big + b" HTTP/1.1\r\n\r\n"
        elif where == "header-line":
            wire = b"GET /v1/healthz HTTP/1.1\r\nX-Padding: " + big + b"\r\n\r\n"
        else:
            frame = b"GET /v1/healthz? HTTP/1.1\r\n"
            line = frame.replace(b"?", b"?" + b"a" * (20_000 - len(frame)))
            assert len(line) == 20_000
            wire = line + b"\r\n"
        address = (live_service.host, live_service.port)
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(wire)
            status, headers, _body = _RawHttp(sock).read_response()
            assert status == 431
            assert headers["connection"] == "close"
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            assert _RawHttp(sock).read_response()[0] == 200

    def test_client_gone_before_its_answer(self):
        # The client sends an explore and hangs up without reading; the job
        # is held until then, so the answer goes to a closed socket.  The
        # server keeps serving, and stops within its drain bound.
        import socket

        service = make_service()
        release = hold_compute(service)
        body = b'{"test": "SB"}'
        explore = b"POST /v1/explore HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body

        def hang_up_then_probe(host, port):
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(explore)
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                return _RawHttp(sock).read_response()[0]

        async def scenario():
            server = ServiceServer(service, "127.0.0.1", 0)
            host, port = await server.start()
            try:
                status = await asyncio.get_running_loop().run_in_executor(
                    None, hang_up_then_probe, host, port
                )
            finally:
                release.set()
                started = time.monotonic()
                await server.stop()
                stopped_in = time.monotonic() - started
            return status, stopped_in

        status, stopped_in = run_async(scenario())
        assert status == 200
        assert stopped_in < DRAIN_TIMEOUT

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
    assert not thread.is_alive(), "server thread ignored shutdown"


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
