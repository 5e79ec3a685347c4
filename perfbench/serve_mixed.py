"""serve-mixed: a closed loop of ``/v1/explore`` calls against a live server.

Each pass starts one ``python -m repro.tools serve --port 0 --cache-dir
<fresh dir>`` with defaults otherwise, waits for ``/v1/healthz`` (that wait
is set-up), then one client sends ``REQUESTS_PER_KEY`` requests per
catalogue (test, architecture, model) over one keep-alive connection,
each after the previous reply.  Every key is asked for once first-seen
(dispatch, pool compute, LRU and disk writes) and the other requests
repeat an earlier key (LRU reads), so a fifth of the requests are cold;
the seed draws the order and the repeats, and every seed computes the
same cold jobs.  Every
reply's verdict and outcome digest are checked against the frozen
references.  The traced pass also reads ``/v1/stats`` and ``/v1/metrics``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time

from common import CHILD_TIMEOUT_S, ROOT, TMP, child_env, outcome_digest, percentile

REQUESTS_PER_KEY = 5
#: Spawn-until-healthy probes per run, besides the one of each pass.
SETUP_PROBES = 3
READY_TIMEOUT_S = 60.0

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


def draw(seed: int, refs: dict) -> list[str]:
    """The request sequence: ``test|arch|model`` keys, first one cold."""
    rng = random.Random(seed)
    fresh = sorted(refs)
    rng.shuffle(fresh)
    n_requests = REQUESTS_PER_KEY * len(fresh)
    cold_at = {0, *rng.sample(range(1, n_requests), len(fresh) - 1)}
    seen: list[str] = []
    sequence = []
    for index in range(n_requests):
        if index in cold_at:
            seen.append(fresh[len(seen)])
            sequence.append(seen[-1])
        else:
            sequence.append(rng.choice(seen))
    return sequence


class Server:
    """One ``serve`` subprocess with a private cache directory."""

    def __init__(self, tag: str) -> None:
        self.cache_dir = TMP / f"serve-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self._log = open(self.cache_dir.with_suffix(".log"), "wb")
        self.conn: http.client.HTTPConnection | None = None
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve", "--port", "0",
             "--cache-dir", str(self.cache_dir)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.host, self.port = self._await_port(start + READY_TIMEOUT_S)
            self.conn = self._connect()
            self._await_healthy(start + READY_TIMEOUT_S)
        except BaseException:
            self.close()
            raise
        end = time.monotonic()
        self.setup = (end - start, start, end)

    def _await_port(self, deadline: float) -> tuple[str, int]:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            chunk = self.proc.stdout.read1(4096) if ready else b""
            if not chunk:
                raise RuntimeError("server exited or never printed its address")
            line += chunk
        match = _LISTENING.search(line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return match.group(1).decode(), int(match.group(2))

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=CHILD_TIMEOUT_S)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _await_healthy(self, deadline: float) -> None:
        while True:
            status, body = self.request("GET", "/v1/healthz")
            if status == 200 and json.loads(body).get("status") == "ok":
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not healthy: {status} {body[:200]!r}")
            time.sleep(0.01)

    def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        """Drain and stop the server, reap it, remove its cache directory."""
        if self.proc.poll() is None:
            if self.conn is not None:
                try:
                    self.request("POST", "/v1/shutdown")
                except (OSError, http.client.HTTPException):
                    pass  # the server dropped the connection while stopping
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.conn is not None:
            self.conn.close()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.with_suffix(".log").unlink(missing_ok=True)


def _row_ok(status: int, body: bytes, ref: dict) -> tuple[bool, dict]:
    if status != 200:
        return False, {}
    data = json.loads(body)
    rows = data.get("results") or [{}]
    row = rows[0]
    ok = (
        data.get("ok") is True
        and len(rows) == 1
        and row.get("status") == "ok"
        and not row.get("truncated")
        and row.get("verdict") == ref["verdict"]
        and outcome_digest(row.get("outcomes") or []) == ref["digest"]
    )
    return ok, row


def _prometheus_value(text: str, name: str, **labels: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(name + "{"):
            continue
        series, _, value = line.rpartition(" ")
        found = dict(re.findall(r'(\w+)="([^"]*)"', series))
        if all(found.get(k) == v for k, v in labels.items()):
            total += float(value)
    return total


def run_pass(sequence: list[str], refs: dict, tag: str, *, traced: bool = False) -> dict:
    server = Server(tag)
    try:
        timings, cold_ms, warm_ms, queue_ms, compute_ms, failures = [], [], [], [], [], []
        start = time.monotonic()
        for key in sequence:
            test, arch, model = key.split("|")
            sent = time.monotonic()
            status, body = server.request(
                "POST", "/v1/explore", {"test": test, "arch": arch, "models": [model]}
            )
            received = time.monotonic()
            elapsed_ms = (received - sent) * 1000.0
            ok, row = _row_ok(status, body, refs[key])
            if not ok:
                failures.append(f"{key}: HTTP {status}")
                timings.append((received - sent, sent, received, 0.0))
                continue
            # Time a job waited in the server's queues (the batching delay,
            # mostly) is idle, not work: it is reported but never rescaled.
            waited_ms = row["cost"]["queue_ms"]
            timings.append((received - sent, sent, received, waited_ms / 1000.0))
            if row.get("served_from") == "lru":
                warm_ms.append(elapsed_ms)
            else:
                cold_ms.append(elapsed_ms)
                queue_ms.append(waited_ms)
                compute_ms.append(row["cost"]["compute_ms"])
        end = time.monotonic()
        layers = {}
        if traced:
            _, stats_body = server.request("GET", "/v1/stats")
            _, metrics_body = server.request("GET", "/v1/metrics")
            stats, metrics_text = json.loads(stats_body), metrics_body.decode()
            http_stats = stats["http"]
            layers = {
                "cache.lru_hits": stats["served"]["lru"],
                "cache.disk_stores": _prometheus_value(
                    metrics_text, "cache_stores_total", layer="disk", outcome="stored"
                ),
                "service.computed": stats["served"]["computed"],
                "service.coalesced": stats["served"]["coalesced"],
                "service.queue_ms_p50": statistics.median(queue_ms) if queue_ms else 0.0,
                "service.compute_ms_p50": statistics.median(compute_ms) if compute_ms else 0.0,
                "http.requests_per_connection": http_stats["requests"] / max(1, http_stats["connections"]),
                "pool.batch_size_mean": stats["batches"]["mean_size"],
                "serve.cold_req_p50_ms": statistics.median(cold_ms) if cold_ms else 0.0,
                "serve.warm_req_p50_ms": statistics.median(warm_ms) if warm_ms else 0.0,
                "serve.req_p99_ms": percentile((t[0] * 1000.0 for t in timings), 99),
            }
    finally:
        server.close()
    for line in failures[:5]:
        print(f"serve-mixed mismatch: {line}", file=sys.stderr)
    return {
        "setup": server.setup,
        "pass": (end - start, start, end),
        "ops": timings,
        "attempted": len(sequence),
        "failed": len(failures),
        "layers": layers,
    }


def measure(seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    catalogue = refs["catalogue"]
    sequence = draw(seed, catalogue)
    tag = f"{os.getpid()}-{seed}"
    if trace:
        plain = run_pass(sequence, catalogue, tag + "-plain")
        traced = run_pass(sequence, catalogue, tag + "-traced", traced=True)
        passes = [plain, traced]
        result = {"layers": traced["layers"]}
    else:
        setups = []
        for index in range(SETUP_PROBES):
            server = Server(f"{tag}-setup{index}")
            server.close()
            setups.append(server.setup)
        passes = []
        start = time.monotonic()
        while not passes or (
            time.monotonic() - start
            + statistics.median(p["pass"][0] + p["setup"][0] for p in passes)
            <= seconds
        ):
            passes.append(run_pass(sequence, catalogue, f"{tag}-{len(passes)}"))
        result = {
            "setup": setups + [p["setup"] for p in passes],
            "ops": [p["ops"] for p in passes],
        }
    result["passes"] = [p["pass"] for p in passes]
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["correct"] = result["failed"] == 0
    return result
