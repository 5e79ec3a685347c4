"""The leased work queue over HTTP: one protocol, both ends of the wire.

Fleets coordinate through a :class:`~repro.distrib.backend.WorkBackend`
ledger; on its own that is a SQLite file, so every member needs the
same filesystem.  This module lifts the same protocol onto the service's
versioned HTTP surface:

* :class:`QueueHttpApi` — the server-side adapter.  The service mounts it
  at ``/v1/queue/<op>``; each op is a small JSON body delegated to the
  SQLite ledger living inside the server process.
* :class:`HttpWorkBackend` — the client side.  A drop-in
  :class:`~repro.distrib.backend.WorkBackend` whose every method is one
  ``POST`` over the pooled keep-alive :class:`~repro.service.client.ServiceClient`,
  so ``promising-arm work --backend-url http://host:port`` joins a fleet
  with no shared filesystem at all.

The fencing-token laws survive the wire untouched because the ledger
itself never leaves the server: claim tokens are minted there, and a
zombie's stale ``complete`` is refused by the same atomic check that
refuses it in process.  Payload and result bytes ride base64 inside the
JSON bodies (litmus job pickles are a few KB, far under the server's
body cap).
"""

from __future__ import annotations

import base64
import urllib.parse
from typing import Iterable, Mapping, Optional

from ..obs import metrics
from .backend import Claim, ItemView, WorkBackend, WorkerInfo

QUEUE_HTTP_OPS = metrics.counter(
    "service_queue_ops_total",
    "Work-queue operations served over HTTP, by op and outcome.",
    labels=("op", "outcome"),
)

#: Every op of the WorkBackend protocol, as mounted under ``/v1/queue/``.
QUEUE_OPS = (
    "info",
    "enqueue",
    "claim",
    "extend",
    "complete",
    "fail",
    "requeue_expired",
    "counts",
    "collect",
    "register_worker",
    "heartbeat",
    "workers",
)


def _b64encode(data: bytes) -> str:
    return base64.b64encode(bytes(data)).decode("ascii")


def _b64decode(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


_MISSING = object()


def _field(payload: dict, key: str, kinds, *, default=_MISSING):
    value = payload.get(key, default)
    if value is _MISSING:
        raise ValueError(f"missing field {key!r}")
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"field {key!r} has the wrong type")
    return value


class QueueHttpApi:
    """Server-side adapter: ``/v1/queue/<op>`` JSON bodies → a delegate ledger.

    Transport-agnostic on purpose (dict in, ``(status, dict)`` out) so the
    HTTP layer stays a router and the op vocabulary is testable directly.
    """

    def __init__(self, backend: WorkBackend) -> None:
        self.backend = backend

    def handle(self, op: str, payload: object) -> tuple[int, dict]:
        if op not in QUEUE_OPS:
            return 404, {"ok": False, "error": f"no such queue op {op!r}"}
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            QUEUE_HTTP_OPS.inc(op=op, outcome="bad_request")
            return 400, {"ok": False, "error": "queue request body must be a JSON object"}
        try:
            outcome, body = getattr(self, f"_op_{op}")(payload)
        except (ValueError, TypeError) as exc:
            QUEUE_HTTP_OPS.inc(op=op, outcome="bad_request")
            return 400, {"ok": False, "error": f"bad queue request: {exc}"}
        QUEUE_HTTP_OPS.inc(op=op, outcome=outcome)
        body["ok"] = True
        return 200, body

    # -- ops -----------------------------------------------------------------
    def _op_info(self, p: dict) -> tuple[str, dict]:
        return "applied", {
            "info": {
                "backend": type(self.backend).__name__,
                "max_attempts": self.backend.max_attempts,
            }
        }

    def _op_enqueue(self, p: dict) -> tuple[str, dict]:
        enqueued = self.backend.enqueue(
            _field(p, "item_id", str), _b64decode(_field(p, "payload", str))
        )
        return ("applied" if enqueued else "refused"), {"enqueued": enqueued}

    def _op_claim(self, p: dict) -> tuple[str, dict]:
        claim = self.backend.claim(
            _field(p, "worker_id", str), float(_field(p, "lease_seconds", (int, float)))
        )
        if claim is None:
            return "empty", {"claim": None}
        return "granted", {
            "claim": {
                "item_id": claim.item_id,
                "payload": _b64encode(claim.payload),
                "token": claim.token,
                "attempts": claim.attempts,
                "enqueued_at": claim.enqueued_at,
            }
        }

    def _op_extend(self, p: dict) -> tuple[str, dict]:
        extended = self.backend.extend(
            _field(p, "item_id", str),
            _field(p, "worker_id", str),
            _field(p, "token", int),
            float(_field(p, "lease_seconds", (int, float))),
        )
        return ("applied" if extended else "refused"), {"extended": extended}

    def _op_complete(self, p: dict) -> tuple[str, dict]:
        completed = self.backend.complete(
            _field(p, "item_id", str),
            _field(p, "worker_id", str),
            _field(p, "token", int),
            _b64decode(_field(p, "result", str)),
            mode=_field(p, "mode", str, default="computed"),
        )
        return ("applied" if completed else "refused"), {"completed": completed}

    def _op_fail(self, p: dict) -> tuple[str, dict]:
        requeue = p.get("requeue", True)
        if not isinstance(requeue, bool):
            raise ValueError("field 'requeue' must be a boolean")
        failed = self.backend.fail(
            _field(p, "item_id", str),
            _field(p, "worker_id", str),
            _field(p, "token", int),
            _field(p, "error", str, default=""),
            requeue=requeue,
        )
        return ("applied" if failed else "refused"), {"failed": failed}

    def _op_requeue_expired(self, p: dict) -> tuple[str, dict]:
        return "applied", {"reclaimed": self.backend.requeue_expired()}

    def _op_counts(self, p: dict) -> tuple[str, dict]:
        return "applied", {"counts": self.backend.counts()}

    def _op_collect(self, p: dict) -> tuple[str, dict]:
        item_ids = _field(p, "item_ids", list)
        if not all(isinstance(item_id, str) for item_id in item_ids):
            raise ValueError("field 'item_ids' must be a list of strings")
        views = self.backend.collect(item_ids)
        return "applied", {
            "items": {
                item_id: {
                    "status": view.status,
                    "worker": view.worker,
                    "attempts": view.attempts,
                    "result": None if view.result is None else _b64encode(view.result),
                    "error": view.error,
                    "served_from": view.served_from,
                }
                for item_id, view in views.items()
            }
        }

    def _op_register_worker(self, p: dict) -> tuple[str, dict]:
        meta = p.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ValueError("field 'meta' must be an object")
        self.backend.register_worker(_field(p, "worker_id", str), meta=meta)
        return "applied", {}

    def _op_heartbeat(self, p: dict) -> tuple[str, dict]:
        self.backend.heartbeat(_field(p, "worker_id", str))
        return "applied", {}

    def _op_workers(self, p: dict) -> tuple[str, dict]:
        return "applied", {
            "workers": [
                {
                    "worker_id": info.worker_id,
                    "registered_at": info.registered_at,
                    "heartbeat_at": info.heartbeat_at,
                    "jobs_done": info.jobs_done,
                    "meta": dict(info.meta),
                }
                for info in self.backend.workers()
            ]
        }


class HttpWorkBackend:
    """A :class:`WorkBackend` whose ledger lives behind ``http://host:port``.

    Safe to share between a worker's main thread and its lease-keeper
    heartbeat thread: the underlying client pools one keep-alive
    connection per concurrent caller.  The constructor does not connect —
    the first op does — so ``open_backend`` stays cheap and a coordinator
    can build the URL before the server is even up.
    """

    def __init__(self, url: str, *, timeout: float = 60.0, client=None) -> None:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"HttpWorkBackend needs an http://host:port url, got {url!r}")
        self.url = url
        if client is None:
            from ..service.client import ServiceClient

            client = ServiceClient(parts.hostname, parts.port or 8765, timeout=timeout)
        self._client = client
        self._max_attempts: Optional[int] = None

    def _op(self, op: str, payload: dict) -> dict:
        return self._client.queue_op(op, payload)

    @property
    def max_attempts(self) -> int:
        """The server-side ledger's retry budget (fetched once, cached)."""
        if self._max_attempts is None:
            self._max_attempts = int(self._op("info", {})["info"]["max_attempts"])
        return self._max_attempts

    # -- queue ---------------------------------------------------------------
    def enqueue(self, item_id: str, payload: bytes) -> bool:
        return bool(
            self._op("enqueue", {"item_id": item_id, "payload": _b64encode(payload)})[
                "enqueued"
            ]
        )

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Claim]:
        granted = self._op(
            "claim", {"worker_id": worker_id, "lease_seconds": lease_seconds}
        )["claim"]
        if granted is None:
            return None
        return Claim(
            item_id=granted["item_id"],
            payload=_b64decode(granted["payload"]),
            token=int(granted["token"]),
            attempts=int(granted["attempts"]),
            enqueued_at=float(granted["enqueued_at"]),
        )

    def extend(self, item_id: str, worker_id: str, token: int, lease_seconds: float) -> bool:
        return bool(
            self._op(
                "extend",
                {
                    "item_id": item_id,
                    "worker_id": worker_id,
                    "token": token,
                    "lease_seconds": lease_seconds,
                },
            )["extended"]
        )

    def complete(
        self, item_id: str, worker_id: str, token: int, result: bytes, *, mode: str = "computed"
    ) -> bool:
        return bool(
            self._op(
                "complete",
                {
                    "item_id": item_id,
                    "worker_id": worker_id,
                    "token": token,
                    "result": _b64encode(result),
                    "mode": mode,
                },
            )["completed"]
        )

    def fail(
        self, item_id: str, worker_id: str, token: int, error: str, *, requeue: bool = True
    ) -> bool:
        return bool(
            self._op(
                "fail",
                {
                    "item_id": item_id,
                    "worker_id": worker_id,
                    "token": token,
                    "error": error,
                    "requeue": requeue,
                },
            )["failed"]
        )

    def requeue_expired(self) -> list[str]:
        return list(self._op("requeue_expired", {})["reclaimed"])

    # -- introspection -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        return {status: int(n) for status, n in self._op("counts", {})["counts"].items()}

    def collect(self, item_ids: Iterable[str]) -> dict[str, ItemView]:
        items = self._op("collect", {"item_ids": list(item_ids)})["items"]
        return {
            item_id: ItemView(
                item_id=item_id,
                status=row["status"],
                worker=row["worker"],
                attempts=int(row["attempts"]),
                result=None if row["result"] is None else _b64decode(row["result"]),
                error=row["error"],
                served_from=row.get("served_from", ""),
            )
            for item_id, row in items.items()
        }

    # -- workers -------------------------------------------------------------
    def register_worker(self, worker_id: str, meta: Optional[Mapping] = None) -> None:
        self._op(
            "register_worker",
            {"worker_id": worker_id, "meta": None if meta is None else dict(meta)},
        )

    def heartbeat(self, worker_id: str) -> None:
        self._op("heartbeat", {"worker_id": worker_id})

    def workers(self) -> list[WorkerInfo]:
        return [
            WorkerInfo(
                worker_id=row["worker_id"],
                registered_at=float(row["registered_at"]),
                heartbeat_at=float(row["heartbeat_at"]),
                jobs_done=int(row["jobs_done"]),
                meta=dict(row.get("meta") or {}),
            )
            for row in self._op("workers", {})["workers"]
        ]

    def close(self) -> None:
        self._client.close()


__all__ = ["HttpWorkBackend", "QueueHttpApi", "QUEUE_OPS"]
