"""SQLite implementation of the leased work queue.

One database file is the whole deployment: every worker and the
coordinator open it independently (different processes, or different
machines over a shared filesystem), and WAL journaling plus
``BEGIN IMMEDIATE`` transactions make each claim/extend/complete an
atomic compare-and-set against the ledger.  SQLite's single-writer lock
serialises claims, which is exactly the arbitration a work queue needs —
and at whole-litmus-job granularity (milliseconds to minutes of compute
per claim) the write lock is never the bottleneck.

Connections are per-thread (``sqlite3`` objects must not cross threads),
so a worker's heartbeat thread gets its own handle transparently.

:meth:`SqliteBackend.temporary` makes a private ledger in a fresh
temporary directory, which :meth:`SqliteBackend.close` removes: the
service's default ``/v1/queue`` mount.
"""

from __future__ import annotations

import json
import math
import shutil
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from contextlib import contextmanager

from .backend import (
    DEFAULT_MAX_ATTEMPTS,
    ITEM_STATUSES,
    QUEUE_CLAIMS,
    QUEUE_COMPLETED,
    QUEUE_ENQUEUED,
    QUEUE_FAILED,
    QUEUE_RECLAIMS,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_LEASED,
    STATUS_PENDING,
    Claim,
    ItemView,
    WorkerInfo,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS items (
    seq           INTEGER PRIMARY KEY AUTOINCREMENT,
    item_id       TEXT UNIQUE NOT NULL,
    payload       BLOB NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    worker        TEXT,
    token         INTEGER NOT NULL DEFAULT 0,
    attempts      INTEGER NOT NULL DEFAULT 0,
    enqueued_at   REAL NOT NULL,
    lease_expires REAL,
    completed_at  REAL,
    result        BLOB,
    error         TEXT NOT NULL DEFAULT '',
    served_from   TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_items_status ON items (status, seq);
CREATE TABLE IF NOT EXISTS workers (
    worker_id     TEXT PRIMARY KEY,
    meta          TEXT NOT NULL DEFAULT '{}',
    registered_at REAL NOT NULL,
    heartbeat_at  REAL NOT NULL,
    jobs_done     INTEGER NOT NULL DEFAULT 0
);
"""

#: SQLite busy timeout: how long a connection waits out another
#: writer's lock before failing.
BUSY_TIMEOUT_SECONDS = 30.0


def _check_lease(lease_seconds: float) -> None:
    # NaN and infinity would lease an item forever (no reclaim ever
    # fires); zero or less would hand it out already expired.
    if not (math.isfinite(lease_seconds) and lease_seconds > 0):
        raise ValueError(f"lease_seconds must be finite and positive, got {lease_seconds!r}")


class SqliteBackend:
    """Cross-process :class:`~repro.distrib.backend.WorkBackend` on one file."""

    def __init__(
        self,
        path: Union[str, Path],
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.path = Path(path)
        self.max_attempts = max_attempts
        self.clock = clock
        self._local = threading.local()
        #: A directory this ledger made for itself and removes on close().
        self._owned_dir: Optional[Path] = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn()  # create the schema eagerly so misconfiguration fails here

    @classmethod
    def temporary(cls) -> "SqliteBackend":
        """A private ledger in a fresh temporary directory; :meth:`close`
        removes the directory.  Processes share it by :attr:`path`."""
        directory = Path(tempfile.mkdtemp(prefix="promising-queue-"))
        try:
            backend = cls(directory / "queue.db")
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise
        backend._owned_dir = directory
        return backend

    # -- connection management ----------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                str(self.path), timeout=BUSY_TIMEOUT_SECONDS, isolation_level=None
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            try:
                conn.executescript(_SCHEMA)
            except sqlite3.OperationalError:
                # Another process creating the schema at the same instant;
                # IF NOT EXISTS makes any one winner sufficient.
                pass
            self._local.conn = conn
        return conn

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction: take the write lock up
        front so read-then-update sequences are atomic across claimants."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    # -- queue ---------------------------------------------------------------
    def enqueue(self, item_id: str, payload: bytes) -> bool:
        with self._tx() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO items (item_id, payload, status, enqueued_at) "
                "VALUES (?, ?, ?, ?)",
                (item_id, payload, STATUS_PENDING, self.clock()),
            )
            inserted = cursor.rowcount == 1
        if inserted:
            QUEUE_ENQUEUED.inc()
        return inserted

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Claim]:
        _check_lease(lease_seconds)
        with self._tx() as conn:
            row = conn.execute(
                "SELECT item_id, payload, token, attempts, enqueued_at FROM items "
                "WHERE status = ? ORDER BY seq LIMIT 1",
                (STATUS_PENDING,),
            ).fetchone()
            if row is None:
                return None
            item_id, payload, token, attempts, enqueued_at = row
            token += 1
            attempts += 1
            conn.execute(
                "UPDATE items SET status = ?, worker = ?, token = ?, attempts = ?, "
                "lease_expires = ? WHERE item_id = ?",
                (
                    STATUS_LEASED,
                    worker_id,
                    token,
                    attempts,
                    self.clock() + lease_seconds,
                    item_id,
                ),
            )
        QUEUE_CLAIMS.inc()
        return Claim(
            item_id=item_id,
            payload=payload,
            token=token,
            attempts=attempts,
            enqueued_at=enqueued_at,
        )

    _HELD = "item_id = ? AND status = 'leased' AND worker = ? AND token = ?"

    def extend(self, item_id: str, worker_id: str, token: int, lease_seconds: float) -> bool:
        _check_lease(lease_seconds)
        with self._tx() as conn:
            cursor = conn.execute(
                f"UPDATE items SET lease_expires = ? WHERE {self._HELD}",
                (self.clock() + lease_seconds, item_id, worker_id, token),
            )
            return cursor.rowcount == 1

    def complete(
        self, item_id: str, worker_id: str, token: int, result: bytes, *, mode: str = "computed"
    ) -> bool:
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE items SET status = ?, result = ?, served_from = ?, "
                f"completed_at = ?, lease_expires = NULL WHERE {self._HELD}",
                (STATUS_DONE, result, mode, self.clock(), item_id, worker_id, token),
            )
            completed = cursor.rowcount == 1
            if completed:
                conn.execute(
                    "UPDATE workers SET jobs_done = jobs_done + 1 WHERE worker_id = ?",
                    (worker_id,),
                )
        if completed:
            QUEUE_COMPLETED.inc(mode=mode)
        return completed

    def fail(
        self, item_id: str, worker_id: str, token: int, error: str, *, requeue: bool = True
    ) -> bool:
        failed_terminally = 0
        with self._tx() as conn:
            row = conn.execute(
                f"SELECT attempts FROM items WHERE {self._HELD}",
                (item_id, worker_id, token),
            ).fetchone()
            if row is None:
                return False
            if requeue and row[0] < self.max_attempts:
                conn.execute(
                    "UPDATE items SET status = ?, worker = NULL, lease_expires = NULL, "
                    "error = ? WHERE item_id = ?",
                    (STATUS_PENDING, error, item_id),
                )
            else:
                conn.execute(
                    "UPDATE items SET status = ?, lease_expires = NULL, error = ? "
                    "WHERE item_id = ?",
                    (STATUS_FAILED, error, item_id),
                )
                failed_terminally = 1
        if failed_terminally:
            QUEUE_FAILED.inc()
        return True

    def requeue_expired(self) -> list[str]:
        now = self.clock()
        reclaimed: list[str] = []
        failed = 0
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT item_id, worker, attempts FROM items "
                "WHERE status = ? AND lease_expires IS NOT NULL AND lease_expires < ? "
                "ORDER BY seq",
                (STATUS_LEASED, now),
            ).fetchall()
            for item_id, worker, attempts in rows:
                error = f"lease expired after attempt {attempts} (worker {worker})"
                if attempts < self.max_attempts:
                    conn.execute(
                        "UPDATE items SET status = ?, worker = NULL, lease_expires = NULL, "
                        "error = ? WHERE item_id = ?",
                        (STATUS_PENDING, error, item_id),
                    )
                else:
                    conn.execute(
                        "UPDATE items SET status = ?, lease_expires = NULL, error = ? "
                        "WHERE item_id = ?",
                        (STATUS_FAILED, error, item_id),
                    )
                    failed += 1
                reclaimed.append(item_id)
        if reclaimed:
            QUEUE_RECLAIMS.inc(len(reclaimed))
        if failed:
            QUEUE_FAILED.inc(failed)
        return reclaimed

    # -- introspection -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        out = {status: 0 for status in ITEM_STATUSES}
        rows = self._conn().execute(
            "SELECT status, COUNT(*) FROM items GROUP BY status"
        ).fetchall()
        for status, count in rows:
            out[status] = count
        return out

    def collect(self, item_ids: Iterable[str]) -> dict[str, ItemView]:
        ids = list(item_ids)
        out: dict[str, ItemView] = {}
        conn = self._conn()
        for start in range(0, len(ids), 500):
            chunk = ids[start : start + 500]
            placeholders = ",".join("?" * len(chunk))
            rows = conn.execute(
                "SELECT item_id, status, worker, attempts, result, error, served_from "
                f"FROM items WHERE status IN (?, ?) AND item_id IN ({placeholders})",
                (STATUS_DONE, STATUS_FAILED, *chunk),
            ).fetchall()
            for item_id, status, worker, attempts, result, error, served_from in rows:
                out[item_id] = ItemView(
                    item_id=item_id,
                    status=status,
                    worker=worker,
                    attempts=attempts,
                    result=result,
                    error=error,
                    served_from=served_from,
                )
        return out

    # -- workers -------------------------------------------------------------
    def register_worker(self, worker_id: str, meta: Optional[Mapping] = None) -> None:
        now = self.clock()
        with self._tx() as conn:
            conn.execute(
                "INSERT INTO workers (worker_id, meta, registered_at, heartbeat_at) "
                "VALUES (?, ?, ?, ?) ON CONFLICT (worker_id) DO UPDATE SET "
                "meta = excluded.meta, registered_at = excluded.registered_at, "
                "heartbeat_at = excluded.heartbeat_at",
                (worker_id, json.dumps(dict(meta or {}), sort_keys=True), now, now),
            )

    def heartbeat(self, worker_id: str) -> None:
        with self._tx() as conn:
            conn.execute(
                "UPDATE workers SET heartbeat_at = ? WHERE worker_id = ?",
                (self.clock(), worker_id),
            )

    def workers(self) -> list[WorkerInfo]:
        rows = self._conn().execute(
            "SELECT worker_id, registered_at, heartbeat_at, jobs_done, meta "
            "FROM workers ORDER BY worker_id"
        ).fetchall()
        return [
            WorkerInfo(
                worker_id=worker_id,
                registered_at=registered_at,
                heartbeat_at=heartbeat_at,
                jobs_done=jobs_done,
                meta=json.loads(meta),
            )
            for worker_id, registered_at, heartbeat_at, jobs_done, meta in rows
        ]

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
        if self._owned_dir is not None:
            shutil.rmtree(self._owned_dir, ignore_errors=True)
            self._owned_dir = None


__all__ = ["SqliteBackend"]
