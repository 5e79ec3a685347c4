"""Structured logging with contextvars-based correlation.

One ``logging`` tree (rooted at ``"repro"``) serves the whole stack; the
only choice a process makes is the output shape:

* ``json`` — one JSON object per line: timestamp, level, logger, event,
  plus every bound context field (request id, job fingerprint, worker
  id) and any ``extra=`` fields on the call.  This is what
  ``--log-format json`` gives the CLI and service, and what CI parses
  line-by-line.
* ``text`` — a compact human form of the same record.

Correlation uses a single :class:`contextvars.ContextVar` holding an
immutable dict; :func:`bind` layers fields for the duration of a scope
(a request, a job, a span) and restores the previous context on exit, so
async tasks and threads each see their own chain.  Logs go to *stderr*:
stdout stays reserved for user-facing results, which is what lets CI
assert that every stderr line of a JSON-mode sweep parses as JSON.
"""

from __future__ import annotations

import contextvars
import json
import logging
import sys
import time
import uuid
from contextlib import contextmanager
from typing import Iterator, Optional

ROOT_LOGGER = "repro"

#: Correlation fields visible to every log record in the current context.
_CONTEXT: contextvars.ContextVar[dict] = contextvars.ContextVar("repro_log_context", default={})

#: ``logging.LogRecord`` attributes that are plumbing, not payload.
_RECORD_ATTRS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


def new_request_id() -> str:
    """A short unique correlation id (12 hex chars — log-friendly)."""
    return uuid.uuid4().hex[:12]


def current_context() -> dict:
    """The correlation fields bound in the current context (a copy)."""
    return dict(_CONTEXT.get())


@contextmanager
def bind(**fields) -> Iterator[dict]:
    """Layer correlation fields onto the current logging context."""
    merged = {**_CONTEXT.get(), **fields}
    token = _CONTEXT.set(merged)
    try:
        yield merged
    finally:
        _CONTEXT.reset(token)


def bind_global(**fields) -> None:
    """Set correlation fields for the rest of this context's lifetime.

    Used where there is no scope to unwind — e.g. a worker process binds
    its worker id once at startup.
    """
    _CONTEXT.set({**_CONTEXT.get(), **fields})


def _extra_fields(record: logging.LogRecord) -> dict:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _RECORD_ATTRS and not key.startswith("_")
    }


class JsonFormatter(logging.Formatter):
    """One JSON object per line; merges bound context and call extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        payload.update(_CONTEXT.get())
        payload.update(_extra_fields(record))
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class TextFormatter(logging.Formatter):
    """Compact human-readable rendering of the same record shape."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        fields = {**_CONTEXT.get(), **_extra_fields(record)}
        suffix = "".join(f" {key}={value}" for key, value in sorted(fields.items()))
        line = f"{stamp} {record.levelname.lower():7s} {record.name}: {record.getMessage()}{suffix}"
        if record.exc_info and record.exc_info[0] is not None:
            line += "\n" + self.formatException(record.exc_info)
        return line


LOG_FORMATS = ("text", "json")


def configure_logging(
    log_format: str = "text",
    level: str = "info",
    stream=None,
) -> logging.Logger:
    """Install a single handler on the ``repro`` logger tree.

    Idempotent: calling again replaces the previous handler (so tests
    and long-lived processes can reconfigure).  Returns the root
    ``repro`` logger.
    """
    if log_format not in LOG_FORMATS:
        raise ValueError(f"log_format must be one of {LOG_FORMATS}, got {log_format!r}")
    logger = logging.getLogger(ROOT_LOGGER)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if log_format == "json" else TextFormatter())
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper(), logging.INFO))
    logger.propagate = False
    return logger


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` tree (``get_logger("harness.fuzz")``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER)
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def log_event(logger: logging.Logger, event: str, level: int = logging.INFO, **fields) -> None:
    """Emit ``event`` with structured ``fields`` (sugar over ``extra=``).

    Field names colliding with ``LogRecord`` plumbing attributes
    (``name``, ``args``, ``msg``, ...) are prefixed with ``field_``
    instead of crashing ``makeRecord``.
    """
    safe = {
        (f"field_{key}" if key in _RECORD_ATTRS else key): value
        for key, value in fields.items()
    }
    logger.log(level, event, extra=safe)


def sanitize_request_id(raw: Optional[str], limit: int = 64) -> Optional[str]:
    """A client-supplied request id, made safe to echo into a header."""
    if not raw:
        return None
    cleaned = "".join(ch for ch in raw if ch.isalnum() or ch in "-_.")[:limit]
    return cleaned or None


__all__ = [
    "LOG_FORMATS",
    "ROOT_LOGGER",
    "JsonFormatter",
    "TextFormatter",
    "bind",
    "bind_global",
    "configure_logging",
    "current_context",
    "get_logger",
    "log_event",
    "new_request_id",
    "sanitize_request_id",
]
