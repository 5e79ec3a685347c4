"""Unified observability layer: metrics, structured logging, tracing.

Stdlib-only by design — the repo's zero-dependency constraint extends to
its instrumentation.  See the sibling modules:

* :mod:`repro.obs.metrics` — process-wide registry of labeled counters,
  gauges, and fixed-bucket histograms; snapshots merge across the
  multiprocessing boundary; renders Prometheus text exposition.
* :mod:`repro.obs.logging` — JSON/text structured log formatters with
  contextvars-based correlation (request id, job fingerprint, worker id).
* :mod:`repro.obs.tracing` — nested wall-time spans plus a
  per-run phase accumulator for hot loops.
"""

from .logging import (
    LOG_FORMATS,
    JsonFormatter,
    TextFormatter,
    bind,
    bind_global,
    configure_logging,
    current_context,
    get_logger,
    log_event,
    new_request_id,
    sanitize_request_id,
)
from .metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    diff_snapshots,
    gauge,
    get_registry,
    histogram,
)
from .tracing import PhaseAccumulator, Span, current_span_path, span

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "LOG_FORMATS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "PhaseAccumulator",
    "TextFormatter",
    "Span",
    "bind",
    "bind_global",
    "configure_logging",
    "counter",
    "current_context",
    "current_span_path",
    "diff_snapshots",
    "gauge",
    "get_logger",
    "get_registry",
    "histogram",
    "log_event",
    "new_request_id",
    "sanitize_request_id",
    "span",
]
