"""Process-wide metrics registry: counters, gauges, histograms.

Stdlib-only, OpenTelemetry/Prometheus-shaped.  Every layer of the stack
(kernel, worker pool, cache tiers, service) registers named instruments
here; a series is one ``(name, label values)`` pair, e.g.
``cache_requests_total{layer="lru", outcome="hit"}``.

Design constraints, in priority order:

* **Cheap.**  An increment is one dict lookup plus a float add, and the
  hot loops (the search kernel) accumulate locally and flush *once per
  run*, so instrumentation costs O(1) per search, not per state.
* **Mergeable.**  Worker processes run their own registry; a
  :meth:`MetricsRegistry.snapshot` travels back over the multiprocessing
  boundary (attached to ``JobResult``) and folds into the parent's
  registry via :meth:`MetricsRegistry.merge` — counters and histogram
  buckets add, gauges take the incoming value.
* **Scrapeable.**  :meth:`MetricsRegistry.render_prometheus` emits the
  text exposition format (the service's ``GET /metrics``).

A process-wide default registry is module state (:func:`get_registry`).
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping, Optional, Sequence

#: Default histogram bucket upper bounds, in seconds (latency-shaped).
DEFAULT_SECONDS_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: Separator joining label values into a series key (never appears in a
#: sane label value; escaped rendering handles the rest).
_KEY_SEP = "\x1f"


def _series_key(values: Sequence[str]) -> str:
    return _KEY_SEP.join(values)


def _split_key(key: str) -> tuple[str, ...]:
    return tuple(key.split(_KEY_SEP)) if key else ()


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared plumbing of the three instrument kinds."""

    kind = "?"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        #: series key -> per-kind value object
        self._series: dict = {}
        self._lock = threading.Lock()

    def _label_values(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _child(self, key: str):
        child = self._series.get(key)
        if child is None:
            with self._lock:
                child = self._series.setdefault(key, self._new_child())
        return child

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child series for one set of label values (memoised)."""
        return self._child(_series_key(self._label_values(labels)))

    def series(self) -> dict:
        """``{label values tuple: child}`` — test/introspection helper."""
        return {_split_key(key): child for key, child in self._series.items()}


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; inc() takes a non-negative amount")
        self.value += amount


class Counter(_Instrument):
    """Monotonically increasing total (e.g. ``cache_hits_total``)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Instrument):
    """A value that can go up and down (e.g. ``pool_workers``)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).dec(amount)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value


class _HistogramChild:
    __slots__ = ("counts", "sum", "count", "_buckets")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self._buckets = buckets
        #: one slot per finite bucket plus the implicit +Inf overflow
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # Prometheus bucket semantics: upper bounds are inclusive (an
        # observation equal to an edge lands in that bucket).
        index = len(self._buckets)
        for i, bound in enumerate(self._buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1


class Histogram(_Instrument):
    """Fixed-bucket distribution (e.g. ``pool_compute_seconds``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in buckets)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """Named instruments with get-or-create registration."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------
    def _register(self, cls, name: str, help: str, labels: Iterable[str], **kwargs):
        label_names = tuple(labels)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names}"
                    )
                return existing
            instrument = cls(name, help, label_names, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def clear(self) -> None:
        """Drop every instrument (tests only)."""
        with self._lock:
            self._instruments.clear()

    # -- snapshot / merge ----------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict, picklable copy of every series' current value."""
        snap: dict = {}
        for name, instrument in list(self._instruments.items()):
            entry: dict = {
                "kind": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.label_names),
            }
            if instrument.kind == "histogram":
                entry["buckets"] = list(instrument.buckets)
                entry["series"] = {
                    key: {
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                    for key, child in instrument._series.items()
                }
            else:
                entry["series"] = {
                    key: child.value for key, child in instrument._series.items()
                }
            snap[name] = entry
        return snap

    def merge(self, snapshot: Optional[Mapping]) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value (last writer wins).  Unknown instruments are created from
        the snapshot's own metadata, so a parent process needs no prior
        knowledge of what its workers measured.
        """
        if not snapshot:
            return
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            labels = tuple(entry.get("labels", ()))
            help_text = entry.get("help", "")
            if kind == "counter":
                instrument = self.counter(name, help_text, labels)
            elif kind == "gauge":
                instrument = self.gauge(name, help_text, labels)
            elif kind == "histogram":
                instrument = self.histogram(
                    name, help_text, labels, buckets=tuple(entry.get("buckets", ()))
                )
            else:
                continue
            for key, value in entry.get("series", {}).items():
                child = instrument._child(key)
                if kind == "counter":
                    child.value += value
                elif kind == "gauge":
                    child.value = value
                else:
                    counts = value.get("counts", [])
                    for i, n in enumerate(counts[: len(child.counts)]):
                        child.counts[i] += n
                    child.sum += value.get("sum", 0.0)
                    child.count += value.get("count", 0)

    # -- rendering -----------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for key in sorted(instrument._series):
                child = instrument._series[key]
                values = _split_key(key)
                label_str = ",".join(
                    f'{label}="{_escape_label_value(value)}"'
                    for label, value in zip(instrument.label_names, values)
                )
                if instrument.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(
                        list(instrument.buckets) + [math.inf], child.counts
                    ):
                        cumulative += count
                        bucket_labels = (
                            label_str + "," if label_str else ""
                        ) + f'le="{_format_value(bound)}"'
                        lines.append(f"{name}_bucket{{{bucket_labels}}} {cumulative}")
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{name}_sum{suffix} {_format_value(child.sum)}")
                    lines.append(f"{name}_count{suffix} {child.count}")
                else:
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{name}{suffix} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"


def diff_snapshots(before: Mapping, after: Mapping) -> dict:
    """The delta ``after - before`` as a mergeable snapshot.

    This is how a long-lived worker process attributes metrics to one
    job: snapshot around the job, ship the difference.  Gauges keep the
    ``after`` value (a delta is meaningless for a level).
    """
    delta: dict = {}
    for name, entry in after.items():
        base = before.get(name, {})
        base_series = base.get("series", {})
        kind = entry.get("kind")
        out_series: dict = {}
        for key, value in entry.get("series", {}).items():
            prior = base_series.get(key)
            if kind == "counter":
                changed = value - (prior or 0.0)
                if changed:
                    out_series[key] = changed
            elif kind == "gauge":
                if prior is None or prior != value:
                    out_series[key] = value
            else:
                prior = prior or {"counts": [], "sum": 0.0, "count": 0}
                prior_counts = list(prior["counts"]) + [0] * (
                    len(value["counts"]) - len(prior["counts"])
                )
                counts = [n - p for n, p in zip(value["counts"], prior_counts)]
                if any(counts):
                    out_series[key] = {
                        "counts": counts,
                        "sum": value["sum"] - prior["sum"],
                        "count": value["count"] - prior["count"],
                    }
        if out_series:
            delta[name] = {**{k: v for k, v in entry.items() if k != "series"},
                           "series": out_series}
    return delta


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, help: str = "", labels: Iterable[str] = ()) -> Counter:
    return _REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Iterable[str] = ()) -> Gauge:
    return _REGISTRY.gauge(name, help, labels)


def histogram(
    name: str,
    help: str = "",
    labels: Iterable[str] = (),
    buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
) -> Histogram:
    return _REGISTRY.histogram(name, help, labels, buckets=buckets)


__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "diff_snapshots",
    "gauge",
    "get_registry",
    "histogram",
]
