"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The instrumentation contract mirrors :func:`repro.testing.faults.fault_point`:
every hot-path call site goes through a module-level helper (``count``,
``observe``, ``set_gauge``) whose disabled form is a single ``is None``
check — no registry installed means no dict lookups, no allocation, no
locks.  With a registry installed the helper is a dict hit on the metric
name plus an integer add (GIL-consistent; counters are exact on single
threads and best-effort under free-running thread contention, which is
fine for monitoring).

Enable either programmatically (:func:`enable` / the :func:`enabled`
context manager) or by exporting ``REPRO_METRICS=1`` before the process
starts (read once at import, the way CI's instrumentation-on leg runs
the whole suite).

This module must stay import-light (stdlib only at import time): it is
imported by the lowest layers of the engine (``repro.storage``);
``numpy`` is only touched inside :meth:`Histogram.record_many`.
"""

from __future__ import annotations

import bisect
import os
import re
import threading

#: Default histogram bucket upper bounds, in seconds: 100µs .. 60s,
#: roughly logarithmic — wide enough for per-record continuous-mode
#: latency at the bottom and epoch/stage durations at the top.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = None

    def set(self, value) -> None:  # noqa: A003
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with percentile accessors.

    ``bounds`` are the *upper* bounds of the first ``len(bounds)``
    buckets (ascending); one implicit overflow bucket catches values
    above the last bound.  ``percentile(q)`` interpolates linearly
    inside the winning bucket, clamped to the observed min/max, so a
    histogram fed a single value reports that value at every quantile.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max",
                 "_lock")

    def __init__(self, name: str, bounds=DEFAULT_TIME_BUCKETS):
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def record(self, value) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def record_many(self, values) -> None:
        """Record a batch of observations (vectorized for numpy input)."""
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        indexes = np.searchsorted(self.bounds, values, side="left")
        per_bucket = np.bincount(indexes, minlength=len(self.counts))
        lo = float(values.min())
        hi = float(values.max())
        with self._lock:
            for i, n in enumerate(per_bucket):
                if n:
                    self.counts[i] += int(n)
            self.count += int(values.size)
            self.sum += float(values.sum())
            if self.min is None or lo < self.min:
                self.min = lo
            if self.max is None or hi > self.max:
                self.max = hi

    # ------------------------------------------------------------------
    def percentile(self, q: float):
        """The q-quantile (0 < q <= 1) estimated from the buckets."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lower = self.bounds[index - 1] if index > 0 else (
                    self.min if self.min is not None else 0.0)
                upper = self.bounds[index] if index < len(self.bounds) else (
                    self.max if self.max is not None else self.bounds[-1])
                fraction = (target - previous) / bucket_count
                value = lower + (upper - lower) * fraction
                # Clamp to what was actually observed: a single sample
                # must report itself, not its bucket's midpoint.
                if self.min is not None:
                    value = max(value, self.min)
                if self.max is not None:
                    value = min(value, self.max)
                return value
        return self.max

    @property
    def p50(self):
        return self.percentile(0.50)

    @property
    def p95(self):
        return self.percentile(0.95)

    @property
    def p99(self):
        return self.percentile(0.99)

    def percentiles_json(self) -> dict:
        """The monitor-facing summary ({} while empty)."""
        if self.count == 0:
            return {}
        return {
            "count": self.count,
            "mean": self.sum / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def snapshot(self):
        return dict(self.percentiles_json(), buckets=list(self.counts))


class MetricsRegistry:
    """Named metrics for one process (usually the module-level default).

    ``counter``/``gauge``/``histogram`` are get-or-create: a dict hit
    when the metric is already registered (the steady state on hot
    paths).  Creation takes a lock; lookups do not (dict reads are
    GIL-atomic).
    """

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory(name)
                    self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, bounds=DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._get_or_create(name, lambda n: Histogram(n, bounds))

    def register(self, metric) -> None:
        """Adopt an externally created metric object under its name."""
        with self._lock:
            self._metrics[metric.name] = metric

    def metric(self, name: str):
        """Registered metric by name, or None."""
        return self._metrics.get(name)

    def names(self) -> list:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """``{name: value-or-summary}`` for every registered metric."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
        }

    def to_openmetrics(self) -> str:
        """The registry in the OpenMetrics / Prometheus text exposition
        format (one ``# TYPE`` per family, ``# EOF`` terminator).

        Dotted internal names map to ``repro_``-prefixed underscore
        families; the structured suffixes become labels so Prometheus
        can aggregate across them (the documented, stable mapping —
        see docs/observability.md):

        * ``op.FilterOp.rows_out``     -> ``repro_op_rows_out{operator="FilterOp"}``
        * ``engine.watermark_lag.ts``  -> ``repro_engine_watermark_lag{column="ts"}``

        Counters get the ``_total`` suffix; histograms expand to
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``;
        unset or non-numeric gauges are skipped.
        """
        families = {}  # exposition name -> {"type": ..., "samples": [...]}
        for name in self.names():
            metric = self._metrics[name]
            family, labels = _split_labels(name)
            kind = ("counter" if isinstance(metric, Counter) else
                    "gauge" if isinstance(metric, Gauge) else "histogram")
            exposition = _openmetrics_name(family)
            slot = families.get(exposition)
            if slot is not None and slot["type"] != kind:
                # Same family name, different metric class: keep both by
                # falling back to the full (un-labelled) name.
                exposition = _openmetrics_name(name)
                labels = {}
                slot = families.get(exposition)
            if slot is None:
                slot = families[exposition] = {"type": kind, "samples": []}
            slot["samples"].extend(_samples(metric, exposition, labels))
        lines = []
        for exposition in sorted(families):
            slot = families[exposition]
            if not slot["samples"]:
                continue
            lines.append(f"# TYPE {exposition} {slot['type']}")
            lines.extend(slot["samples"])
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# OpenMetrics exposition helpers
# ----------------------------------------------------------------------
_OP_METRIC = re.compile(r"^op\.(?P<op>.+)\.(?P<stat>rows_out)$")
_WATERMARK_LAG = re.compile(r"^engine\.watermark_lag\.(?P<column>.+)$")


def _split_labels(name: str):
    """Internal dotted name -> (family, labels) per the documented map."""
    match = _OP_METRIC.match(name)
    if match:
        return f"op.{match.group('stat')}", {"operator": match.group("op")}
    match = _WATERMARK_LAG.match(name)
    if match:
        return "engine.watermark_lag", {"column": match.group("column")}
    return name, {}


def _openmetrics_name(family: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", family)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _fmt_number(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _samples(metric, exposition: str, labels: dict) -> list:
    rendered = _render_labels(labels)
    if isinstance(metric, Counter):
        return [f"{exposition}_total{rendered} {metric.value}"]
    if isinstance(metric, Gauge):
        value = _fmt_number(metric.value)
        if value is None:
            return []
        return [f"{exposition}{rendered} {value}"]
    # Histogram: cumulative buckets + sum/count.
    lines = []
    cumulative = 0
    for bound, count in zip(metric.bounds, metric.counts):
        cumulative += count
        le = dict(labels, le=_fmt_number(float(bound)))
        lines.append(f"{exposition}_bucket{_render_labels(le)} {cumulative}")
    le = dict(labels, le="+Inf")
    lines.append(f"{exposition}_bucket{_render_labels(le)} {metric.count}")
    lines.append(f"{exposition}_sum{rendered} {_fmt_number(float(metric.sum))}")
    lines.append(f"{exposition}_count{rendered} {metric.count}")
    return lines


# ----------------------------------------------------------------------
# Module-level installation (the cheap-when-disabled surface)
# ----------------------------------------------------------------------
_registry: MetricsRegistry | None = None


def enable(registry: MetricsRegistry = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process registry."""
    global _registry
    if registry is None:
        registry = MetricsRegistry()
    _registry = registry
    return registry


def disable() -> None:
    """Uninstall the process registry; helpers become no-ops again."""
    global _registry
    _registry = None


def active() -> MetricsRegistry | None:
    """The installed registry, if any."""
    return _registry


class enabled:
    """``with metrics.enabled() as reg:`` — scoped enablement for tests."""

    def __init__(self, registry: MetricsRegistry = None):
        self._registry = registry

    def __enter__(self) -> MetricsRegistry:
        self._previous = _registry
        return enable(self._registry)

    def __exit__(self, *exc) -> None:
        global _registry
        _registry = self._previous


# Hot-path helpers: a single None check when disabled.
def count(name: str, n: int = 1) -> None:
    """Increment a counter (no-op unless a registry is installed)."""
    if _registry is not None:
        _registry.counter(name).inc(n)


def set_gauge(name: str, value) -> None:
    """Set a gauge (no-op unless a registry is installed)."""
    if _registry is not None:
        _registry.gauge(name).set(value)


def observe(name: str, value) -> None:
    """Record one histogram observation (no-op unless installed)."""
    if _registry is not None:
        _registry.histogram(name).record(value)


def snapshot() -> dict:
    """Snapshot of the installed registry ({} when disabled)."""
    return _registry.snapshot() if _registry is not None else {}


def to_openmetrics() -> str:
    """OpenMetrics text for the installed registry (bare ``# EOF`` when
    metrics are disabled — still a valid, scrapeable exposition)."""
    if _registry is None:
        return "# EOF\n"
    return _registry.to_openmetrics()


if os.environ.get("REPRO_METRICS", "0") not in ("", "0"):
    enable()
