"""Metric primitives and the registry that names them.

One :class:`MetricsRegistry` per session holds every named metric:

* :class:`Counter` — monotonically increasing int (packets, bytes);
* :class:`Gauge` — last-written float (queue depth, backlog);
* :class:`Histogram` — sample distribution with percentile summaries
  (update staleness, apply latency).

Metrics are identified by a name plus a set of ``key=value`` labels
(``peer``, ``side``, ``class``, ...).  Handles are get-or-create and
stable, so hot paths resolve them once at construction time and then
pay one attribute bump per event.  :meth:`MetricsRegistry.snapshot`
renders everything into one JSON-serialisable dict.
"""

from __future__ import annotations

from typing import Iterator

from .metrics import LatencyRecorder

#: Sorted ``(key, value)`` pairs — the canonical label encoding.
Labels = tuple[tuple[str, object], ...]


def render_name(name: str, labels: Labels) -> str:
    """``name{k=v,...}`` rendering used by snapshots and docs."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing tally.

    ``calls`` counts ``inc()`` invocations separately from the
    accumulated ``value`` — a byte counter bumped once per packet is
    one observability operation, not ``n`` of them, and the overhead
    selftest bounds cost per *call*.
    """

    __slots__ = ("name", "labels", "value", "calls")
    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self.calls = 0

    def inc(self, n: int = 1) -> None:
        self.value += n
        self.calls += 1


class Gauge:
    """A last-written value (levels, depths, sizes)."""

    __slots__ = ("name", "labels", "value", "calls")
    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.calls = 0

    def set(self, value: float) -> None:
        self.value = value
        self.calls += 1

    def add(self, delta: float) -> None:
        self.value += delta
        self.calls += 1


class Histogram(LatencyRecorder):
    """A sample distribution; extends :class:`LatencyRecorder` with the
    registry identity and an ``observe`` verb (negatives clamp to 0 so
    float rounding near zero never raises on a hot path)."""

    kind = "histogram"

    def __init__(self, name: str = "", labels: Labels = ()) -> None:
        super().__init__()
        self.name = name
        self.labels = labels

    def observe(self, value: float) -> None:
        self.record(value if value > 0 else 0.0)

    def percentile(self, p: float) -> float | None:
        """Like :meth:`LatencyRecorder.percentile`, but an empty
        histogram answers ``None`` instead of a misleading 0.0 (a
        single sample answers that sample, as before)."""
        if not self._samples:
            if not 0 <= p <= 100:
                raise ValueError("percentile must be in [0, 100]")
            return None
        return super().percentile(p)

    def percentiles(
        self, ps: tuple[float, ...] = (50, 95, 99)
    ) -> tuple[float | None, ...]:
        """The requested percentiles in one sorted pass."""
        return tuple(self.percentile(p) for p in ps)

    def summary(self) -> dict[str, float]:
        # Keep the all-zero dict for empty histograms so the snapshot
        # JSON schema stays stable even with percentile() → None.
        if not self._samples:
            return {
                "count": 0.0, "mean": 0.0, "p50": 0.0,
                "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        return super().summary()


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named counters, gauges and histograms for one session."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Metric] = {}

    # -- Handles -----------------------------------------------------------

    def _get(self, cls: type, name: str, labels: dict) -> Metric:
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise ValueError(
                f"metric {render_name(*key)!r} already registered as "
                f"{metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- Queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def get(self, name: str, **labels) -> Metric | None:
        """The exact metric, or None when never registered."""
        return self._metrics.get((name, tuple(sorted(labels.items()))))

    def find(self, name: str, **labels) -> list[Metric]:
        """Every metric with this name whose labels include ``labels``."""
        want = set(labels.items())
        return [
            m for (n, _), m in self._metrics.items()
            if n == name and want <= set(m.labels)
        ]

    def total(self, name: str, **labels) -> float:
        """Sum of matching counter/gauge values (histograms: counts)."""
        out = 0.0
        for metric in self.find(name, **labels):
            out += metric.count if isinstance(metric, Histogram) else metric.value
        return out

    # -- Export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-serialisable dict: every metric, rendered name → value."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        # String-keyed sort: label values may mix types (ints, strs),
        # which plain tuple comparison would TypeError on.
        ordered = sorted(
            self._metrics.items(),
            key=lambda item: (
                item[0][0],
                tuple((k, str(v)) for k, v in item[0][1]),
            ),
        )
        for (name, labels), metric in ordered:
            full = render_name(name, labels)
            if isinstance(metric, Counter):
                counters[full] = metric.value
            elif isinstance(metric, Gauge):
                gauges[full] = metric.value
            else:
                histograms[full] = metric.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
