"""The unified session-observability facade.

One :class:`Instrumentation` object is injected at
:class:`~repro.sharing.ah.ApplicationHost` /
:class:`~repro.sharing.participant.Participant` construction and flows
down the stack — update scheduler, frame encoder, retransmit path,
jitter buffer, RTP send/receive, RTCP reporting, token-bucket rate
control and the simulated channels all register their metrics against
the same :class:`~repro.obs.registry.MetricsRegistry` and append
structured events to the same :class:`~repro.obs.trace.SessionTrace`.

Design rules:

* **Handles, not lookups** — components resolve their counters once at
  construction; the per-packet cost is one integer bump.
* **Null off-switch** — the shared :data:`NULL` instance keeps every
  hot path allocation-free when observability is off: its handles are
  shared no-op singletons and ``event()`` does nothing.  Guard any
  kwargs-building event emission with ``if obs.enabled:``.
* **Scoped labels** — :meth:`Instrumentation.scoped` binds labels
  (``peer=...``, ``side=...``) so layers never thread identity strings
  by hand.

The legacy measurement classes remain as thin adapters:
:meth:`traffic_stats` returns a :class:`~repro.obs.metrics.TrafficStats`
whose per-class :class:`~repro.obs.metrics.ByteCounter` fields also
feed registry counters, and :meth:`latency_recorder` returns a
registry histogram that *is* a :class:`~repro.obs.metrics.LatencyRecorder`.
"""

from __future__ import annotations

import json

from .clockutil import as_now
from .flight import FlightRecorder
from .metrics import ByteCounter, LatencyRecorder, TrafficStats
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .trace import SessionTrace

#: TrafficStats fields, which double as the ``class=`` label values.
MESSAGE_CLASSES = (
    "window_info",
    "region_update",
    "move_rectangle",
    "pointer",
    "hip",
    "rtcp",
    "retransmit",
)


class _BoundByteCounter(ByteCounter):
    """A ByteCounter that mirrors every add into registry counters."""

    __slots__ = ("_c_packets", "_c_payload", "_c_wire")

    def __init__(self, c_packets: Counter, c_payload: Counter,
                 c_wire: Counter) -> None:
        super().__init__()
        self._c_packets = c_packets
        self._c_payload = c_payload
        self._c_wire = c_wire

    def add(self, payload: int, wire: int) -> None:
        super().add(payload, wire)
        self._c_packets.inc()
        self._c_payload.inc(payload)
        self._c_wire.inc(wire)

    def merge(self, other: ByteCounter) -> None:
        super().merge(other)
        self._c_packets.inc(other.packets)
        self._c_payload.inc(other.payload_bytes)
        self._c_wire.inc(other.wire_bytes)


class Instrumentation:
    """Live observability: a registry, a trace, and a shared clock."""

    enabled = True

    def __init__(
        self,
        clock=None,
        registry: MetricsRegistry | None = None,
        trace: SessionTrace | None = None,
    ) -> None:
        self._now = as_now(clock, default=lambda: 0.0)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace if trace is not None else SessionTrace(self._now)
        #: Anomaly flight recorder, fed by :meth:`event`.
        self.flight = FlightRecorder()
        self._spans = None

    def now(self) -> float:
        return self._now()

    def bind_clock(self, clock) -> None:
        """Re-point this instrumentation (and its trace) at ``clock``.

        Session helpers that create their clock internally (e.g.
        ``repro.quick_session``) call this so event times and
        :meth:`now` agree with the session they instrument.
        """
        self._now = as_now(clock)
        self.trace._now = self._now

    # -- Metric handles ----------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self.registry.histogram(name, **labels)

    # -- One-shot verbs (cold paths; hot paths hold handles) ---------------

    def count(self, name: str, n: int = 1, **labels) -> None:
        self.registry.counter(name, **labels).inc(n)

    def observe(self, name: str, value: float, **labels) -> None:
        self.registry.histogram(name, **labels).observe(value)

    def event(self, kind: str, **attrs) -> None:
        ev = self.trace.record(kind, **attrs)
        if self.flight is not None:
            self.flight.observe(ev)

    # -- Causal span tracing -----------------------------------------------

    @property
    def spans(self):
        """The session's :class:`~repro.obs.spans.SpanTracker`, created
        on first touch (so sessions that never trace pay nothing)."""
        if self._spans is None:
            from .spans import SpanTracker

            self._spans = SpanTracker(self)
        return self._spans

    # -- Label scoping -----------------------------------------------------

    def scoped(self, **labels) -> "Instrumentation":
        """A view that stamps ``labels`` onto every metric and event."""
        return _ScopedInstrumentation(self, labels)

    # -- Legacy-API adapters -----------------------------------------------

    def traffic_stats(self, **labels) -> TrafficStats:
        """A TrafficStats whose ByteCounters also feed the registry
        (``traffic.packets/payload_bytes/wire_bytes{class=...}``)."""
        stats = TrafficStats()
        for cls in MESSAGE_CLASSES:
            tagged = {**labels, "class": cls}
            setattr(
                stats,
                cls,
                _BoundByteCounter(
                    self.counter("traffic.packets", **tagged),
                    self.counter("traffic.payload_bytes", **tagged),
                    self.counter("traffic.wire_bytes", **tagged),
                ),
            )
        return stats

    def latency_recorder(self, name: str, **labels) -> Histogram:
        """A registry histogram; satisfies the LatencyRecorder API."""
        return self.histogram(name, **labels)

    # -- Export / reconstruction -------------------------------------------

    def snapshot(self, events: bool = False) -> dict:
        """One JSON-serialisable dict for the whole session."""
        snap = self.registry.snapshot()
        kinds: dict[str, int] = {}
        for e in self.trace:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        snap["trace"] = {
            "events": len(self.trace),
            "kinds": dict(sorted(kinds.items())),
        }
        if events:
            snap["events"] = self.trace.to_rows()
        return snap

    def export_prometheus(self, namespace: str = "repro") -> str:
        """The metrics registry in Prometheus text exposition format."""
        from .export import render_prometheus

        return render_prometheus(self.registry, namespace=namespace)

    def export_json(self, events: bool = False,
                    indent: int | None = 2) -> str:
        """The session snapshot as one sorted JSON document."""
        from .export import render_json

        return render_json(self, events=events, indent=indent)

    def export_chrome_trace(self, indent: int | None = None) -> str:
        """Completed spans + trace events as a ``chrome://tracing`` /
        Perfetto-loadable trace-event JSON document."""
        from .export import render_chrome_trace

        return render_chrome_trace(self, indent=indent)

    def update_latencies(
        self,
        sent_kind: str = "update.sent",
        applied_kind: str = "update.applied",
        key: str = "rtp_ts",
    ) -> LatencyRecorder:
        """Reconstruct the update-sent → update-applied latency
        distribution by pairing trace events on ``key``.

        Each applied event is paired with the *first* sent event bearing
        the same key (fragments and per-destination copies of one update
        share an RTP timestamp); unmatched events are skipped.
        """
        sent: dict[object, float] = {}
        recorder = LatencyRecorder()
        for e in self.trace:
            if e.kind == sent_kind:
                sent.setdefault(e.attrs.get(key), e.time)
            elif e.kind == applied_kind:
                t0 = sent.get(e.attrs.get(key))
                if t0 is not None and e.time >= t0:
                    recorder.record(e.time - t0)
        return recorder


class _ScopedInstrumentation(Instrumentation):
    """A label-binding view over a base Instrumentation."""

    def __init__(self, base: Instrumentation, labels: dict) -> None:
        self._base = base
        self._labels = labels
        self._now = base._now

    @property
    def registry(self) -> MetricsRegistry:  # type: ignore[override]
        return self._base.registry

    @property
    def trace(self) -> SessionTrace:  # type: ignore[override]
        return self._base.trace

    @property
    def flight(self) -> FlightRecorder:  # type: ignore[override]
        return self._base.flight

    @property
    def spans(self):
        return self._base.spans

    def counter(self, name: str, **labels) -> Counter:
        return self._base.counter(name, **{**self._labels, **labels})

    def gauge(self, name: str, **labels) -> Gauge:
        return self._base.gauge(name, **{**self._labels, **labels})

    def histogram(self, name: str, **labels) -> Histogram:
        return self._base.histogram(name, **{**self._labels, **labels})

    def event(self, kind: str, **attrs) -> None:
        self._base.event(kind, **{**self._labels, **attrs})

    def scoped(self, **labels) -> Instrumentation:
        return _ScopedInstrumentation(self._base, {**self._labels, **labels})

    def bind_clock(self, clock) -> None:
        self._base.bind_clock(clock)
        self._now = self._base._now


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    """Shared, never-storing histogram (summary reads as all-zero)."""

    def record(self, seconds: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram("null")


class NullInstrumentation:
    """The off-switch: same interface, shared no-op handles, zero state.

    ``traffic_stats()`` and ``latency_recorder()`` still return *live*
    local accumulators — those power long-standing public attributes
    (``participant.stats``, ``participant.update_latency``) that must
    keep working with observability off.
    """

    enabled = False
    #: No flight recorder: :meth:`event` is a no-op anyway.
    flight = None

    def now(self) -> float:
        return 0.0

    def bind_clock(self, clock) -> None:
        pass

    def counter(self, name: str, **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **labels) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def count(self, name: str, n: int = 1, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def event(self, kind: str, **attrs) -> None:
        pass

    def scoped(self, **labels) -> "NullInstrumentation":
        return self

    @property
    def spans(self):
        """The shared no-op tracker (``begin``/``resolve`` → None)."""
        from .spans import NULL_SPANS

        return NULL_SPANS

    def traffic_stats(self, **labels) -> TrafficStats:
        return TrafficStats()

    def latency_recorder(self, name: str, **labels) -> LatencyRecorder:
        return LatencyRecorder()

    def snapshot(self, events: bool = False) -> dict:
        snap: dict = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "trace": {"events": 0, "kinds": {}},
        }
        if events:
            snap["events"] = []
        return snap

    def update_latencies(self, *args, **kwargs) -> LatencyRecorder:
        return LatencyRecorder()

    def export_prometheus(self, namespace: str = "repro") -> str:
        return ""

    def export_json(self, events: bool = False,
                    indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(events=events), indent=indent,
                          sort_keys=True)

    def export_chrome_trace(self, indent: int | None = None) -> str:
        return json.dumps(
            {"traceEvents": [], "displayTimeUnit": "ms"}, indent=indent
        )


#: The shared no-op instance every component defaults to.
NULL = NullInstrumentation()
