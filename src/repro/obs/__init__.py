"""repro.obs — unified session observability.

One :class:`Instrumentation` object per session: named counters,
gauges and histograms in a :class:`MetricsRegistry`, structured trace
events in a :class:`~repro.obs.trace.SessionTrace`, one
JSON-serialisable :meth:`Instrumentation.snapshot`.  Inject it at
``ApplicationHost`` / ``Participant`` construction; every layer below
(scheduler, encoder, jitter buffer, RTP, RTCP, rate control, channels)
reports through it.  The shared :data:`NULL` instance is the
allocation-free off-switch.

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue and the
snapshot schema.  ``python -m repro.obs --selftest`` smoke-checks the
no-op overhead bound.
"""

from .clockutil import as_now
from .export import chrome_trace, render_chrome_trace, render_json, render_prometheus
from .flight import DEFAULT_SENTINELS, FlightRecorder
from .instrumentation import (
    MESSAGE_CLASSES,
    NULL,
    Instrumentation,
    NullInstrumentation,
)
from .metrics import ByteCounter, LatencyRecorder, TrafficStats
from .registry import Counter, Gauge, Histogram, MetricsRegistry, render_name
from .spans import ABANDON_REASONS, NULL_SPANS, STAGES, SpanTracker, UpdateSpan
from .trace import SessionTrace, TraceEvent

__all__ = [
    "ABANDON_REASONS",
    "ByteCounter",
    "Counter",
    "DEFAULT_SENTINELS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "LatencyRecorder",
    "MESSAGE_CLASSES",
    "MetricsRegistry",
    "NULL",
    "NULL_SPANS",
    "NullInstrumentation",
    "STAGES",
    "SessionTrace",
    "SpanTracker",
    "TraceEvent",
    "TrafficStats",
    "UpdateSpan",
    "as_now",
    "chrome_trace",
    "render_chrome_trace",
    "render_json",
    "render_name",
    "render_prometheus",
]
