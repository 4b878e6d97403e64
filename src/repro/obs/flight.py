"""Anomaly flight recorder: causal history for every recovery sentinel.

Counters say *that* a peer was quarantined or a NACK retry gave up;
they cannot say what happened in the seconds before.  The flight
recorder keeps a bounded ring of the most recent trace events per peer
and, the moment a **sentinel** event fires — quarantine mute, NACK
give-up → PLI, reassembly expiry, jitter-hole abandon — freezes that
ring into a structured JSON dump with the triggering event last.

One recorder is attached to every live :class:`~repro.obs.Instrumentation`
(``obs.flight``); :meth:`observe` is called once per trace event, so
with observability off (the :data:`~repro.obs.NULL` instance) the
recorder costs nothing at all.
"""

from __future__ import annotations

import json
from collections import deque

#: (event kind, attr subset that must match — or None for any).
DEFAULT_SENTINELS: tuple[tuple[str, dict | None], ...] = (
    ("peer.quarantined", None),
    ("recovery.gave_up", None),
    ("reassembly.dropped", {"reason": "expired"}),
    ("jitter.abandoned", None),
)

#: Ring key for events carrying no ``peer`` label.
SESSION_RING = "session"


class FlightRecorder:
    """Per-peer event rings plus sentinel-triggered snapshot dumps."""

    def __init__(
        self,
        capacity: int = 256,
        sentinels: tuple[tuple[str, dict | None], ...] = DEFAULT_SENTINELS,
        max_dumps: int = 64,
    ) -> None:
        if capacity < 1 or max_dumps < 1:
            raise ValueError("capacity and max_dumps must be positive")
        self.capacity = capacity
        self.max_dumps = max_dumps
        self._sentinels = tuple(sentinels)
        self._rings: dict[str, deque[dict]] = {}
        #: Structured snapshots, one per sentinel event, oldest first.
        self.dumps: list[dict] = []
        self.sentinels_seen = 0
        self.dumps_dropped = 0

    # -- Ingest ------------------------------------------------------------

    def observe(self, event) -> None:
        """Feed one :class:`~repro.obs.trace.TraceEvent`."""
        peer = str(event.attrs.get("peer", SESSION_RING))
        ring = self._rings.get(peer)
        if ring is None:
            ring = self._rings[peer] = deque(maxlen=self.capacity)
        ring.append({"time": event.time, "kind": event.kind, **event.attrs})
        if self._is_sentinel(event):
            self.sentinels_seen += 1
            if len(self.dumps) >= self.max_dumps:
                self.dumps_dropped += 1
                return
            self.dumps.append(
                {
                    "time": event.time,
                    "sentinel": event.kind,
                    "peer": peer,
                    "attrs": dict(event.attrs),
                    "events": list(ring),
                }
            )

    def _is_sentinel(self, event) -> bool:
        for kind, attrs in self._sentinels:
            if event.kind != kind:
                continue
            if attrs is None:
                return True
            if all(event.attrs.get(k) == v for k, v in attrs.items()):
                return True
        return False

    # -- Queries -----------------------------------------------------------

    def ring(self, peer: str = SESSION_RING) -> list[dict]:
        """The current event ring for ``peer`` (oldest first)."""
        return list(self._rings.get(peer, ()))

    @property
    def peers(self) -> list[str]:
        return sorted(self._rings)

    def dumps_for(self, peer: str) -> list[dict]:
        return [d for d in self.dumps if d["peer"] == peer]

    def to_json(self, indent: int | None = 2) -> str:
        """Every dump as one JSON document (stable key order)."""
        return json.dumps(
            {"capacity": self.capacity, "dumps": self.dumps},
            indent=indent,
            sort_keys=True,
            default=str,
        )
