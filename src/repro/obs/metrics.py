"""Measurement helpers used by tests, examples and the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class LatencyRecorder:
    """Collects latency samples and reports percentile statistics."""

    def __init__(self) -> None:
        self._samples: list[float] = []

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self._samples.append(seconds)

    def extend(self, samples: list[float]) -> None:
        for sample in samples:
            self.record(sample)

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile; ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def sum(self) -> float:
        return math.fsum(self._samples)

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }


@dataclass(slots=True)
class ByteCounter:
    """Byte/packet tally for one traffic class."""

    packets: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0

    def add(self, payload: int, wire: int) -> None:
        self.packets += 1
        self.payload_bytes += payload
        self.wire_bytes += wire

    def merge(self, other: "ByteCounter") -> None:
        self.packets += other.packets
        self.payload_bytes += other.payload_bytes
        self.wire_bytes += other.wire_bytes


@dataclass(slots=True)
class TrafficStats:
    """Per-message-class traffic accounting for one session side."""

    window_info: ByteCounter = field(default_factory=ByteCounter)
    region_update: ByteCounter = field(default_factory=ByteCounter)
    move_rectangle: ByteCounter = field(default_factory=ByteCounter)
    pointer: ByteCounter = field(default_factory=ByteCounter)
    hip: ByteCounter = field(default_factory=ByteCounter)
    rtcp: ByteCounter = field(default_factory=ByteCounter)
    retransmit: ByteCounter = field(default_factory=ByteCounter)

    def total_wire_bytes(self) -> int:
        return (
            self.window_info.wire_bytes
            + self.region_update.wire_bytes
            + self.move_rectangle.wire_bytes
            + self.pointer.wire_bytes
            + self.hip.wire_bytes
            + self.rtcp.wire_bytes
            + self.retransmit.wire_bytes
        )

    def total_packets(self) -> int:
        return (
            self.window_info.packets
            + self.region_update.packets
            + self.move_rectangle.packets
            + self.pointer.packets
            + self.hip.packets
            + self.rtcp.packets
            + self.retransmit.packets
        )
