"""RTP session state: the send and receive halves of one stream.

:class:`RtpSender` stamps outgoing payloads with sequence numbers and
media-clock timestamps (RFC 3550 rules: random initial sequence number
and timestamp).  :class:`RtpReceiver` validates arrivals, tracks loss
and jitter, and exposes the statistics RTCP reports need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from .clock import DEFAULT_CLOCK_RATE, MediaClock
from .packet import MAX_SEQ, RtpPacket
from .sequence import GapDetector, ReceptionStats, SequenceTracker


def generate_ssrc(rng: random.Random | None = None,
                  taken: set[int] | None = None) -> int:
    """Draw a random SSRC avoiding ``taken`` (collision rule, RFC 3550)."""
    r = rng or random
    while True:
        ssrc = r.randrange(1, 1 << 32)
        if not taken or ssrc not in taken:
            return ssrc


class RtpSender:
    """Builds outgoing RTP packets for one SSRC / payload type."""

    def __init__(
        self,
        payload_type: int,
        ssrc: int | None = None,
        clock: MediaClock | None = None,
        now: Callable[[], float] | None = None,
        rng: random.Random | None = None,
        instrumentation=None,
    ) -> None:
        r = rng or random
        self.payload_type = payload_type
        self.ssrc = ssrc if ssrc is not None else generate_ssrc(r)
        self.clock = clock or MediaClock(rng=r)
        self._now = as_now(now, default=lambda: 0.0)
        # Random initial sequence number per RFC 3550 section 5.1.
        self._next_seq = r.randrange(MAX_SEQ + 1)
        self.packets_sent = 0
        self.octets_sent = 0
        obs = instrumentation if instrumentation is not None else NULL
        self._c_packets = obs.counter("rtp.packets_sent", pt=payload_type)
        self._c_octets = obs.counter("rtp.octets_sent", pt=payload_type)

    def next_packet(
        self,
        payload: bytes,
        marker: bool = False,
        timestamp: int | None = None,
    ) -> RtpPacket:
        """Stamp ``payload`` into the next packet of the stream.

        ``timestamp`` overrides the clock-derived value; fragments of
        one RegionUpdate must share a timestamp, so the fragmenter
        captures one value and passes it to every fragment.
        """
        if timestamp is None:
            timestamp = self.clock.timestamp_at(self._now())
        packet = RtpPacket(
            payload_type=self.payload_type,
            sequence_number=self._next_seq,
            timestamp=timestamp,
            ssrc=self.ssrc,
            payload=payload,
            marker=marker,
        )
        self._next_seq = (self._next_seq + 1) & MAX_SEQ
        self.packets_sent += 1
        self.octets_sent += len(payload)
        self._c_packets.inc()
        self._c_octets.inc(len(payload))
        return packet

    def current_timestamp(self) -> int:
        """The RTP timestamp corresponding to 'now'."""
        return self.clock.timestamp_at(self._now())


@dataclass(slots=True)
class ReceivedPacket:
    """A validated arrival with its reception metadata."""

    packet: RtpPacket
    arrival_time: float
    valid: bool


class RtpReceiver:
    """Tracks one remote SSRC: validation, loss, jitter, gaps."""

    def __init__(
        self,
        clock_rate: int = DEFAULT_CLOCK_RATE,
        now: Callable[[], float] | None = None,
        nack_window: int = 1024,
        instrumentation=None,
    ) -> None:
        self._now = as_now(now, default=lambda: 0.0)
        self.tracker = SequenceTracker(clock_rate=clock_rate)
        self.gaps = GapDetector(max_tracked=nack_window)
        self.ssrc: int | None = None
        self.packets_received = 0
        self.octets_received = 0
        obs = instrumentation if instrumentation is not None else NULL
        self._c_packets = obs.counter("rtp.packets_received")
        self._c_octets = obs.counter("rtp.octets_received")
        self._c_invalid = obs.counter("rtp.packets_invalid")

    def receive(self, packet: RtpPacket) -> ReceivedPacket:
        """Validate and account for an arriving packet."""
        if self.ssrc is None:
            self.ssrc = packet.ssrc
        arrival = self._now()
        same_source = packet.ssrc == self.ssrc
        valid = same_source and self.tracker.update(
            packet.sequence_number, packet.timestamp, arrival
        )
        if valid:
            self.packets_received += 1
            self.octets_received += len(packet.payload)
            self._c_packets.inc()
            self._c_octets.inc(len(packet.payload))
        else:
            self._c_invalid.inc()
        if same_source:
            # Gap tracking sees every arrival, valid or not: a
            # retransmission more than MAX_MISORDER behind the head
            # fails the A.1 heuristic above, and unrecorded it would
            # stay "missing" (and be NACKed) until the window slid past.
            self.gaps.record(packet.sequence_number)
        return ReceivedPacket(packet, arrival, valid)

    def missing_sequence_numbers(self) -> list[int]:
        """Holes suitable for a Generic NACK request."""
        return self.gaps.missing()

    def stats(self) -> ReceptionStats:
        return self.tracker.stats()
