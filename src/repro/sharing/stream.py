"""One receive leg, one peer-ingress loop.

The draft has a single receiver behaviour (sections 4.3, 5.3): detect
gaps, NACK them, fall back to a PLI when an update is lost for good,
keep RR/SR reports flowing.  A participant and a relay both do that
toward their upstream through a :class:`ReceiveLeg`; what each does
with the decoded packets and with a give-up stays with it (jitter
buffer, reassembly and join-PLI retry there; waiter table, forwarded
set, cache and PLI valve here).  The AH and a relay both serve a table
of feedback-sending peers through a :class:`PeerIngress`.

The send side is not here: the AH's scheduler coalesces and re-reads
pixels, a relay's downstream queue is a drop-oldest FIFO of opaque
bytes; they share no policy.
"""

from __future__ import annotations

import random
from typing import Callable, Collection, Iterable

from ..health.liveness import LivenessConfig, LivenessTracker
from ..obs.instrumentation import NULL
from ..rtp.clock import DEFAULT_CLOCK_RATE
from ..rtp.feedback import PictureLossIndication, aggregated_nacks
from ..rtp.packet import RtpPacket
from ..rtp.reports import DEFAULT_INTERVAL, RtcpReporter, from_ntp
from ..rtp.rtcp import SenderReport, decode_compound
from ..rtp.session import RtpReceiver, RtpSender
from .config import PT_REMOTING
from .quarantine import QuarantinePolicy
from .recovery import RecoveryActions, RecoveryManager
from .transport import PacketTransport, is_rtcp


class ReceiveLeg:
    """Receive state for the remoting stream arriving on one transport.

    A new upstream (relay failover) is a new RTP sender with its own
    sequence space: build a new leg rather than resetting this one.
    Malformed input raises :class:`~repro.core.errors.ProtocolError`
    out of the ``receive_*`` methods; what that costs the sender is the
    owner's policy.
    """

    def __init__(
        self,
        transport: PacketTransport,
        now: Callable[[], float],
        ssrc: int,
        cname: str,
        rng: random.Random,
        sender: RtpSender | None = None,
        rtcp_interval: float = DEFAULT_INTERVAL,
        obs=NULL,
    ) -> None:
        self.transport = transport
        self._now = now
        #: Our identity in the feedback we originate.
        self.ssrc = ssrc
        #: The media SSRC being received (learned from the stream).
        self.media_ssrc = 0
        #: Stream (TCP-like) paths neither lose nor reorder: no gap can
        #: open, so the retry machine is never fed or polled.
        self.recovers = not transport.reliable
        self.receiver = RtpReceiver(
            now=now, instrumentation=obs.scoped(stream="remoting"),
        )
        #: Each missing extended sequence number walks NACK → backoff
        #: retries → capped give-up (section 5.3.2 hardening).
        self.recovery = RecoveryManager(now=now, instrumentation=obs)
        #: Periodic RRs on the remoting stream (SRs too, given a
        #: ``sender``).  They double as the liveness heartbeat: an
        #: upstream that evicts on silence must keep ``dead_after``
        #: above ``rtcp_interval``.
        self.reporter = RtcpReporter(
            now, sender=sender, receiver=self.receiver, cname=cname,
            interval=rtcp_interval, rng=rng, instrumentation=obs,
        )
        #: Last upstream SenderReport: (wall seconds, RTP timestamp).
        self._last_sr: tuple[float, int] | None = None

    def receive_rtcp(self, raw: bytes) -> list[SenderReport]:
        """Consume one upstream RTCP compound; returns its SRs (the
        newest becomes the NTP↔RTP map behind :meth:`latency_of`)."""
        reports = [
            message for message in decode_compound(raw)
            if isinstance(message, SenderReport)
        ]
        for report in reports:
            self._last_sr = (
                from_ntp(report.ntp_timestamp), report.rtp_timestamp
            )
        return reports

    def receive_rtp(self, raw: bytes) -> tuple[RtpPacket | None, bool]:
        """Account for one upstream RTP packet.

        Returns the decoded remoting packet (None for any other payload
        type) and whether it filled a loss the retry machine was
        chasing.
        """
        packet = RtpPacket.decode(raw)
        if packet.payload_type != PT_REMOTING:
            return None, False
        self.media_ssrc = packet.ssrc
        self.receiver.receive(packet)
        recovered = self.recovers and self.recovery.note_arrival(
            packet.sequence_number
        )
        return packet, recovered

    def poll_recovery(self, wanted: Collection[int] = ()) -> RecoveryActions:
        """Advance the retry machine over own gaps ∪ ``wanted``.

        ``wanted`` are 16-bit sequence numbers someone behind the owner
        asked for (a relay's cache-missed downstream NACKs): one
        machine for both means one upstream NACK per packet however
        many ask.  Sequences given up on stop being reported missing;
        sending the due NACKs and the give-up policy are the owner's.
        """
        if not self.recovers:
            return RecoveryActions()
        missing = self.receiver.missing_sequence_numbers()
        if wanted:
            missing = {*missing, *wanted}
        if not missing and not self.recovery.pending:
            return RecoveryActions()
        actions = self.recovery.poll(missing)
        for seq in actions.gave_up:
            self.receiver.gaps.acknowledge(seq)
        return actions

    def forget(self, seq: int) -> None:
        """Stop chasing ``seq`` without a give-up (the owner already
        stepped past the hole)."""
        self.recovery.cancel(seq)
        self.receiver.gaps.acknowledge(seq)

    def send_nacks(self, missing: Iterable[int]) -> list[int]:
        """Report missing packets upstream (section 5.3.2); returns the
        wire size of each Generic NACK sent (one unless the entries
        exceed what a single packet may carry)."""
        sizes = []
        for nack in aggregated_nacks(self.ssrc, self.media_ssrc, missing):
            encoded = nack.encode()
            self.transport.send_packet(encoded)
            sizes.append(len(encoded))
        return sizes

    def send_pli(self) -> int:
        """Request a full refresh (section 5.3.1); returns its size."""
        encoded = PictureLossIndication(self.ssrc, self.media_ssrc).encode()
        self.transport.send_packet(encoded)
        return len(encoded)

    def send_report(self) -> int:
        """Send the periodic RTCP report if due; returns its size or 0."""
        report = self.reporter.poll()
        if report is None:
            return 0
        self.transport.send_packet(report)
        return len(report)

    def latency_of(self, rtp_timestamp: int) -> float | None:
        """Source-capture → now delay via the last SR's NTP↔RTP map.

        An SR pairs a wall-clock (NTP) instant with the stream's RTP
        timestamp at that instant (RFC 3550 section 6.4.1); on a shared
        clock that places any media timestamp on the wall-clock axis.
        None before the first SR or when the estimate is implausible
        (clock skew, timestamp wrap mid-gap).
        """
        if self._last_sr is None:
            return None
        sr_wall, sr_rtp = self._last_sr
        diff = (rtp_timestamp - sr_rtp) & 0xFFFF_FFFF
        if diff >= 1 << 31:
            diff -= 1 << 32
        latency = self._now() - (sr_wall + diff / DEFAULT_CLOCK_RATE)
        return latency if 0.0 <= latency < 60.0 else None


class PeerIngress:
    """One drain loop over a ``{peer id: transport}`` table.

    Any arriving packet proves its peer alive.  A quarantined peer is
    still drained (and still counts as alive) but its packets are
    dropped unread until the cool-down ends.  A peer whose transport
    closed, or that stayed silent past the dead threshold, is handed to
    ``on_gone(peer_id, "closed" | "dead")``, which detaches it and must
    end in :meth:`remove`.  The handlers charge malformed packets to
    :attr:`quarantine` (a :class:`QuarantinePolicy` on its default
    budget) themselves.
    """

    def __init__(
        self,
        now: Callable[[], float],
        liveness: LivenessConfig | None,
        on_rtcp: Callable[[str, bytes], None],
        on_rtp: Callable[[str, bytes], None],
        on_gone: Callable[[str, str], None],
        obs=NULL,
    ) -> None:
        self._on_rtcp = on_rtcp
        self._on_rtp = on_rtp
        self._on_gone = on_gone
        #: peer id → (peer id, transport): the pair is built once so a
        #: drain over thousands of peers allocates nothing per peer.
        self._peers: dict[str, tuple[str, PacketTransport]] = {}
        self.quarantine = QuarantinePolicy(now=now, instrumentation=obs)
        #: Silence-driven eviction, opt-in: healthy paths always carry
        #: at least RTCP, so silence past the thresholds means the peer
        #: died or the path partitioned.
        self.liveness = (
            LivenessTracker(now, liveness, instrumentation=obs)
            if liveness is not None else None
        )

    def add(self, peer_id: str, transport: PacketTransport) -> None:
        self._peers[peer_id] = (peer_id, transport)
        if self.liveness is not None:
            self.liveness.track(peer_id)

    def remove(self, peer_id: str) -> None:
        self._peers.pop(peer_id, None)
        self.quarantine.forget(peer_id)
        if self.liveness is not None:
            self.liveness.forget(peer_id)

    def drain(self) -> None:
        """Deliver everything that arrived; report closed peers gone."""
        departed = []
        peers = self._peers
        for peer_id, transport in list(peers.values()):
            packets = transport.receive_packets()
            if packets:
                if self.liveness is not None:
                    self.liveness.note_alive(peer_id)
                # A handler may have detached this peer earlier in the
                # same drain; its packets then have no one to go to.
                if peer_id in peers and not self.quarantine.is_quarantined(
                    peer_id
                ):
                    for raw in packets:
                        if is_rtcp(raw):
                            self._on_rtcp(peer_id, raw)
                        else:
                            self._on_rtp(peer_id, raw)
            if transport.closed:
                departed.append(peer_id)
        for peer_id in departed:
            self._on_gone(peer_id, "closed")

    def poll_liveness(self) -> list[str]:
        """Report peers silent past the dead threshold gone; returns
        their ids ([] without a liveness configuration)."""
        if self.liveness is None:
            return []
        newly_dead = self.liveness.poll().newly_dead
        for peer_id in newly_dead:
            self._on_gone(peer_id, "dead")
        return newly_dead
