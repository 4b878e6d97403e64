"""The relay node: terminate feedback locally, forward media transparently.

A :class:`RelayNode` sits between an upstream source (the AH, or a
parent relay) and N downstream consumers (participants, or child
relays).  Media flows through **unmodified** — same SSRC, same
sequence numbers, same timestamps — so every viewer in an arbitrarily
deep tree observes the identical RTP stream and converges to the same
screen state as a directly-attached participant.

What the relay changes is the *feedback* plane.  Downstream NACKs and
PLIs terminate here:

* A NACK whose packets are still in the relay's
  :class:`~repro.sharing.retransmit.RetransmitCache` is served
  locally — the upstream never hears about it
  (``relay.absorbed_nacks``).
* A cache miss enrols the requester in a per-sequence waiter set and
  escalates **once** through the retry machine of the relay's own
  :class:`~repro.sharing.stream.ReceiveLeg`: a thousand viewers
  NACKing the same lost packet produce exactly one upstream NACK (plus
  capped retries), not a thousand (``relay.nacks_deduplicated``).
  When the repair arrives it is re-forwarded only to the waiters.
* PLIs are rate-limited: at most one upstream PLI per
  ``PLI_MIN_INTERVAL`` regardless of how many viewers panic at once
  (``relay.plis_suppressed``).
* Receiver reports and SDES from downstream are absorbed entirely.

HIP (input) packets from downstream flow upstream verbatim — the relay
is transparent to the control plane, so floor control still happens at
the AH.  Upstream RTCP (the AH's SRs) fans out to every downstream so
leaf participants can keep estimating end-to-end latency.

Each downstream may carry its own token-bucket rate tier (section 4.3
of the paper applies per subtree): packets that exceed the tier queue
in FIFO order and drain as tokens refill; NACK retransmissions bypass
the limiter, exactly as the AH's own scheduler does.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field

from ..core.errors import ProtocolError
from ..health.liveness import LivenessConfig, LivenessTracker, PeerState
from ..net.ratecontrol import TokenBucket
from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from ..rtp.feedback import GenericNack, PictureLossIndication
from ..rtp.reports import DEFAULT_INTERVAL as RTCP_DEFAULT_INTERVAL
from ..rtp.rtcp import decode_compound
from ..rtp.sequence import SequenceExtender
from ..rtp.session import generate_ssrc
from ..sharing.retransmit import RetransmitCache
from ..sharing.stream import PeerIngress, ReceiveLeg
from ..sharing.transport import PacketTransport, is_rtcp


#: Encoded packets kept for local NACK service.  Bigger caches absorb
#: NACKs further into the past; the AH-side default (2048) is doubled
#: because a relay answers for many receivers at once.
RETRANSMIT_CACHE_PACKETS = 4096
#: Minimum spacing between upstream PLIs, however many downstream PLIs
#: arrive (the anti-storm valve).
PLI_MIN_INTERVAL = 1.0
#: Per-downstream FIFO depth while a rate tier is throttling; overflow
#: drops the oldest queued packet (NACK recovery repairs the hole
#: downstream).
FORWARD_QUEUE_PACKETS = 1024
#: Extended sequence numbers remembered for duplicate suppression.
FORWARDED_WINDOW = 4096


@dataclass(slots=True)
class RelayDownstream:
    """One downstream consumer (a participant or a child relay)."""

    downstream_id: str
    transport: PacketTransport
    limiter: TokenBucket | None = None
    #: FIFO of encoded packets awaiting rate-tier tokens.
    queue: deque = field(default_factory=deque)
    #: The configured tier, before any overload degradation scaling.
    base_rate_bps: int | None = None
    packets_sent: int = 0
    bytes_sent: int = 0
    retransmits_served: int = 0
    queue_drops: int = 0


class RelayNode:
    """One relay: upstream transport in, N downstream transports out."""

    def __init__(
        self,
        relay_id: str,
        upstream: PacketTransport,
        clock=None,
        liveness: LivenessConfig | None = None,
        rng: random.Random | None = None,
        obs=None,
    ) -> None:
        self.id = relay_id
        #: Upstream RTCP heartbeat pacing: the RFC 3550 5 s default, or
        #: ``dead_after / 3`` under ``liveness`` (silence thresholds for
        #: both faces; None: no silence-driven pruning, upstream death
        #: only visible through ``upstream.closed``) so the parent hears
        #: roughly three heartbeats per dead window (the reporter
        #: jitters each interval by 0.5-1.5x, so the worst-case gap
        #: stays under ``dead_after``).
        self.heartbeat_interval = (
            RTCP_DEFAULT_INTERVAL if liveness is None
            else liveness.dead_after / 3.0
        )
        self._now = as_now(clock, default=lambda: 0.0)
        self.obs = (obs if obs is not None else NULL).scoped(
            peer=relay_id, side="relay"
        )
        self._rng = rng or random.Random(zlib.crc32(relay_id.encode()))
        #: Our RTCP identity when we originate upstream feedback.
        self.ssrc = generate_ssrc(self._rng)
        self.downstreams: dict[str, RelayDownstream] = {}
        self._last_upstream_pli = float("-inf")
        self._attach_upstream(upstream)
        #: The downstream feedback loop: quarantine mute, silence-driven
        #: pruning of dead downstreams, pruning of closed ones.
        self.ingress = PeerIngress(
            self._now, liveness,
            on_rtcp=self._handle_downstream_rtcp,
            on_rtp=self._forward_hip,
            on_gone=self._prune_downstream,
            obs=self.obs,
        )
        self.quarantine = self.ingress.quarantine
        self.downstream_liveness = self.ingress.liveness
        #: Parent-death detection (drives failover in the tree layer).
        self.upstream_liveness = (
            LivenessTracker(
                self._now, liveness,
                instrumentation=self.obs.scoped(link="upstream"),
            )
            if liveness is not None else None
        )
        if self.upstream_liveness is not None:
            self.upstream_liveness.track("upstream")
        #: True once :meth:`crash` ran (chaos scripting): the node is
        #: dead — pump() is a no-op and transports are closed.
        self.crashed = False
        #: Current overload degradation factor on downstream tiers.
        self.rate_scale = 1.0
        #: Failover interval awaiting its span mark: set by
        #: :meth:`replace_upstream`, consumed by the first forwarded
        #: update through the new parent.
        self._pending_failover: float | None = None

        self.packets_forwarded = 0
        self.downstreams_pruned = 0
        self.failovers = 0
        self.duplicates_dropped = 0
        self.malformed_dropped = 0
        self.nacks_received = 0
        self.absorbed_nacks = 0
        self.nacks_deduplicated = 0
        self.upstream_nacks = 0
        self.upstream_nacked_seqs = 0
        self.plis_received = 0
        self.upstream_plis = 0
        self.plis_suppressed = 0
        self.hip_forwarded = 0
        self.gave_up = 0

        obs_ = self.obs
        self._c_forwarded = obs_.counter("relay.forwarded_packets")
        self._c_fwd_bytes = obs_.counter("relay.forwarded_bytes")
        self._c_duplicates = obs_.counter("relay.duplicates_dropped")
        self._c_malformed = obs_.counter("relay.malformed_dropped")
        self._c_nacks_in = obs_.counter("relay.nacks_received")
        self._c_absorbed = obs_.counter("relay.absorbed_nacks")
        self._c_deduped = obs_.counter("relay.nacks_deduplicated")
        self._c_up_nacks = obs_.counter("relay.upstream_nacks")
        self._c_up_seqs = obs_.counter("relay.upstream_nacked_seqs")
        self._c_plis_in = obs_.counter("relay.plis_received")
        self._c_up_plis = obs_.counter("relay.upstream_plis")
        self._c_plis_suppressed = obs_.counter("relay.plis_suppressed")
        self._c_retx_served = obs_.counter("relay.retransmits_served")
        self._c_queue_drops = obs_.counter("relay.queue_drops")
        self._c_hip = obs_.counter("relay.hip_forwarded")
        self._c_gave_up = obs_.counter("relay.gave_up")
        self._g_downstreams = obs_.gauge("relay.downstreams")
        self._h_hop = obs_.histogram("relay.hop_seconds")
        self._c_pruned = {
            reason: obs_.counter("relay.downstream_pruned", reason=reason)
            for reason in ("closed", "dead")
        }
        self._c_failovers = obs_.counter("health.failovers")
        self._c_upstream_dead = obs_.counter("health.upstream_dead")

    # -- Topology ----------------------------------------------------------

    def add_downstream(
        self,
        downstream_id: str,
        transport: PacketTransport,
        rate_bps: int | None = None,
    ) -> RelayDownstream:
        """Attach one consumer, optionally inside a rate tier."""
        if downstream_id in self.downstreams:
            raise ValueError(
                f"downstream {downstream_id!r} already attached"
            )
        limiter = (
            TokenBucket(
                rate_bps, now=self._now,
                instrumentation=self.obs.scoped(downstream=downstream_id),
            )
            if rate_bps
            else None
        )
        downstream = RelayDownstream(
            downstream_id, transport, limiter, base_rate_bps=rate_bps
        )
        if limiter is not None and self.rate_scale != 1.0:
            # Joining a degraded relay puts you straight on the
            # degraded tier.
            limiter.rate_bps = max(1, int(rate_bps * self.rate_scale))
        self.downstreams[downstream_id] = downstream
        self.ingress.add(downstream_id, transport)
        self._g_downstreams.set(len(self.downstreams))
        return downstream

    def remove_downstream(self, downstream_id: str) -> None:
        downstream = self.downstreams.pop(downstream_id, None)
        if downstream is None:
            return
        downstream.queue.clear()
        for ext in list(self._wanted):
            waiters = self._wanted[ext]
            waiters.discard(downstream_id)
            if not waiters:
                # Nobody else wants the packet: stop escalating for it.
                del self._wanted[ext]
        self.ingress.remove(downstream_id)
        self._g_downstreams.set(len(self.downstreams))

    def _prune_downstream(self, downstream_id: str, reason: str) -> None:
        """Evict one downstream the relay gave up on (closed or dead)."""
        if downstream_id not in self.downstreams:
            return
        self.remove_downstream(downstream_id)
        self.downstreams_pruned += 1
        self._c_pruned[reason].inc()
        if self.obs.enabled:
            self.obs.event(
                "relay.downstream_pruned",
                downstream=downstream_id, reason=reason,
            )

    def scale_rate_tiers(self, factor: float) -> None:
        """Scale every downstream tier (overload degradation ladder).

        ``factor`` multiplies the *configured* rates, so repeated calls
        do not compound and ``factor=1.0`` restores the original tiers.
        Downstreams without a tier are unaffected.
        """
        if factor <= 0:
            raise ValueError("rate scale factor must be positive")
        self.rate_scale = factor
        for downstream in self.downstreams.values():
            if downstream.limiter is not None and downstream.base_rate_bps:
                downstream.limiter.rate_bps = max(
                    1, int(downstream.base_rate_bps * factor)
                )

    def crash(self) -> None:
        """Chaos hook: the relay process dies right now.

        The node stops pumping and closes its transports.  Datagram
        peers have no FIN to observe — parents and children notice the
        death only through liveness silence, exactly as on a real UDP
        path."""
        self.crashed = True
        self.upstream.close()
        for downstream in self.downstreams.values():
            downstream.transport.close()

    def replace_upstream(
        self, transport: PacketTransport,
        failover_started: float | None = None,
    ) -> None:
        """Re-parent onto a new upstream path (failover).

        Resets upstream liveness, forces a PLI through regardless of
        the valve (the new parent must serve a full refresh so the
        orphaned subtree resyncs), and remembers the failover interval:
        the first update forwarded through the new parent carries a
        ``failover`` span stage from detection to that forward.
        """
        now = self._now()
        self._attach_upstream(transport)
        if self.upstream_liveness is not None:
            self.upstream_liveness.forget("upstream")
            self.upstream_liveness.track("upstream")
        self.failovers += 1
        self._c_failovers.inc()
        self._pending_failover = (
            failover_started if failover_started is not None else now
        )
        # A failover resync outranks the anti-storm valve.
        self._last_upstream_pli = float("-inf")
        self._request_upstream_pli()
        if self.obs.enabled:
            self.obs.event("health.failover", relay=self.id)

    def _attach_upstream(self, transport: PacketTransport) -> None:
        """Fresh receive state for a (new) upstream path.

        A parent is one RTP sender — its own SSRC and sequence space —
        so nothing keyed by sequence number may survive a change of
        parent: gap tracking, the retry machine and the report
        baseline (a new leg), duplicate suppression, the waiter table
        and the retransmit cache (16-bit lookups would collide across
        streams and serve stale packets).
        """
        #: The upstream receive side; its RRs are the heartbeat that
        #: keeps an idle relay alive in its parent's eyes.
        self.leg = ReceiveLeg(
            transport, self._now, self.ssrc,
            cname=f"relay/{self.id}", rng=self._rng,
            rtcp_interval=self.heartbeat_interval, obs=self.obs,
        )
        self.cache = RetransmitCache(
            RETRANSMIT_CACHE_PACKETS, instrumentation=self.obs
        )
        #: Extended-sequence view of the forwarded stream, shared by the
        #: duplicate filter and the waiter table.
        self._extender = SequenceExtender()
        #: Extended seqs already fanned out (bounded by FORWARDED_WINDOW).
        self._forwarded: set[int] = set()
        #: Extended seq → downstream ids still waiting for it (cache
        #: misses pending upstream recovery).
        self._wanted: dict[int, set[str]] = {}

    @property
    def upstream(self) -> PacketTransport:
        return self.leg.transport

    @property
    def downstream_count(self) -> int:
        return len(self.downstreams)

    # -- The pump ----------------------------------------------------------

    def pump(self) -> int:
        """One service round: upstream in, feedback in, escalate, drain.

        Returns the number of upstream packets processed (media and
        RTCP), so callers can loop until quiescent.
        """
        if self.crashed:
            return 0
        processed = self._pump_upstream()
        self.ingress.drain()
        self._poll_escalation()
        self._drain_queues()
        self.leg.send_report()
        self._poll_liveness()
        return processed

    def _pump_upstream(self) -> int:
        processed = 0
        for raw in self.upstream.receive_packets():
            processed += 1
            if self.upstream_liveness is not None:
                self.upstream_liveness.note_alive("upstream")
            try:
                if is_rtcp(raw):
                    self._handle_upstream_rtcp(raw)
                else:
                    self._handle_upstream_rtp(raw)
            except ProtocolError:
                self.malformed_dropped += 1
                self._c_malformed.inc()
        return processed

    def _forward_hip(self, downstream_id: str, raw: bytes) -> None:
        # HIP input: the relay is transparent to the control plane —
        # forward upstream verbatim so floor control stays at the AH.
        self.upstream.send_packet(raw)
        self.hip_forwarded += 1
        self._c_hip.inc()

    def _poll_liveness(self) -> None:
        """Silence-driven eviction: prune dead downstreams, flag a dead
        parent for the tree layer's failover machinery."""
        self.ingress.poll_liveness()
        if self.upstream_liveness is not None:
            report = self.upstream_liveness.poll()
            if "upstream" in report.newly_dead:
                self._c_upstream_dead.inc()
                if self.obs.enabled:
                    self.obs.event("health.upstream_dead", relay=self.id)

    @property
    def upstream_dead(self) -> bool:
        """True when the parent path is known dead (silence or close).

        ``upstream.closed`` only fires for stream transports and local
        closes; on datagram paths death is visible purely through the
        liveness tracker's silence thresholds.
        """
        if self.upstream.closed:
            return True
        if self.upstream_liveness is None:
            return False
        return self.upstream_liveness.state_of("upstream") is PeerState.DEAD

    # -- Upstream media ----------------------------------------------------

    def _handle_upstream_rtp(self, raw: bytes) -> None:
        packet, _recovered = self.leg.receive_rtp(raw)
        if packet is None:
            return
        seq = packet.sequence_number
        ext = self._extender.extend(seq)
        waiters = self._wanted.pop(ext, None)
        if ext in self._forwarded:
            # Already fanned out once.  Re-forward only to waiters
            # whose copy aged out of the cache; otherwise this is
            # upstream duplicate noise and it stops here.
            if waiters:
                self.cache.store(seq, raw)
                for downstream_id in waiters:
                    downstream = self.downstreams.get(downstream_id)
                    if downstream is not None:
                        self._serve_retransmit(downstream, raw)
            else:
                self.duplicates_dropped += 1
                self._c_duplicates.inc()
            return
        self._forwarded.add(ext)
        self._trim_forwarded(ext)
        self.cache.store(seq, raw)
        spans = self.obs.spans
        if spans.enabled:
            span_id = spans.resolve(packet.ssrc, seq)
            if span_id is not None:
                spans.mark(span_id, "relay")
                if self._pending_failover is not None:
                    # First update through the new parent: the failover
                    # stage spans detection → this forward.
                    spans.mark(
                        span_id, "failover",
                        start=self._pending_failover, end=self._now(),
                    )
        self._pending_failover = None
        hop_latency = self.leg.latency_of(packet.timestamp)
        if hop_latency is not None:
            self._h_hop.observe(hop_latency)
        for downstream in list(self.downstreams.values()):
            self._deliver(downstream, raw)
        self.packets_forwarded += 1
        self._c_forwarded.inc()
        self._c_fwd_bytes.inc(len(raw))

    def _handle_upstream_rtcp(self, raw: bytes) -> None:
        self.leg.receive_rtcp(raw)
        # Fan the AH's RTCP to every downstream: leaf participants use
        # the SRs for latency estimation exactly as on a direct path.
        for downstream in list(self.downstreams.values()):
            self._deliver(downstream, raw)

    def _trim_forwarded(self, newest_ext: int) -> None:
        if len(self._forwarded) <= 2 * FORWARDED_WINDOW:
            return
        horizon = newest_ext - FORWARDED_WINDOW
        self._forwarded = {e for e in self._forwarded if e >= horizon}

    # -- Downstream feedback -----------------------------------------------

    def _handle_downstream_rtcp(self, downstream_id: str, raw: bytes) -> None:
        try:
            messages = decode_compound(raw)
        except ProtocolError as exc:
            self.malformed_dropped += 1
            self._c_malformed.inc()
            self.quarantine.record_rejection(downstream_id, "relay-rtcp", exc)
            return
        downstream = self.downstreams[downstream_id]
        for message in messages:
            if isinstance(message, GenericNack):
                self._handle_nack(downstream, message)
            elif isinstance(message, PictureLossIndication):
                self.plis_received += 1
                self._c_plis_in.inc()
                self._request_upstream_pli()
            # RRs and SDES are absorbed: the upstream never sees
            # per-viewer reception reports.

    def _handle_nack(
        self, downstream: RelayDownstream, nack: GenericNack
    ) -> None:
        self.nacks_received += 1
        self._c_nacks_in.inc()
        for seq in nack.sequence_numbers():
            encoded = self.cache.lookup(seq)
            if encoded is not None:
                self._serve_retransmit(downstream, encoded)
                self.absorbed_nacks += 1
                self._c_absorbed.inc()
                continue
            # Cache miss: remember who wants it; the recovery machine
            # escalates each missing seq upstream exactly once (then on
            # its own retry schedule), however many viewers ask.
            ext = self._extender.extend(seq)
            waiters = self._wanted.get(ext)
            if waiters is None:
                self._wanted[ext] = {downstream.downstream_id}
            else:
                waiters.add(downstream.downstream_id)
                self.nacks_deduplicated += 1
                self._c_deduped.inc()

    def _request_upstream_pli(self) -> None:
        now = self._now()
        if now - self._last_upstream_pli < PLI_MIN_INTERVAL:
            self.plis_suppressed += 1
            self._c_plis_suppressed.inc()
            return
        self._last_upstream_pli = now
        self.leg.send_pli()
        self.upstream_plis += 1
        self._c_up_plis.inc()

    # -- Escalation --------------------------------------------------------

    def _poll_escalation(self) -> None:
        """Advance the single upstream recovery machine.

        Its missing set is the union of the relay's own reception gaps
        and every cache-missed downstream request — one state machine,
        so one upstream NACK per missing packet regardless of fan-in.
        """
        actions = self.leg.poll_recovery(
            [ext & 0xFFFF for ext in self._wanted]
        )
        if actions.nack_now:
            nacks = len(self.leg.send_nacks(actions.nack_now))
            self.upstream_nacks += nacks
            self._c_up_nacks.inc(nacks)
            self.upstream_nacked_seqs += len(actions.nack_now)
            self._c_up_seqs.inc(len(actions.nack_now))
        if actions.gave_up:
            for seq in actions.gave_up:
                self._wanted.pop(self._extender.extend(seq), None)
            self.gave_up += len(actions.gave_up)
            self._c_gave_up.inc(len(actions.gave_up))
            # Retries exhausted: the subtree can only heal via a full
            # refresh, which the PLI valve still rate-limits.
            self._request_upstream_pli()

    # -- Downstream delivery -----------------------------------------------

    def _deliver(self, downstream: RelayDownstream, raw: bytes) -> None:
        if downstream.limiter is not None and (
            downstream.queue
            or not downstream.limiter.try_consume(len(raw))
        ):
            downstream.queue.append(raw)
            if len(downstream.queue) > FORWARD_QUEUE_PACKETS:
                downstream.queue.popleft()
                downstream.queue_drops += 1
                self._c_queue_drops.inc()
            return
        self._send_now(downstream, raw)

    def _serve_retransmit(
        self, downstream: RelayDownstream, raw: bytes
    ) -> None:
        # Retransmissions bypass the rate tier, matching the AH's own
        # scheduler: repair latency beats strict pacing.
        self._send_now(downstream, raw)
        downstream.retransmits_served += 1
        self._c_retx_served.inc()

    def _send_now(self, downstream: RelayDownstream, raw: bytes) -> None:
        downstream.transport.send_packet(raw)
        downstream.packets_sent += 1
        downstream.bytes_sent += len(raw)

    def _drain_queues(self) -> None:
        for downstream in list(self.downstreams.values()):
            limiter = downstream.limiter
            queue = downstream.queue
            while queue:
                raw = queue[0]
                if limiter is not None and not limiter.try_consume(len(raw)):
                    break
                queue.popleft()
                self._send_now(downstream, raw)

    # -- Introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """Flat counters for reports and the hosted-relay describe()."""
        return {
            "relay_id": self.id,
            "downstreams": len(self.downstreams),
            "downstreams_pruned": self.downstreams_pruned,
            "failovers": self.failovers,
            "rate_scale": self.rate_scale,
            "crashed": self.crashed,
            "upstream_dead": self.upstream_dead,
            "quarantined": self.quarantine.quarantined_peers,
            "packets_forwarded": self.packets_forwarded,
            "duplicates_dropped": self.duplicates_dropped,
            "nacks_received": self.nacks_received,
            "absorbed_nacks": self.absorbed_nacks,
            "nacks_deduplicated": self.nacks_deduplicated,
            "upstream_nacks": self.upstream_nacks,
            "upstream_nacked_seqs": self.upstream_nacked_seqs,
            "plis_received": self.plis_received,
            "upstream_plis": self.upstream_plis,
            "plis_suppressed": self.plis_suppressed,
            "hip_forwarded": self.hip_forwarded,
            "gave_up": self.gave_up,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
        }
