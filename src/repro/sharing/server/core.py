"""The per-session engine shared by the sync service and the server.

One :class:`SessionCore` is the signalling-plus-media machinery for a
single hosted Application Host: it owns the SIP endpoints, the
service-side :class:`~repro.sharing.signalling.SignallingBinding`
queues, the negotiated media wiring, and the participant lifecycle.
The synchronous :class:`~repro.sharing.service.SharingService` steps
one of these on its own :class:`~repro.net.world.World`; the
:class:`~repro.sharing.server.SessionServer` hosts hundreds of them,
all stepped from its one loop.

The split keeps every method here non-blocking and clock-agnostic:

* :meth:`pump_signalling` drains queued SIP both ways (bounded work);
* :meth:`media_round` runs one capture→distribute→receive round
  *without* advancing the clock — the driver's world owns time;
* :meth:`poll_rtcp` gives reports a chance to go out between media
  rounds (RTCP interval logic lives in the reporters themselves).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ...net.channel import ChannelConfig, duplex_lossy, duplex_reliable
from ...sdp import build_ah_offer, negotiate, parse_sdp
from ...sip.dialog import DialogState, SipEndpoint
from ..ah import ApplicationHost
from ..participant import Participant
from ..signalling import SignallingBinding
from ..transport import DatagramTransport, StreamTransport


@dataclass(slots=True)
class CoreCall:
    """One participant's signalling + media state."""

    sip: SipEndpoint
    binding: SignallingBinding
    participant: Participant | None = None
    invited_at: float = 0.0
    established_at: float | None = None
    transport_kind: str = ""
    #: Observers notified on answer/bye (the server's join futures).
    watchers: list = field(default_factory=list)


class SessionCore:
    """Signalling front door + media wiring for one hosted AH."""

    def __init__(
        self,
        ah: ApplicationHost,
        clock,
        uri: str = "sip:ah@host",
        channel_config: ChannelConfig | None = None,
        rng: random.Random | None = None,
        rate_bps: int | None = None,
        obs=None,
    ) -> None:
        if not callable(getattr(clock, "now", None)):
            raise TypeError("SessionCore needs a clock with now()")
        self.ah = ah
        self.clock = clock
        self.uri = uri
        self.channel_config = channel_config or ChannelConfig(delay=0.01)
        self._rng = rng or random.Random(7)
        #: Token-bucket tier attached to UDP participants (section 4.3).
        self.rate_bps = rate_bps
        self.obs = obs if obs is not None else ah.obs
        self._calls: dict[str, CoreCall] = {}
        #: Completed joins over the core's lifetime (distinct from the
        #: ``session.joins`` counter, which may be shared/labelled).
        self.joins_completed = 0
        self._h_join = self.obs.histogram("session.join_seconds")
        self._c_joins = self.obs.counter("session.joins")
        self._c_leaves = self.obs.counter("session.leaves")

    # -- Inviting -----------------------------------------------------------

    def invite(self, name: str, remote=None,
               binding: SignallingBinding | None = None) -> SignallingBinding:
        """Start signalling toward a remote party; returns the binding.

        ``remote`` may be a :class:`~repro.sip.dialog.SipEndpoint` (it
        is attached to the binding so its answers reach this core), a
        bare SIP URI string (attach an endpoint to the returned binding
        yourself), or None (the URI is derived from ``name``).  The
        core owns the signalling queues either way — callers never
        hand-wire inboxes.
        """
        if name in self._calls:
            raise ValueError(f"call {name!r} already exists")
        if binding is None:
            binding = SignallingBinding(name)
        if isinstance(remote, SipEndpoint):
            remote_uri = remote.uri
            if binding.remote is None:
                binding.attach_remote(remote)
        elif remote is None:
            remote_uri = f"sip:{name}@remote"
        else:
            remote_uri = str(remote)
        endpoint = SipEndpoint(
            self.uri,
            send=binding.send_to_remote,
            rng=self._rng,
            on_established=lambda sdp, n=name: self._on_answer(n, sdp),
            on_terminated=lambda n=name: self._on_bye(n),
        )
        call = CoreCall(endpoint, binding, invited_at=self.clock.now())
        self._calls[name] = call
        endpoint.invite(remote_uri, build_ah_offer().to_string())
        if self.obs.enabled:
            self.obs.event("session.invite", peer=name)
        return binding

    def pump_signalling(self) -> None:
        """Deliver queued remote→core SIP messages to our endpoints.

        A delivered BYE tears the call down, which mutates the call
        tables — iterate over a snapshot, and stop a call's drain the
        moment it disappears.
        """
        for name, call in list(self._calls.items()):
            def deliver(text: str, sip=call.sip, n=name) -> bool:
                sip.receive(text)
                return n in self._calls  # torn down mid-drain → stop
            call.binding.drain_to_service(deliver)

    # -- Media wiring -------------------------------------------------------

    def _on_answer(self, name: str, answer_sdp: str) -> None:
        """Participant answered: build the negotiated media path."""
        agreed = negotiate(parse_sdp(answer_sdp)) if answer_sdp.strip() else None
        transport_kind = agreed.transport if agreed else "tcp"
        link_obs = self.obs.scoped(peer=name)
        if transport_kind == "udp":
            link = duplex_lossy(
                self.channel_config, self.clock.now, instrumentation=link_obs
            )
            ah_transport = DatagramTransport(link.forward, link.backward)
            p_transport = DatagramTransport(link.backward, link.forward)
            self.ah.add_participant(
                name, ah_transport, rate_bps=self.rate_bps
            )
        else:
            link = duplex_reliable(
                self.channel_config, self.clock.now, instrumentation=link_obs
            )
            ah_transport = StreamTransport(link.forward, link.backward)
            p_transport = StreamTransport(link.backward, link.forward)
            self.ah.add_participant(name, ah_transport)
        participant = Participant(
            name, p_transport, clock=self.clock,
            config=self.ah.config, obs=self.obs,
            rng=random.Random(self._rng.randrange(1 << 30)),
        )
        participant.join()
        call = self._calls[name]
        call.participant = participant
        call.transport_kind = transport_kind
        call.established_at = self.clock.now()
        self.joins_completed += 1
        self._c_joins.inc()
        self._h_join.observe(call.established_at - call.invited_at)
        if self.obs.enabled:
            self.obs.event(
                "session.established", peer=name, transport=transport_kind
            )
        for watcher in call.watchers:
            watcher("established", call)

    def _on_bye(self, name: str) -> None:
        self.ah.remove_participant(name)
        call = self._calls.pop(name, None)
        if call is not None:
            call.participant = None
            self._c_leaves.inc()
            if self.obs.enabled:
                self.obs.event("session.bye", peer=name)
            for watcher in call.watchers:
                watcher("terminated", call)

    # -- Session control ----------------------------------------------------

    def hang_up(self, name: str) -> None:
        call = self._calls.get(name)
        if call is not None and call.sip.state is DialogState.ESTABLISHED:
            call.sip.bye()  # on_terminated removes the participant

    def hang_up_all(self) -> None:
        for name in list(self._calls):
            self.hang_up(name)

    def abort(self, name: str) -> None:
        """Drop a call whether or not its handshake ever completed.

        Established calls get a proper BYE; mid-handshake calls are
        simply forgotten (the join-timeout path), notifying watchers.
        """
        call = self._calls.get(name)
        if call is None:
            return
        if call.sip.state is DialogState.ESTABLISHED:
            self.hang_up(name)
            return
        self._calls.pop(name, None)
        self.ah.remove_participant(name)  # no-op when media never wired
        for watcher in call.watchers:
            watcher("aborted", call)

    def participant_for(self, name: str) -> Participant | None:
        call = self._calls.get(name)
        return call.participant if call else None

    def binding_for(self, name: str) -> SignallingBinding | None:
        call = self._calls.get(name)
        return call.binding if call else None

    def call_for(self, name: str) -> CoreCall | None:
        return self._calls.get(name)

    def active_calls(self) -> list[str]:
        return [
            name for name, call in self._calls.items()
            if call.sip.state is DialogState.ESTABLISHED
        ]

    def call_names(self) -> list[str]:
        """Every call, established or still signalling."""
        return list(self._calls)

    # -- Driving ------------------------------------------------------------

    def media_round(self, dt: float) -> None:
        """One capture→distribute→receive round; the caller owns time."""
        self.ah.advance(dt)
        self.receive()

    def receive(self) -> None:
        """Let every wired participant drain its media path."""
        for call in list(self._calls.values()):
            if call.participant is not None:
                call.participant.process_incoming()

    def poll_liveness(self) -> list[str]:
        """Evict dead-silent participants and drop their calls.

        The AH's tracker decides who is dead (no packets past the
        configured threshold); this layer reclaims the signalling
        state.  A dead peer cannot complete a BYE handshake, so the
        call is dropped directly and its watchers see ``"evicted"``.
        No-op when the AH has no liveness tracker configured.
        """
        evicted = self.ah.poll_liveness()
        for name in evicted:
            call = self._calls.pop(name, None)
            if call is not None:
                call.participant = None
                self._c_leaves.inc()
                if self.obs.enabled:
                    self.obs.event("session.evicted", peer=name)
                for watcher in call.watchers:
                    watcher("evicted", call)
        return evicted

    def poll_rtcp(self) -> None:
        """Give AH-side RTCP reports a send opportunity.

        The reporters rate-limit themselves (randomised RTCP interval),
        so polling between media rounds is cheap and idempotent.
        """
        for session in self.ah.sessions.values():
            session.send_report()
