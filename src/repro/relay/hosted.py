"""Relays as first-class hosted endpoints in the :class:`SessionServer`.

A :class:`HostedRelay` is what a *relay* join code resolves to: a
:class:`~repro.relay.node.RelayNode` hanging under a hosted session's
AH (or under another hosted relay) and the leaf participants joined
through it.  It is a
:class:`~repro.sharing.server.session.HostedEntry` like a hosted
session, so the server's one loop, the registry, ``stop()`` and the
introspection paths treat both uniformly; its ``round()`` pumps the
relay and then its viewers.

Relays are **media-plane** endpoints: joining through one wires RTP
directly (no SIP handshake — signalling stays at the root session's
front door), which is exactly the cascade model: the rendezvous
negotiates once, then the tree scales distribution.
"""

from __future__ import annotations

import random

from ..health.liveness import LivenessConfig
from ..net.channel import ChannelConfig
from ..sharing.participant import Participant
from ..sharing.server.errors import DuplicateParticipant, SessionClosed
from ..sharing.server.session import HostedEntry, HostedSession, SessionState
from .node import RelayNode
from .tree import attach_under, duplex_transport_pair


class HostedRelay(HostedEntry):
    """A relay node + joined viewers behind one join code."""

    closed_kind = "server.relay_closed"

    def __init__(
        self,
        code: str,
        parent,
        relay: RelayNode,
        clock,
        detach,
        obs=None,
        close_when_empty: bool = False,
        channel_config: ChannelConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(code, clock, obs, rng)
        #: The :class:`HostedSession` or :class:`HostedRelay` upstream.
        self.parent = parent
        self.relay = relay
        #: Unhooks the relay from its upstream on close.
        self._detach = detach
        self.close_when_empty = close_when_empty
        self.channel_config = channel_config or ChannelConfig(delay=0.01)
        self.viewers: dict[str, Participant] = {}
        self._had_viewer = False

    # -- Viewer lifecycle ---------------------------------------------------

    def join(
        self,
        name: str,
        channel_config: ChannelConfig | None = None,
        rate_bps: int | None = None,
        **participant_kwargs,
    ) -> Participant:
        """Wire one viewer's media path through this relay.

        The participant's join PLI goes to the relay; the relay's PLI
        valve turns a burst of joiners into at most one upstream full
        refresh per ``pli_min_interval``.
        """
        if self.state is not SessionState.OPEN:
            raise SessionClosed(self.code)
        if name in self.viewers:
            raise DuplicateParticipant(self.code, name)
        cfg = channel_config or self.channel_config
        relay_side, viewer_side = duplex_transport_pair(
            cfg, self.clock, obs=self.obs
        )
        self.relay.add_downstream(name, relay_side, rate_bps=rate_bps)
        participant = Participant(
            name, viewer_side, clock=self.clock, obs=self.obs,
            rng=random.Random(self._rng.randrange(1 << 30)),
            **participant_kwargs,
        )
        participant.join()
        self.viewers[name] = participant
        self._had_viewer = True
        if self.obs.enabled:
            self.obs.event("server.relay_join", relay=self.code, peer=name)
        return participant

    def leave(self, name: str) -> None:
        """Drop one viewer; idempotent."""
        if self.viewers.pop(name, None) is None:
            return
        self.relay.remove_downstream(name)
        if (
            self.close_when_empty
            and self._had_viewer
            and not self.viewers
            and self.state is SessionState.OPEN
        ):
            self.close(reason="empty")

    @property
    def participant_count(self) -> int:
        return len(self.viewers)

    # -- The service round --------------------------------------------------

    def round(self) -> None:
        """Pump the relay, then its viewers; follow a closed parent."""
        if self.parent.state is not SessionState.OPEN:
            self.close(reason="parent_closed")
            return
        self.relay.pump()
        for viewer in list(self.viewers.values()):
            viewer.process_incoming()

    # -- Teardown -----------------------------------------------------------

    def _teardown(self) -> None:
        # Idempotent upstream, so a parent that closed first is fine.
        self._detach()
        self.viewers.clear()

    def snapshot(self) -> dict:
        """One JSON-friendly row for ``SessionServer.relays()``."""
        return {
            "code": self.code,
            "state": self.state.value,
            "parent": self.parent.code,
            "viewers": sorted(self.viewers),
            "uptime": self.clock.now() - self.created_at,
            **self.relay.snapshot(),
        }


def attach_hosted_relay(
    parent,
    code: str,
    clock,
    relay_id: str | None = None,
    channel_config: ChannelConfig | None = None,
    rate_bps: int | None = None,
    liveness: LivenessConfig | None = None,
    obs=None,
    close_when_empty: bool = False,
    rng: random.Random | None = None,
) -> HostedRelay:
    """Build the relay + upstream hop for one ``host_relay`` call.

    ``parent`` is the :class:`HostedSession` (root hop: the AH sees one
    ``is_group`` destination) or another :class:`HostedRelay` (interior
    hop: the parent relay sees one downstream).
    """
    if parent.state is not SessionState.OPEN:
        raise SessionClosed(parent.code)
    rid = relay_id or f"relay-{code.lower()}"
    cfg = channel_config or ChannelConfig(delay=0.01)
    upstream_side, relay_side = duplex_transport_pair(cfg, clock, obs=obs)
    if isinstance(parent, HostedSession):
        upstream = parent.ah
    elif isinstance(parent, HostedRelay):
        upstream = parent.relay
    else:
        raise TypeError(
            "a relay chains under a HostedSession or another HostedRelay, "
            f"not {type(parent).__name__}"
        )
    detach = attach_under(upstream, rid, upstream_side, rate_bps)
    node = RelayNode(
        rid, relay_side, clock=clock, liveness=liveness,
        rng=rng, obs=obs,
    )
    return HostedRelay(
        code, parent, node, clock, detach,
        obs=obs, close_when_empty=close_when_empty,
        channel_config=cfg, rng=rng,
    )
