"""One hosted sharing session: an AH, its core, and its service round.

A :class:`HostedSession` is what a join code resolves to.  It owns the
:class:`~repro.sharing.ah.ApplicationHost` and the per-session
:class:`~repro.sharing.server.core.SessionCore`, and the server's one
loop calls its :meth:`~HostedSession.round` once per step:

* the **signalling** half drains SIP both ways and auto-answers the
  remote peers the front door created;
* the **media** half runs one capture→distribute→receive round,
  computing ``dt`` from the server clock so sessions tolerate uneven
  stepping.  Every round, idle ones included, also gives each
  destination's RTCP reporter its send opportunity, so reports need no
  timer of their own.

:class:`HostedEntry` is the whole contract the server has with what it
registers (sessions here, relays in :mod:`repro.relay.hosted`):
``code``, ``state``, ``participant_count``, ``round()``,
``close(reason)`` and ``snapshot()``.
"""

from __future__ import annotations

import enum
import random
import zlib

from ...health.liveness import LivenessConfig
from ...obs.instrumentation import NULL
from ..ah import ApplicationHost
from ..config import SharingConfig
from ..signalling import RemotePeer, SignallingBinding
from .core import SessionCore
from .errors import DuplicateParticipant, SessionClosed


class SessionState(enum.Enum):
    OPEN = "open"
    CLOSING = "closing"
    CLOSED = "closed"


class HostedEntry:
    """What a join code resolves to, as the server's loop sees it.

    Subclasses add ``participant_count``, ``round()`` (one unit of
    service; the loop calls it once per step while ``state`` is OPEN),
    ``_teardown()`` (the entry-specific half of :meth:`close`) and
    ``snapshot()``.
    """

    #: The obs event emitted on close, with the reason.
    closed_kind = ""

    def __init__(self, code: str, clock, obs, rng) -> None:
        self.code = code
        self.clock = clock
        #: Entry-scoped facade: every metric/event below carries
        #: ``session=<code>``.
        self.obs = (obs if obs is not None else NULL).scoped(session=code)
        self._rng = rng or random.Random(zlib.crc32(code.encode()))
        self.state = SessionState.OPEN
        self.created_at = clock.now()
        self.on_close = None  # set by the server: callback(code)

    def close(self, reason: str = "closed") -> None:
        """Tear the entry down and unregister it.

        Idempotent; safe to call from inside the entry's own round
        (the loop sees the state flip and stops calling it).
        """
        if self.state is not SessionState.OPEN:
            return
        self.state = SessionState.CLOSING
        self._teardown()
        self.state = SessionState.CLOSED
        if self.obs.enabled:
            self.obs.event(self.closed_kind, reason=reason)
        if self.on_close is not None:
            self.on_close(self.code)

    def give_up(self, exc: BaseException) -> None:
        """The supervisor's last word: the restart budget is spent."""
        self.close(reason="supervisor_give_up")


class HostedSession(HostedEntry):
    """AH + core behind one join code."""

    closed_kind = "server.session_closed"

    def __init__(
        self,
        code: str,
        clock,
        config: SharingConfig | None = None,
        screen_width: int = 1280,
        screen_height: int = 1024,
        channel_config=None,
        rate_bps: int | None = None,
        rng: random.Random | None = None,
        obs=None,
        close_when_empty: bool = True,
        liveness: LivenessConfig | None = None,
    ) -> None:
        super().__init__(code, clock, obs, rng)
        self.ah = ApplicationHost(
            screen_width=screen_width,
            screen_height=screen_height,
            config=config,
            clock=clock,
            rng=self._rng,
            obs=self.obs,
            liveness=liveness,
        )
        self.core = SessionCore(
            self.ah,
            clock,
            uri=f"sip:ah-{code}@server",
            channel_config=channel_config,
            rng=self._rng,
            rate_bps=rate_bps,
            obs=self.obs,
        )
        self.close_when_empty = close_when_empty
        #: Remote peers the front door manages, keyed by participant name.
        self.peers: dict[str, RemotePeer] = {}
        self._last_media = clock.now()

    # -- Front-door participant lifecycle -----------------------------------

    def add_peer(self, name: str, prefer_transport: str = "tcp") -> RemotePeer:
        """Create the remote side of one join and start its INVITE."""
        if self.state is not SessionState.OPEN:
            raise SessionClosed(self.code)
        if name in self.peers or self.core.call_for(name) is not None:
            raise DuplicateParticipant(self.code, name)
        binding = SignallingBinding(name)
        peer = RemotePeer(
            f"sip:{name}@{self.code.lower()}",
            binding,
            prefer_transport=prefer_transport,
            rng=random.Random(self._rng.randrange(1 << 30)),
        )
        self.peers[name] = peer
        self.core.invite(name, peer.endpoint, binding=binding)
        return peer

    def drop_peer(self, name: str) -> None:
        self.peers.pop(name, None)

    @property
    def participant_count(self) -> int:
        return len(self.core.call_names())

    # -- The service round --------------------------------------------------

    def round(self) -> None:
        """Signalling both ways, then one media round."""
        self.core.pump_signalling()
        departed = []
        for name, peer in self.peers.items():
            peer.pump()
            if peer.terminated and self.core.call_for(name) is None:
                departed.append(name)
        for name in departed:
            self.drop_peer(name)
        self._maybe_close_when_empty()
        if self.state is not SessionState.OPEN:
            return
        now = self.clock.now()
        dt = now - self._last_media
        self._last_media = now
        # dt=0 rounds still run: they drain transports mid-handshake
        # and flush the initial full sync while the clock is parked.
        self.core.media_round(dt)
        # Silence-driven eviction (no-op unless liveness is
        # configured); the next round's signalling half notices the
        # emptied session and applies close_when_empty.
        self.core.poll_liveness()

    def _maybe_close_when_empty(self) -> None:
        if (
            self.close_when_empty
            # Only a session that once had an *established* participant
            # closes on empty; failed handshakes don't count.
            and self.core.joins_completed > 0
            and self.state is SessionState.OPEN
            and not self.core.call_names()
        ):
            self.close(reason="empty")

    # -- Teardown -----------------------------------------------------------

    def _teardown(self) -> None:
        """BYE every call, abort the half-open ones, stop the AH."""
        self.core.hang_up_all()
        # What is left never established: its joiner is still waiting
        # on the call's watchers, and learns here that it was raced.
        for name in self.core.call_names():
            self.core.abort(name)
        # Deliver the BYEs to the remote peers.
        for peer in list(self.peers.values()):
            peer.pump()
        self.peers.clear()
        self.ah.close()  # joins the encode pool's threads

    def snapshot(self) -> dict:
        """One JSON-friendly row for ``SessionServer.sessions()``."""
        row = {
            "code": self.code,
            "state": self.state.value,
            "participants": sorted(self.core.call_names()),
            "established": sorted(self.core.active_calls()),
            "uptime": self.clock.now() - self.created_at,
            "bytes_sent": self.ah.total_bytes_sent(),
            "packets_sent": self.ah.total_packets_sent(),
        }
        if self.ah.liveness is not None:
            row["liveness"] = self.ah.liveness.snapshot()
        return row
