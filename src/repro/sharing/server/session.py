"""One hosted sharing session: an AH, its core, and its task group.

A :class:`HostedSession` is what a join code resolves to.  It owns the
:class:`~repro.sharing.ah.ApplicationHost`, the per-session
:class:`~repro.sharing.server.core.SessionCore`, and — once the server
starts it — two asyncio tasks:

* the **signalling pump** drains SIP both ways and auto-answers the
  remote peers the front door created;
* the **media pump** runs capture→distribute→receive rounds, computing
  ``dt`` from the server clock so sessions tolerate uneven scheduling.
  Every round — idle ones included — also gives each destination's
  RTCP reporter its send opportunity, so reports need no timer task of
  their own.

Every task iteration ends by yielding to the event loop, so hundreds
of sessions interleave fairly and per-session work never blocks the
process.
"""

from __future__ import annotations

import asyncio
import enum
import random

from ...health.liveness import LivenessConfig
from ...health.supervisor import TaskSupervisor
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


class HostedSession:
    """AH + core + task group behind one join code."""

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
        cooperative_budget: int | None = 256,
        close_when_empty: bool = True,
        tick: float = 0.02,
        liveness: LivenessConfig | None = None,
        supervisor: TaskSupervisor | None = None,
    ) -> None:
        self.code = code
        self.clock = clock
        #: Session-scoped facade: every metric/event below carries
        #: ``session=<code>``.
        self.obs = (obs if obs is not None else NULL).scoped(session=code)
        self._rng = rng or random.Random(hash(code) & 0xFFFF)
        #: Crash-restart supervision for the pump tasks (None = bare
        #: tasks, the historical behaviour).
        self.supervisor = supervisor
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
            cooperative_budget=cooperative_budget,
        )
        self.state = SessionState.OPEN
        self.close_when_empty = close_when_empty
        self.tick = tick
        self.created_at = clock.now()
        #: Remote peers the front door manages, keyed by participant name.
        self.peers: dict[str, RemotePeer] = {}
        self._tasks: list[asyncio.Task] = []
        self.closed_event = asyncio.Event()
        self.on_close = None  # set by the server: callback(code)
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

    # -- The task group -----------------------------------------------------

    def start(self, *, realtime: bool = False) -> list[asyncio.Task]:
        """Spawn the session's tasks on the running loop.

        With a supervisor, each pump runs inside a crash-restart loop:
        an uncaught exception restarts the pump with backoff instead of
        silently wedging the session, and exhausting the restart budget
        closes the session cleanly (``reason="supervisor_give_up"``).
        """
        if self._tasks:
            raise RuntimeError(f"session {self.code} already started")
        name = f"session-{self.code}"
        pumps = [
            (f"{name}-signalling", self._signalling_pump),
            (f"{name}-media", lambda: self._media_pump(realtime)),
        ]
        if self.supervisor is not None:
            give_up = lambda exc: self.close(  # noqa: E731
                reason="supervisor_give_up"
            )
            self._tasks = [
                self.supervisor.supervise(
                    factory, task_name, on_give_up=give_up
                )
                for task_name, factory in pumps
            ]
        else:
            self._tasks = [
                asyncio.create_task(factory(), name=task_name)
                for task_name, factory in pumps
            ]
        return self._tasks

    async def _signalling_pump(self) -> None:
        while self.state is SessionState.OPEN:
            self.core.pump_signalling()
            departed = []
            for name, peer in self.peers.items():
                peer.pump()
                if peer.terminated and self.core.call_for(name) is None:
                    departed.append(name)
            for name in departed:
                self.drop_peer(name)
            self._maybe_close_when_empty()
            await asyncio.sleep(0)

    async def _media_pump(self, realtime: bool) -> None:
        while self.state is SessionState.OPEN:
            now = self.clock.now()
            dt = now - self._last_media
            self._last_media = now
            # dt=0 rounds still run: they drain transports mid-handshake
            # and flush the initial full sync while the clock is parked.
            self.core.media_round(dt)
            # Silence-driven eviction (no-op unless liveness is
            # configured); the signalling pump notices the emptied
            # session and applies close_when_empty.
            self.core.poll_liveness()
            if realtime:
                await asyncio.sleep(self.tick)
            else:
                await asyncio.sleep(0)

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

    def close(self, reason: str = "closed") -> None:
        """Stop the session: BYE every call, cancel tasks, unregister.

        Idempotent; safe to call from inside one of the session's own
        tasks (tasks observe the state flip and exit on their next
        iteration; cross-task cancellation happens on the server's
        close path).
        """
        if self.state is not SessionState.OPEN:
            return
        self.state = SessionState.CLOSING
        self.core.hang_up_all()
        # Deliver the BYEs so in-flight joiners learn they were raced.
        for peer in list(self.peers.values()):
            try:
                peer.pump()
            except Exception:
                pass
        self.peers.clear()
        self.ah.close()  # joins the encode pool's threads
        self.state = SessionState.CLOSED
        if self.obs.enabled:
            self.obs.event("server.session_closed", reason=reason)
        self.closed_event.set()
        for task in self._tasks:
            if task is not asyncio.current_task():
                task.cancel()
        self._tasks = []
        if self.on_close is not None:
            self.on_close(self.code)

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
