"""The asyncio multi-session hosting server.

One :class:`SessionServer` process hosts hundreds of independent
sharing sessions: a :class:`~repro.sharing.server.registry.SessionRegistry`
keyed by join codes, one :class:`~repro.sharing.server.session.HostedSession`
per hosted AH, and a signalling front door —
:meth:`join` runs the INVITE/answer handshake through the existing
SIP/SDP stack and resolves once media is wired, :meth:`leave` BYEs.

One loop: the server owns the only asyncio task, and its body is the
synchronous :meth:`SessionServer.step` — one step of the server's
:class:`~repro.net.world.World`, whose entries are the clock tick and
then one ``round()`` per registered entry (sessions and relays) in
registration order, each under the restart policy.  The task is
``while running: step(); await sleep(0)``, so a 200-session simulation
runs as fast as the hardware allows and a driver that wants no event
loop at all can call :meth:`~SessionServer.step` itself.  Pass
``realtime=True`` to pace against the wall clock instead
(``time.monotonic``): the world then has no tick entry and the loop
sleeps ``tick`` between steps.

Usage::

    async with SessionServer() as server:
        code = server.host()                 # returns the join code
        viewer = await server.join(code, "alice")
        ...
        await server.leave(code, "alice")    # last leave closes the session
"""

from __future__ import annotations

import asyncio
import random
import time

from ...health.admission import AdmissionControl, AdmissionDecision, OverloadConfig
from ...health.liveness import LivenessConfig
from ...health.supervisor import RestartPolicy, TaskSupervisor
from ...net.channel import ChannelConfig
from ...net.world import World
from ...obs.instrumentation import NULL
from ...rtp.clock import SimulatedClock
from ..config import SharingConfig
from ..participant import Participant
from .errors import (
    JoinFailed,
    ServerError,
    ServerOverloaded,
    SessionClosed,
    UnknownJoinCode,
)
from .registry import SessionRegistry
from .session import HostedSession, SessionState


class _MonotonicClock:
    """The wall clock, shaped like :class:`SimulatedClock` (read-only)."""

    @staticmethod
    def now() -> float:
        return time.monotonic()

    def __call__(self) -> float:
        return time.monotonic()


class JoinedParticipant:
    """The caller's handle on one joined participant."""

    __slots__ = ("server", "code", "name", "participant", "peer", "binding")

    def __init__(self, server: "SessionServer", code: str, name: str,
                 participant: Participant, peer) -> None:
        self.server = server
        self.code = code
        self.name = name
        self.participant = participant
        self.peer = peer
        self.binding = peer.binding

    async def leave(self) -> None:
        await self.server.leave(self.code, self.name)


class SessionServer:
    """Host many signalled sharing sessions in one asyncio process."""

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        tick: float = 0.02,
        realtime: bool = False,
        channel_config: ChannelConfig | None = None,
        rng: random.Random | None = None,
        obs=None,
        join_timeout: float = 5.0,
        overload: OverloadConfig | None = None,
        restart_policy: RestartPolicy | None = None,
        liveness: LivenessConfig | None = None,
    ) -> None:
        self.realtime = realtime
        if clock is not None:
            self.clock = clock
        else:
            self.clock = _MonotonicClock() if realtime else SimulatedClock()
        self.tick = tick
        self.channel_config = channel_config or ChannelConfig(delay=0.01)
        self._rng = rng or random.Random(2007)
        self.obs = obs if obs is not None else NULL
        if self.obs is not NULL:
            self.obs.bind_clock(self.clock)
        self.registry = SessionRegistry(
            rng=random.Random(self._rng.randrange(1 << 30)), obs=self.obs
        )
        #: Wall-clock bound on one join handshake.
        self.join_timeout = join_timeout
        #: Capacity checks + the degrade/shed overload ladder.
        self.admission = AdmissionControl(overload, instrumentation=self.obs)
        #: Crash-restart strikes for every hosted entry's rounds.
        self.supervisor = TaskSupervisor(
            restart_policy, instrumentation=self.obs
        )
        #: Silence thresholds handed to every hosted AH (None keeps
        #: eviction off, the historical behaviour).
        self.liveness_config = liveness
        #: What one :meth:`step` runs: the clock tick (virtual time
        #: only), then every hosted entry's round.
        self.world = World(self.clock, tick)
        if not realtime:
            self.world.add(self.world.tick)
        self.world.add(self._serve)
        self._load_level = "ok"
        self._running = False
        self._loop_task: asyncio.Task | None = None
        self._c_joins = self.obs.counter("server.joins")
        self._c_join_failures = self.obs.counter("server.join_failures")
        self._c_leaves = self.obs.counter("server.leaves")
        self._h_join_wall = self.obs.histogram("server.join_wall_seconds")

    # -- Lifecycle ----------------------------------------------------------

    async def start(self) -> "SessionServer":
        if self._running:
            return self
        self._running = True
        self._loop_task = asyncio.create_task(
            self._loop(), name="server-loop"
        )
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for _code, entry in self.registry:
            entry.close(reason="server_stop")
        # The loop wakes from its sleep, sees the flag and returns.
        task, self._loop_task = self._loop_task, None
        await task

    async def __aenter__(self) -> "SessionServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def _loop(self) -> None:
        pause = self.tick if self.realtime else 0
        while self._running:
            self.step()
            await asyncio.sleep(pause)

    def step(self) -> None:
        """One service round for everything hosted; never awaits.

        Advances shared virtual time by ``tick`` (realtime mode reads
        the wall clock instead), then gives every registered entry one
        ``round()`` in registration order, so a relay always runs after
        the session or relay it hangs under.  A raising round is a
        strike against that entry alone (see
        :class:`~repro.health.supervisor.TaskSupervisor`); exhausting
        the restart budget closes it with
        ``reason="supervisor_give_up"``.
        """
        self.world.step()

    def _serve(self, _dt: float) -> None:
        # The registry iterates a snapshot, so entries may close (and
        # unregister) mid-step; an earlier round may have closed this one.
        for code, entry in self.registry:
            if entry.state is SessionState.OPEN:
                self.supervisor.run(code, entry.round, entry.give_up)

    # -- Overload protection ------------------------------------------------

    def participant_count(self) -> int:
        """Participants across every hosted session and relay."""
        return sum(
            entry.participant_count for _code, entry in self.registry
        )

    def session_count(self) -> int:
        """Hosted entries (sessions + relays) currently registered."""
        return sum(1 for _ in self.registry)

    @property
    def load_level(self) -> str:
        """Where the server sits on the ladder: ok/degraded/overloaded."""
        return self._load_level

    def _admit_session(self) -> None:
        current = self.session_count()
        if self.admission.admit_session(current) is AdmissionDecision.SHED:
            raise ServerOverloaded(
                "session", current, self.admission.config.max_sessions
            )

    def _admit_join(self) -> None:
        current = self.participant_count()
        if self.admission.admit_join(current) is AdmissionDecision.SHED:
            raise ServerOverloaded(
                "participant", current, self.admission.config.max_participants
            )

    def _refresh_load(self) -> str:
        """Re-evaluate the ladder; (un)degrade relay tiers on changes.

        Degradation scales every hosted relay's downstream token-bucket
        tiers by ``degrade_rate_factor`` — viewers get a slower picture
        but stay connected; returning below ``degrade_at`` restores the
        configured tiers.  Idempotent per level, so calling after every
        join/leave is cheap.
        """
        level = self.admission.load_level(self.participant_count())
        if level == self._load_level:
            return level
        previous, self._load_level = self._load_level, level
        factor = (
            1.0 if level == "ok"
            else self.admission.config.degrade_rate_factor
        )
        for _code, entry in self.registry:
            node = getattr(entry, "relay", None)
            if node is not None:
                node.scale_rate_tiers(factor)
        if self.obs.enabled:
            self.obs.event(
                "server.load_level", level=level, previous=previous
            )
        return level

    def _entry_closed(self, code: str) -> None:
        """on_close hook: unregister, then re-evaluate the ladder."""
        self.registry.remove(code)
        self.supervisor.forget(code)
        self._refresh_load()

    # -- Hosting ------------------------------------------------------------

    def host(
        self,
        code: str | None = None,
        config: SharingConfig | None = None,
        screen_width: int = 1280,
        screen_height: int = 1024,
        channel_config: ChannelConfig | None = None,
        rate_bps: int | None = None,
        close_when_empty: bool = True,
    ) -> str:
        """Create and register a hosted session; returns its join code.

        ``close_when_empty`` unregisters the session after the last
        participant leaves (the default lobby behaviour); pass False
        for long-lived rooms with stable codes.
        """
        if not self._running:
            raise ServerError("server not started (use `async with` or start())")
        self._admit_session()
        # host() runs synchronously on the loop, so issuing the code and
        # registering below cannot interleave with another host().
        issued = (
            self.registry.normalise(code) if code is not None
            else self.registry.issue_code()
        )
        session = HostedSession(
            issued,
            self.clock,
            config=config,
            screen_width=screen_width,
            screen_height=screen_height,
            channel_config=channel_config or self.channel_config,
            rate_bps=rate_bps,
            rng=random.Random(self._rng.randrange(1 << 30)),
            obs=self.obs,
            close_when_empty=close_when_empty,
            liveness=self.liveness_config,
        )
        self.registry.register(session, issued)
        session.on_close = self._entry_closed
        if self.obs.enabled:
            self.obs.event("server.session_hosted", session=issued)
        return issued

    def session(self, code: str) -> HostedSession:
        """The hosted session behind ``code`` (:class:`UnknownJoinCode`)."""
        return self.registry.lookup(code)

    # -- Relay hosting -------------------------------------------------------

    def host_relay(
        self,
        parent_code: str,
        code: str | None = None,
        relay_id: str | None = None,
        channel_config: ChannelConfig | None = None,
        rate_bps: int | None = None,
        liveness: LivenessConfig | None = None,
        close_when_empty: bool = False,
    ) -> str:
        """Hang a relay under ``parent_code``; returns the relay's code.

        ``parent_code`` may name a hosted session (the relay becomes
        one ``is_group`` destination of its AH) or another hosted relay
        (cascading one level deeper).  The relay registers in the same
        join-code namespace and gets one round per :meth:`step` after
        its parent's; viewers then join it with :meth:`join_relay`.
        ``rate_bps`` puts the whole subtree inside one token-bucket
        tier at the upstream hop.
        """
        # Imported here: repro.relay imports this package for the
        # HostedEntry contract.
        from ...relay.hosted import attach_hosted_relay

        if not self._running:
            raise ServerError("server not started (use `async with` or start())")
        self._admit_session()
        parent = self.registry.lookup(parent_code)
        issued = (
            self.registry.normalise(code) if code is not None
            else self.registry.issue_code()
        )
        hosted = attach_hosted_relay(
            parent,
            issued,
            self.clock,
            relay_id=relay_id,
            channel_config=channel_config or self.channel_config,
            rate_bps=rate_bps,
            liveness=liveness,
            obs=self.obs,
            close_when_empty=close_when_empty,
            rng=random.Random(self._rng.randrange(1 << 30)),
        )
        self.registry.register(hosted, issued)
        hosted.on_close = self._entry_closed
        if self.obs.enabled:
            self.obs.event(
                "server.relay_hosted", relay=issued, parent=parent.code
            )
        return issued

    def relay(self, code: str):
        """The :class:`~repro.relay.hosted.HostedRelay` behind ``code``."""
        from ...relay.hosted import HostedRelay

        entry = self.registry.lookup(code)
        if not isinstance(entry, HostedRelay):
            raise ServerError(f"join code {code!r} names a session, not a relay")
        return entry

    def join_relay(self, code: str, name: str, **kwargs) -> Participant:
        """Wire ``name``'s media through the relay behind ``code``.

        Relays are media-plane endpoints: no SIP handshake runs (the
        root session's front door owns signalling), so this is
        synchronous — the returned participant converges as the
        server steps.  Raises :class:`ServerOverloaded` when the
        participant capacity is exhausted.
        """
        self._admit_join()
        participant = self.relay(code).join(name, **kwargs)
        self._refresh_load()
        return participant

    def leave_relay(self, code: str, name: str) -> None:
        """Drop ``name`` from the relay behind ``code``; idempotent."""
        try:
            hosted = self.relay(code)
        except UnknownJoinCode:
            return
        hosted.leave(name)
        self._refresh_load()

    # -- The signalling front door ------------------------------------------

    async def join(
        self,
        code: str,
        name: str,
        prefer_transport: str = "tcp",
        timeout: float | None = None,
    ) -> JoinedParticipant:
        """Join ``name`` to the session behind ``code``.

        Runs the full INVITE → negotiate → answer → ACK handshake via
        the session's rounds and resolves once the media path
        is wired.  Raises :class:`UnknownJoinCode`,
        :class:`DuplicateParticipant`, or :class:`JoinFailed` (covering
        the BYE-during-join race and handshake timeouts).  Raises
        :class:`ServerOverloaded` when the participant capacity is
        exhausted — capacity protects the sessions already admitted.
        """
        self._admit_join()
        session = self.session(code)
        started = time.monotonic()
        peer = session.add_peer(name, prefer_transport)  # may raise
        done: asyncio.Future = asyncio.get_running_loop().create_future()

        def watcher(event: str, call) -> None:
            if not done.done():
                done.set_result(event)

        call = session.core.call_for(name)
        assert call is not None
        call.watchers.append(watcher)
        try:
            # A closing session aborts its half-open calls, so the
            # watcher also hears of a close that races the handshake.
            event = await asyncio.wait_for(
                done, timeout if timeout is not None else self.join_timeout
            )
        except asyncio.TimeoutError:
            self._c_join_failures.inc()
            session.core.abort(name)
            session.drop_peer(name)
            raise JoinFailed(code, name, "handshake timeout") from None
        if event != "established":
            self._c_join_failures.inc()
            session.drop_peer(name)
            reason = (
                "terminated during handshake"
                if session.state is SessionState.OPEN
                else "session closed during join"
            )
            raise JoinFailed(code, name, reason)
        participant = session.core.participant_for(name)
        assert participant is not None
        self._c_joins.inc()
        self._refresh_load()
        self._h_join_wall.observe(time.monotonic() - started)
        if self.obs.enabled:
            self.obs.event("server.join", session=session.code, peer=name)
        return JoinedParticipant(self, session.code, name, participant, peer)

    async def leave(self, code: str, name: str) -> None:
        """BYE ``name`` out of the session (server-initiated hang-up)."""
        try:
            session = self.session(code)
        except UnknownJoinCode:
            return  # already gone: leave is idempotent
        session.core.hang_up(name)
        session.drop_peer(name)
        self._c_leaves.inc()
        self._refresh_load()
        if self.obs.enabled:
            self.obs.event("server.leave", session=session.code, peer=name)
        # Let the loop step once: the BYE is delivered, cleanup runs.
        await asyncio.sleep(0)
        session._maybe_close_when_empty()

    def close_session(self, code: str) -> None:
        """Tear a whole session down (host hangs up the meeting)."""
        self.session(code).close(reason="host_closed")

    # -- Introspection ------------------------------------------------------

    def codes(self) -> list[str]:
        return self.registry.codes()

    def sessions(self) -> dict[str, dict]:
        """The ``server.sessions`` snapshot: one row per hosted session."""
        return {
            code: session.snapshot()
            for code, session in self.registry
            if isinstance(session, HostedSession)
        }

    def relays(self) -> dict[str, dict]:
        """The ``server.relays`` snapshot: one row per hosted relay."""
        from ...relay.hosted import HostedRelay

        return {
            code: entry.snapshot()
            for code, entry in self.registry
            if isinstance(entry, HostedRelay)
        }

    def health(self) -> dict:
        """The server-tier health snapshot (load, shedding, restarts)."""
        return {
            "load_level": self._load_level,
            "sessions": self.session_count(),
            "participants": self.participant_count(),
            **self.admission.snapshot(),
            "supervisor": self.supervisor.snapshot(),
        }

    async def until(self, predicate, timeout: float = 10.0) -> None:
        """Run the server until ``predicate()`` is true.

        The await itself is what lets the server loop step; tests and
        benchmarks use this instead of hand-rolled pump loops.

        ``timeout`` is measured against the *server clock* — virtual
        seconds in the default mode (however fast the hardware pumps
        them), wall seconds in realtime mode.  A wall-clock backstop of
        ``max(timeout, 60)`` seconds still fires when virtual time is
        parked (server not started, loop stopped) so a wedged
        predicate cannot spin forever.
        """
        deadline = self.clock.now() + timeout
        wall_deadline = time.monotonic() + max(timeout, 60.0)
        while not predicate():
            if self.clock.now() >= deadline:
                raise asyncio.TimeoutError(
                    "predicate not reached within timeout"
                )
            if time.monotonic() > wall_deadline:
                raise asyncio.TimeoutError(
                    "predicate not reached within wall-clock backstop "
                    "(virtual clock parked?)"
                )
            await asyncio.sleep(0)
