"""Server-tier robustness: overload shedding, supervision, liveness.

The contract added by the health subsystem:

* **admission** — past ``max_sessions``/``max_participants`` new work
  is refused with :class:`ServerOverloaded`; existing sessions are
  never touched;
* **degradation** — between ``degrade_at`` and full capacity, hosted
  relays' rate tiers are scaled down (and restored when load falls);
* **supervision** — a crashing session pump restarts with backoff,
  and a persistently-crashing one closes its session cleanly instead
  of wedging;
* **eviction** — a joined participant that goes dead-silent is evicted
  by the AH's liveness tracker and its call reclaimed;
* **until()** — timeouts are measured on the server's virtual clock.
"""

import asyncio
import time

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.health import LivenessConfig, OverloadConfig, RestartPolicy
from repro.sharing.config import SharingConfig
from repro.sharing.server import (
    ServerOverloaded,
    SessionServer,
    SessionState,
)
from repro.surface.geometry import Rect


def run(coro):
    return asyncio.run(coro)


def small_config():
    return SharingConfig(adaptive_codec=False)


async def hosted_editor(server, **kwargs):
    code = server.host(
        screen_width=320, screen_height=240, config=small_config(),
        close_when_empty=False, **kwargs
    )
    session = server.session(code)
    window = session.ah.windows.create_window(Rect(10, 10, 160, 120))
    editor = TextEditorApp(window)
    session.ah.apps.attach(editor)
    return code, editor


class TestAdmission:
    def test_session_cap_refuses_the_next_host(self):
        async def scenario():
            async with SessionServer(
                overload=OverloadConfig(max_sessions=2)
            ) as server:
                await hosted_editor(server)
                await hosted_editor(server)
                with pytest.raises(ServerOverloaded) as err:
                    await hosted_editor(server)
                assert err.value.limit == 2
                assert server.health()["sessions_shed"] == 1
                assert len(server.codes()) == 2
        run(scenario())

    def test_relays_count_against_the_session_cap(self):
        async def scenario():
            async with SessionServer(
                overload=OverloadConfig(max_sessions=2)
            ) as server:
                code, _ = await hosted_editor(server)
                server.host_relay(code)
                with pytest.raises(ServerOverloaded):
                    server.host_relay(code)
        run(scenario())

    def test_participant_cap_sheds_the_join(self):
        async def scenario():
            async with SessionServer(
                overload=OverloadConfig(max_participants=1)
            ) as server:
                code, _ = await hosted_editor(server)
                await server.join(code, "alice")
                with pytest.raises(ServerOverloaded):
                    await server.join(code, "bob")
                assert server.health()["joins_shed"] == 1
                # The admitted participant was never disturbed.
                assert "alice" in server.session(code).ah.sessions
        run(scenario())


class TestDegradation:
    def test_ladder_scales_relay_tiers_and_restores(self):
        async def scenario():
            async with SessionServer(
                overload=OverloadConfig(
                    max_participants=4, degrade_at=0.5,
                    degrade_rate_factor=0.5,
                )
            ) as server:
                code, _ = await hosted_editor(server)
                relay_code = server.host_relay(code)
                node = server.relay(relay_code).relay
                server.join_relay(relay_code, "v1", rate_bps=200_000)
                assert server.load_level == "ok"
                assert node.rate_scale == 1.0
                server.join_relay(relay_code, "v2")
                assert server.load_level == "degraded"
                assert node.rate_scale == 0.5
                assert (
                    node.downstreams["v1"].limiter.rate_bps == 100_000
                )
                # Nobody was disconnected, and joins still succeed.
                server.join_relay(relay_code, "v3")
                assert node.downstream_count == 3
                # Load falling back restores the configured tiers.
                server.leave_relay(relay_code, "v2")
                server.leave_relay(relay_code, "v3")
                assert server.load_level == "ok"
                assert node.rate_scale == 1.0
                assert (
                    node.downstreams["v1"].limiter.rate_bps == 200_000
                )
        run(scenario())

    def test_health_snapshot_reports_the_ladder(self):
        async def scenario():
            async with SessionServer(
                overload=OverloadConfig(max_participants=2, degrade_at=0.5)
            ) as server:
                code, _ = await hosted_editor(server)
                await server.join(code, "alice")
                row = server.health()
                assert row["load_level"] == "degraded"
                assert row["participants"] == 1
                assert row["max_participants"] == 2
        run(scenario())


class TestSupervision:
    def test_transient_crash_restarts_the_pump(self):
        async def scenario():
            async with SessionServer(
                restart_policy=RestartPolicy(
                    initial_backoff=0.0, max_restarts=3
                )
            ) as server:
                code, editor = await hosted_editor(server)
                session = server.session(code)
                real = session.core.media_round
                crashes = [0]

                def flaky(dt):
                    if crashes[0] < 2:
                        crashes[0] += 1
                        raise RuntimeError("transient")
                    return real(dt)

                session.core.media_round = flaky
                joined = await server.join(code, "alice")
                editor.type_text("survives a flaky pump")
                await server.until(
                    lambda: joined.participant.converged_with(
                        session.ah.windows
                    ),
                    timeout=20,
                )
                assert server.health()["supervisor"]["restarts"] >= 2
                assert server.health()["supervisor"]["give_ups"] == 0
                assert session.state is SessionState.OPEN
        run(scenario())

    def test_persistent_crash_gives_up_and_closes_the_session(self):
        async def scenario():
            async with SessionServer(
                restart_policy=RestartPolicy(
                    initial_backoff=0.0, max_restarts=1
                )
            ) as server:
                code, _ = await hosted_editor(server)
                session = server.session(code)

                def broken(dt):
                    raise RuntimeError("persistent")

                session.core.media_round = broken
                await server.until(
                    lambda: session.state is SessionState.CLOSED
                )
                assert session.state is SessionState.CLOSED
                assert code not in server.codes()
                assert server.health()["supervisor"]["give_ups"] == 1
        run(scenario())


class TestEviction:
    def test_dead_silent_participant_is_evicted(self):
        async def scenario():
            async with SessionServer(
                liveness=LivenessConfig(suspect_after=0.5, dead_after=1.5)
            ) as server:
                code, editor = await hosted_editor(server)
                session = server.session(code)
                joined = await server.join(code, "alice")
                editor.type_text("warm-up")
                await server.until(
                    lambda: joined.participant.converged_with(
                        session.ah.windows
                    ),
                    timeout=20,
                )
                # Kill the peer without a BYE: its pump goes silent.
                call = session.core.call_for("alice")
                call.participant.process_incoming = lambda: 0
                await server.until(
                    lambda: "alice" not in session.ah.sessions,
                    timeout=20,
                )
                assert "alice" not in session.core.call_names()
                assert session.ah.participants_evicted == 1
                assert session.snapshot()["liveness"]["deaths"] == 1
        run(scenario())

    def test_no_liveness_config_keeps_the_historical_behaviour(self):
        async def scenario():
            async with SessionServer() as server:
                code, _ = await hosted_editor(server)
                assert server.session(code).ah.liveness is None
                assert "liveness" not in server.session(code).snapshot()
        run(scenario())


class TestUntilClock:
    def test_timeout_is_virtual_seconds_not_wall(self):
        async def scenario():
            async with SessionServer(tick=0.01) as server:
                await hosted_editor(server)
                t0_wall = time.monotonic()
                t0_virtual = server.clock.now()
                with pytest.raises(asyncio.TimeoutError):
                    await server.until(lambda: False, timeout=5.0)
                assert server.clock.now() - t0_virtual >= 5.0
                # Virtual seconds pump far faster than wall seconds.
                assert time.monotonic() - t0_wall < 30.0
        run(scenario())
