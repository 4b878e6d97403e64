"""Join-code lifecycle on the asyncio SessionServer.

Covers the satellite checklist: duplicate joins, unknown codes,
BYE-during-join races, and registry cleanup after the last participant
leaves — plus the media path (convergence, HIP return) and the obs
threading (per-session labels, server.sessions snapshot).
"""

import asyncio
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.net.channel import ChannelConfig
from repro.obs import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.sharing.config import SharingConfig
from repro.sharing.server import (
    DuplicateParticipant,
    JoinFailed,
    SessionClosed,
    SessionServer,
    SessionState,
    UnknownJoinCode,
)
from repro.sharing.server.session import HostedSession
from repro.surface.geometry import Rect

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def run(coro):
    return asyncio.run(coro)


def small_config():
    return SharingConfig(adaptive_codec=False)


async def hosted_editor(server, **kwargs):
    """Host one small session with a text editor; returns (code, editor)."""
    code = server.host(
        screen_width=320, screen_height=240, config=small_config(), **kwargs
    )
    session = server.session(code)
    window = session.ah.windows.create_window(Rect(10, 10, 160, 120))
    editor = TextEditorApp(window)
    session.ah.apps.attach(editor)
    return code, editor


class TestJoinLifecycle:
    def test_join_unknown_code_raises(self):
        async def scenario():
            async with SessionServer() as server:
                with pytest.raises(UnknownJoinCode):
                    await server.join("ZZZZZZ", "alice")
        run(scenario())

    def test_join_establishes_media_and_converges(self):
        async def scenario():
            async with SessionServer() as server:
                code, editor = await hosted_editor(server)
                session = server.session(code)
                joined = await server.join(code, "alice")
                editor.type_text("hello through the front door")
                await server.until(
                    lambda: joined.participant.converged_with(
                        session.ah.windows
                    ),
                    timeout=20,
                )
                assert "alice" in session.core.active_calls()
                assert "alice" in session.ah.sessions
        run(scenario())

    def test_duplicate_join_rejected_while_first_is_live(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(server)
                await server.join(code, "alice")
                with pytest.raises(DuplicateParticipant):
                    await server.join(code, "alice")
        run(scenario())

    def test_same_name_can_rejoin_after_leaving(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(
                    server, close_when_empty=False
                )
                first = await server.join(code, "alice")
                await first.leave()
                await server.until(
                    lambda: "alice" not in server.session(code).ah.sessions,
                    timeout=10,
                )
                second = await server.join(code, "alice")
                assert second.participant is not None
        run(scenario())

    def test_udp_preference_negotiates_datagram_path(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(server)
                await server.join(code, "alice", prefer_transport="udp")
                session = server.session(code)
                assert not session.ah.sessions["alice"].transport.reliable
        run(scenario())

    def test_join_timeout_cleans_up_the_half_open_call(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(server)
                session = server.session(code)
                # Break the handshake: the peer never answers.
                with pytest.raises(JoinFailed) as excinfo:
                    joining = asyncio.ensure_future(
                        server.join(code, "mute", timeout=0.2)
                    )
                    await asyncio.sleep(0)  # let join() register the call
                    peer = session.peers.get("mute")
                    assert peer is not None
                    peer.auto_answer = False
                    await joining
                assert "timeout" in excinfo.value.reason
                # The half-open call must not leak.
                assert session.core.call_for("mute") is None
                assert "mute" not in session.peers
                # And the session is still usable.
                ok = await server.join(code, "speaks")
                assert ok.participant is not None
        run(scenario())


class TestByeDuringJoinRaces:
    def test_session_closed_while_join_in_flight(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(server)
                session = server.session(code)
                session.peers  # touch before the race

                async def close_soon():
                    await asyncio.sleep(0)
                    server.close_session(code)

                join_task = asyncio.ensure_future(
                    server.join(code, "alice", timeout=5)
                )
                # Suppress the answer so the close always wins the race.
                await asyncio.sleep(0)
                if "alice" in session.peers:
                    session.peers["alice"].auto_answer = False
                await close_soon()
                with pytest.raises((JoinFailed, SessionClosed)):
                    await join_task
                assert session.state is SessionState.CLOSED
                with pytest.raises(UnknownJoinCode):
                    server.session(code)
        run(scenario())

    def test_join_after_close_raises_unknown_code(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(server)
                server.close_session(code)
                with pytest.raises(UnknownJoinCode):
                    await server.join(code, "late")
        run(scenario())

    def test_host_bye_tears_down_established_participant(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(
                    server, close_when_empty=False
                )
                session = server.session(code)
                joined = await server.join(code, "alice")
                assert joined.participant is not None
                session.core.hang_up("alice")
                await server.until(
                    lambda: "alice" not in session.ah.sessions, timeout=10
                )
                assert session.core.active_calls() == []
                # Session stays hosted (close_when_empty=False).
                assert server.session(code) is session
        run(scenario())


class TestRegistryCleanup:
    def test_last_leave_closes_and_unregisters_the_session(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(server)
                a = await server.join(code, "alice")
                b = await server.join(code, "bob")
                await a.leave()
                await asyncio.sleep(0)
                assert code in server.registry  # bob still there
                await b.leave()
                await server.until(
                    lambda: len(server.registry) == 0, timeout=10
                )
                with pytest.raises(UnknownJoinCode):
                    server.session(code)
        run(scenario())

    def test_leave_is_idempotent(self):
        async def scenario():
            async with SessionServer() as server:
                code, _editor = await hosted_editor(server)
                joined = await server.join(code, "alice")
                await joined.leave()
                await joined.leave()  # second leave: no error
                await server.leave("GONE42", "nobody")  # unknown code: no-op
        run(scenario())

    def test_server_stop_closes_every_session(self):
        async def scenario():
            server = SessionServer()
            await server.start()
            codes = [server.host(config=small_config(),
                                 screen_width=320, screen_height=240)
                     for _ in range(5)]
            assert len(server.registry) == 5
            await server.stop()
            assert len(server.registry) == 0
            for code in codes:
                with pytest.raises(UnknownJoinCode):
                    server.session(code)
        run(scenario())

    def test_explicit_room_codes_survive_empty(self):
        async def scenario():
            async with SessionServer() as server:
                code = server.host(code="room-42", config=small_config(),
                                   screen_width=320, screen_height=240,
                                   close_when_empty=False)
                assert code == "ROOM42"
                joined = await server.join("room 42", "alice")
                await joined.leave()
                await asyncio.sleep(0)
                assert "ROOM42" in server.registry
        run(scenario())


class TestObservability:
    def test_per_session_labels_and_snapshot(self):
        async def scenario():
            obs = Instrumentation()
            async with SessionServer(obs=obs) as server:
                code_a, editor_a = await hosted_editor(server)
                code_b, _editor_b = await hosted_editor(server)
                await server.join(code_a, "alice")
                await server.join(code_b, "bob")
                editor_a.type_text("traffic")
                target = server.clock.now() + 0.5
                await server.until(lambda: server.clock.now() >= target)
                snap = server.sessions()
                assert set(snap) == {code_a, code_b}
                assert snap[code_a]["established"] == ["alice"]
                assert snap[code_b]["established"] == ["bob"]
                assert snap[code_a]["bytes_sent"] > 0
                # Metrics are labelled per session.
                per_a = obs.registry.total(
                    "scheduler.packets_sent", session=code_a
                )
                per_b = obs.registry.total(
                    "scheduler.packets_sent", session=code_b
                )
                assert per_a > 0 and per_b > 0
                assert obs.registry.total("server.sessions") == 2
                assert obs.registry.total("session.joins") == 2
                # Join/leave trace stages were recorded.
                kinds = {e.kind for e in obs.trace}
                assert "session.invite" in kinds
                assert "session.established" in kinds
                assert "server.join" in kinds
        run(scenario())


class TestOneLoop:
    def test_one_task_serves_every_session_and_relay(self):
        async def scenario():
            me = asyncio.current_task()
            server = SessionServer()
            await server.start()
            codes = [(await hosted_editor(server))[0] for _ in range(20)]
            relay = server.host_relay(codes[0])
            server.host_relay(relay)
            viewer = server.join_relay(relay, "alice")
            await server.until(lambda: viewer.updates_applied > 0)
            others = [t for t in asyncio.all_tasks() if t is not me]
            assert [t.get_name() for t in others] == ["server-loop"]
            await server.stop()
            assert [t for t in asyncio.all_tasks() if t is not me] == []
        run(scenario())

    def test_step_alone_converges_a_viewer(self):
        async def scenario():
            async with SessionServer() as server:
                code, editor = await hosted_editor(server)
                session = server.session(code)
                session.add_peer("alice")
                editor.type_text("no event loop between these steps")
                t0 = server.clock.now()
                # No await below: the loop task never gets a turn, so
                # step() is all that moves the session.
                for steps in range(1, 500):
                    server.step()
                    viewer = session.core.participant_for("alice")
                    if viewer and viewer.converged_with(session.ah.windows):
                        break
                else:
                    pytest.fail("not converged after 500 steps")
                assert server.clock.now() - t0 == pytest.approx(
                    steps * server.tick
                )
        run(scenario())

    def test_realtime_paces_on_the_wall_clock(self):
        async def scenario():
            async with SessionServer(realtime=True, tick=0.005) as server:
                code, editor = await hosted_editor(server)
                session = server.session(code)
                wall0, clock0 = time.monotonic(), server.clock.now()
                joined = await server.join(code, "alice")
                editor.type_text("paced by time.monotonic")
                await server.until(
                    lambda: joined.participant.converged_with(
                        session.ah.windows
                    ),
                    timeout=2.0,
                )
                wall, virtual = (
                    time.monotonic() - wall0, server.clock.now() - clock0
                )
                assert wall < 2.0
                # The server clock *is* the wall clock: step() added no
                # ticks of its own on top of the elapsed time.
                assert virtual == pytest.approx(wall, abs=0.005)
        run(scenario())


def replay_digest() -> str:
    """The TestSeedReplay scenario: one digest over every media packet."""
    from tests.integration.test_wire_transcript import Transcript

    transcript = Transcript(pytest.MonkeyPatch())

    async def scenario():
        async with SessionServer(
            rng=random.Random(1),
            channel_config=ChannelConfig(delay=0.01, loss_rate=0.02, seed=9),
        ) as server:
            code, editor = await hosted_editor(server)
            session = server.session(code)
            viewers = [
                (await server.join(code, "alice")).participant,
                (await server.join(
                    code, "bob", prefer_transport="udp"
                )).participant,
            ]
            # Eight virtual seconds: past the first RTCP interval, so RR
            # timing is in the digest.
            for word in "the same bytes from the same seed again".split():
                editor.type_text(word + " ")
                pause = server.clock.now() + 1.0
                await server.until(lambda: server.clock.now() >= pause)
            assert all(v.converged_with(session.ah.windows) for v in viewers)

    run(scenario())
    # A session built without an rng seeds itself from its join code.
    bare = HostedSession(
        "ROOM42", SimulatedClock(), screen_width=320, screen_height=240,
        config=small_config(),
    )
    bare.add_peer("carol", prefer_transport="udp")
    for _ in range(20):
        bare.round()
        bare.clock.advance(0.02)
    assert bare.core.participant_for("carol") is not None
    bare.close()
    assert transcript.packets > 50
    return transcript.digest.hexdigest()


class TestSeedReplay:
    def test_same_seed_same_bytes_across_processes(self):
        """SSRCs, sequence numbers and RR timing all come from the
        server's seed, never from ``random.Random()`` or the
        per-process ``str`` hash."""
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            )
            out = subprocess.run(
                [sys.executable, "-c",
                 "from tests.server.test_session_server import "
                 "replay_digest; print(replay_digest())"],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]
