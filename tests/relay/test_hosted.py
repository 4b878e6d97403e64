"""Hosted relays: first-class SessionServer endpoints."""

import asyncio

import pytest

from repro import SessionServer
from repro.apps.text_editor import TextEditorApp
from repro.relay import HostedRelay
from repro.sharing.server import (
    DuplicateParticipant,
    ServerError,
    SessionClosed,
    SessionState,
    UnknownJoinCode,
)
from repro.surface.geometry import Rect


def run(coro):
    return asyncio.run(coro)


async def hosted_editor(server, **host_kwargs):
    code = server.host(close_when_empty=False, **host_kwargs)
    session = server.session(code)
    win = session.ah.windows.create_window(Rect(20, 20, 240, 180))
    editor = TextEditorApp(win)
    session.ah.apps.attach(editor)
    return code, session, editor


class TestHostRelay:
    def test_relay_gets_its_own_code_and_snapshot_row(self):
        async def scenario():
            async with SessionServer() as server:
                code, session, _ = await hosted_editor(server)
                relay_code = server.host_relay(code)
                assert relay_code != code
                assert relay_code in server.codes()
                assert isinstance(server.relay(relay_code), HostedRelay)
                rows = server.relays()
                assert rows[relay_code]["parent"] == code
                assert rows[relay_code]["state"] == "open"
                # Relay rows never leak into the session snapshot.
                assert relay_code not in server.sessions()
                # The parent AH sees the relay as one group destination.
                assert any(
                    s.is_group for s in session.ah.sessions.values()
                )
        run(scenario())

    def test_relay_chains_under_another_relay(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                r1 = server.host_relay(code)
                r2 = server.host_relay(r1)
                assert server.relays()[r2]["parent"] == r1
                assert server.relay(r1).relay.downstream_count == 1
        run(scenario())

    def test_host_relay_under_unknown_code_raises(self):
        async def scenario():
            async with SessionServer() as server:
                with pytest.raises(UnknownJoinCode):
                    server.host_relay("NOPE99")
        run(scenario())

    def test_relay_lookup_on_session_code_raises(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                with pytest.raises(ServerError):
                    server.relay(code)
        run(scenario())


class TestJoinRelay:
    def test_relayed_and_direct_viewers_converge_together(self):
        async def scenario():
            async with SessionServer() as server:
                code, session, editor = await hosted_editor(server)
                r1 = server.host_relay(code)
                r2 = server.host_relay(r1)
                near = server.join_relay(r1, "near-viewer")
                deep = server.join_relay(r2, "deep-viewer")
                direct = await server.join(code, "direct-viewer")
                editor.type_text("fan-out " * 8)
                await server.until(
                    lambda: near.converged_with(session.ah.windows)
                    and deep.converged_with(session.ah.windows)
                    and direct.participant.converged_with(
                        session.ah.windows
                    ),
                    timeout=15.0,
                )
        run(scenario())

    def test_duplicate_viewer_name_rejected(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                relay_code = server.host_relay(code)
                server.join_relay(relay_code, "alice")
                with pytest.raises(DuplicateParticipant):
                    server.join_relay(relay_code, "alice")
        run(scenario())

    def test_leave_relay_is_idempotent_and_updates_counts(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                relay_code = server.host_relay(code)
                server.join_relay(relay_code, "alice")
                hosted = server.relay(relay_code)
                assert hosted.participant_count == 1
                server.leave_relay(relay_code, "alice")
                server.leave_relay(relay_code, "alice")  # no-op
                assert hosted.participant_count == 0
                assert hosted.relay.downstream_count == 0
        run(scenario())

    def test_close_when_empty_relay_unregisters_after_last_leave(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                relay_code = server.host_relay(code, close_when_empty=True)
                server.join_relay(relay_code, "alice")
                server.leave_relay(relay_code, "alice")
                assert relay_code not in server.codes()
        run(scenario())


class TestTeardown:
    def test_closing_parent_session_cascades_to_relays(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                r1 = server.host_relay(code)
                r2 = server.host_relay(r1)
                server.close_session(code)
                hosted = server.relay(r2)
                await server.until(
                    lambda: hosted.state is SessionState.CLOSED, timeout=5
                )
                assert r1 not in server.codes()
                assert r2 not in server.codes()
        run(scenario())

    def test_join_after_relay_close_raises(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                relay_code = server.host_relay(code)
                server.relay(relay_code).close()
                with pytest.raises(UnknownJoinCode):
                    server.join_relay(relay_code, "late")
        run(scenario())

    def test_server_stop_closes_hosted_relays(self):
        async def scenario():
            server = SessionServer()
            await server.start()
            code, _, _ = await hosted_editor(server)
            relay_code = server.host_relay(code)
            hosted = server.relay(relay_code)
            await server.stop()
            assert hosted.state.value == "closed"
        run(scenario())

    def test_closed_relay_join_method_raises_session_closed(self):
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                relay_code = server.host_relay(code)
                hosted = server.relay(relay_code)
                hosted.close()
                with pytest.raises(SessionClosed):
                    hosted.join("late")
        run(scenario())


class TestCloseRaces:
    def test_parent_close_racing_concurrent_join_relay(self):
        """A join_relay racing the parent-session close must either
        land (and then be torn down by the cascade) or raise a clean
        error — never wedge the registry or leak the relay."""
        async def scenario():
            async with SessionServer() as server:
                for close_first in (True, False):
                    code, _, _ = await hosted_editor(server)
                    relay_code = server.host_relay(code)

                    async def closer():
                        if not close_first:
                            await asyncio.sleep(0)
                        server.close_session(code)

                    async def joiner():
                        if close_first:
                            await asyncio.sleep(0)
                        try:
                            server.join_relay(relay_code, "late")
                        except (UnknownJoinCode, SessionClosed):
                            pass

                    await asyncio.gather(closer(), joiner())
                    hosted = None
                    try:
                        hosted = server.relay(relay_code)
                    except UnknownJoinCode:
                        pass
                    if hosted is not None:
                        await server.until(
                            lambda: hosted.state is SessionState.CLOSED,
                            timeout=5,
                        )
                    assert code not in server.codes()
                    assert relay_code not in server.codes()
        run(scenario())

    def test_parent_close_racing_viewer_bye(self):
        """leave_relay (the BYE path) racing the cascade stays
        idempotent: whichever side removes the viewer first, both
        finish and the registry ends clean."""
        async def scenario():
            async with SessionServer() as server:
                code, _, _ = await hosted_editor(server)
                relay_code = server.host_relay(code)
                server.join_relay(relay_code, "viewer")

                async def closer():
                    server.close_session(code)

                async def leaver():
                    await asyncio.sleep(0)
                    server.leave_relay(relay_code, "viewer")

                await asyncio.gather(closer(), leaver())
                await server.until(
                    lambda: relay_code not in server.codes(), timeout=10,
                )
                assert server.health()["participants"] == 0
        run(scenario())
