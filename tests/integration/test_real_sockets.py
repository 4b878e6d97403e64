"""Live loopback integration: the full stack over real kernel sockets."""

import time

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.net.tcp import TcpListener, connect
from repro.net.udp import UdpEndpoint
from repro.rtp.clock import monotonic_now
from repro.sharing.ah import ApplicationHost
from repro.sharing.participant import Participant
from repro.sharing.transport import TcpSocketTransport, UdpSocketTransport
from repro.surface.geometry import Rect


def pump(ah, participant, seconds=1.0, editor=None, text=None):
    """Drive both sides in real time until converged or timeout."""
    deadline = time.monotonic() + seconds
    typed = False
    while time.monotonic() < deadline:
        if editor is not None and text is not None and not typed:
            editor.type_text(text)
            typed = True
        ah.advance(0.005)
        participant.process_incoming()
        if participant.converged_with(ah.windows):
            return True
        time.sleep(0.001)
    return participant.converged_with(ah.windows)


def accept_one(listener, seconds=2.0):
    """The server side of the connection a client just opened."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        conns = listener.accept_ready()
        if conns:
            return conns[0]
        time.sleep(0.001)
    raise AssertionError("no connection accepted")


class TestRealTcp:
    def test_session_over_loopback_tcp(self):
        with TcpListener() as listener:
            client_conn = connect(*listener.address)
            server_conn = accept_one(listener)
            try:
                ah = ApplicationHost(clock=monotonic_now)
                win = ah.windows.create_window(Rect(10, 10, 200, 150))
                editor = TextEditorApp(win)
                ah.apps.attach(editor)
                participant = Participant(
                    "tcp-live",
                    TcpSocketTransport(client_conn),
                    clock=monotonic_now,
                    config=ah.config,
                )
                ah.add_participant(
                    "tcp-live", TcpSocketTransport(server_conn)
                )
                participant.join()
                assert pump(ah, participant, seconds=3.0)
                # Remote typing over the real socket.
                participant.type_text(win.window_id, "REAL SOCKET")
                assert pump(ah, participant, seconds=3.0)
                assert editor.text() == "REAL SOCKET"
            finally:
                client_conn.close()
                server_conn.close()


class TestDisconnect:
    def test_ah_drops_departed_tcp_participant(self):
        with TcpListener() as listener:
            client_conn = connect(*listener.address)
            server_conn = accept_one(listener)
            ah = ApplicationHost(clock=monotonic_now)
            ah.windows.create_window(Rect(0, 0, 80, 60))
            ah.add_participant("leaver", TcpSocketTransport(server_conn))
            assert "leaver" in ah.sessions
            client_conn.close()  # participant vanishes
            deadline = time.monotonic() + 2
            while "leaver" in ah.sessions and time.monotonic() < deadline:
                ah.advance(0.005)
                time.sleep(0.001)
            assert "leaver" not in ah.sessions
            server_conn.close()

    def test_transport_close_closes_the_connection(self):
        with TcpListener() as listener:
            client_conn = connect(*listener.address)
            server_conn = accept_one(listener)
            try:
                transport = TcpSocketTransport(server_conn)
                assert not transport.closed
                transport.close()
                assert server_conn.closed
                assert transport.closed
                # The peer sees the shutdown as end-of-stream.
                deadline = time.monotonic() + 2
                while not client_conn.closed and time.monotonic() < deadline:
                    client_conn.receive_packets()
                    time.sleep(0.001)
                assert client_conn.closed
            finally:
                client_conn.close()
                server_conn.close()


class TestRealUdp:
    def test_session_over_loopback_udp(self):
        with UdpEndpoint() as ah_sock, UdpEndpoint() as p_sock:
            ah = ApplicationHost(clock=monotonic_now)
            win = ah.windows.create_window(Rect(0, 0, 160, 120))
            editor = TextEditorApp(win)
            ah.apps.attach(editor)
            ah.add_participant(
                "udp-live", UdpSocketTransport(ah_sock, p_sock.address)
            )
            participant = Participant(
                "udp-live",
                UdpSocketTransport(p_sock, ah_sock.address),
                clock=monotonic_now,
                config=ah.config,
                reorder_wait=0.05,
            )
            participant.join()  # PLI over the real socket
            assert pump(ah, participant, seconds=3.0)
            assert ah.plis_received >= 1
