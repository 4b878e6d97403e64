"""Periodic RTCP flow in live sessions, and desktop-sharing mode."""

import numpy as np
import pytest

from repro.apps.photo import ui_screenshot
from repro.apps.text_editor import TextEditorApp
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from .helpers import run_session, settle, tcp_pair, udp_pair


@pytest.fixture
def clock():
    return SimulatedClock()


class TestPeriodicRtcp:
    def test_reports_flow_both_ways(self, clock):
        ah = ApplicationHost(clock=clock.now)
        win = ah.windows.create_window(Rect(0, 0, 200, 150))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        participant = udp_pair(clock, ah)

        def drive(i):
            if i % 10 == 0:
                editor.type_text("tick ")

        # 20 seconds of session: multiple report intervals.
        run_session(clock, ah, [participant], 1000, per_round=drive)
        session = ah.sessions["p1"]
        assert session.reporter.reports_sent >= 2
        assert participant.leg.reporter.reports_sent >= 2

    def test_participant_rr_reflects_loss(self, clock):
        ah = ApplicationHost(clock=clock.now)
        win = ah.windows.create_window(Rect(0, 0, 200, 150))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        participant = udp_pair(clock, ah, loss_rate=0.1, seed=4)

        def drive(i):
            if i % 5 == 0:
                editor.type_text(f"row {i}\n")

        run_session(clock, ah, [participant], 1200, per_round=drive)
        # Losses occurred (NACKs prove it); cumulative-lost may return
        # to zero because retransmissions count as received — exactly
        # the RFC 3550 accounting an RR carries.
        assert participant.nacks_sent > 0
        assert participant.leg.reporter.reports_sent >= 2

    def test_ah_report_blocks_cover_hip_stream(self, clock):
        """The AH's SRs carry reception blocks for the inbound HIP
        stream once the participant has sent events."""
        from repro.rtp.rtcp import decode_compound

        ah = ApplicationHost(clock=clock.now)
        win = ah.windows.create_window(Rect(0, 0, 200, 150))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        participant = tcp_pair(clock, ah)
        run_session(clock, ah, [participant], 30)
        participant.type_text(win.window_id, "hip traffic")
        run_session(clock, ah, [participant], 30)
        session = ah.sessions["p1"]
        assert session.hip_receiver.packets_received > 0
        compound = decode_compound(session.reporter.build_compound())
        blocks = compound[0].reports
        assert len(blocks) == 1
        assert blocks[0].ssrc == participant.hip_sender.ssrc

    def test_participant_learns_sr_timebase(self, clock):
        ah = ApplicationHost(clock=clock.now)
        ah.windows.create_window(Rect(0, 0, 100, 100))
        participant = tcp_pair(clock, ah)
        run_session(clock, ah, [participant], 1000)
        # After the AH's first SR, the participant records its NTP stamp
        # for LSR/DLSR computation.
        assert participant.leg.reporter._last_sr_ntp is not None


class TestDesktopSharing:
    def test_share_desktop_single_full_screen_window(self, clock):
        ah = ApplicationHost(
            screen_width=800, screen_height=600, clock=clock.now
        )
        desktop = ah.share_desktop()
        assert desktop.rect == Rect(0, 0, 800, 600)
        participant = tcp_pair(clock, ah, screen=(800, 600))
        settle(clock, ah, [participant], 40)
        assert participant.converged_with(ah.windows)

    def test_desktop_updates_propagate(self, clock):
        ah = ApplicationHost(
            screen_width=640, screen_height=480,
            config=SharingConfig(adaptive_codec=False), clock=clock.now
        )
        desktop = ah.share_desktop()
        participant = tcp_pair(clock, ah, screen=(640, 480))
        settle(clock, ah, [participant], 40)
        # Paint a fake full desktop and a dirty region.
        desktop.draw_pixels(0, 0, ui_screenshot(640, 480, seed=3))
        settle(clock, ah, [participant], 60)
        assert participant.converged_with(ah.windows)
        local = participant.render_screen(include_pointer=False)
        assert np.array_equal(
            local.array, ah.windows.composite().array
        )
