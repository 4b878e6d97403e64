"""UDP loss recovery: NACK retransmission and PLI fallback (section 5.3)."""

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from .helpers import run_session, session_world, settle, udp_pair


@pytest.fixture
def clock():
    return SimulatedClock()


def editor_session(clock, config=None):
    ah = ApplicationHost(config=config or SharingConfig(), clock=clock.now)
    win = ah.windows.create_window(Rect(50, 50, 400, 300))
    editor = TextEditorApp(win)
    ah.apps.attach(editor)
    return ah, win, editor


class TestNackRecovery:
    def test_converges_under_loss_with_retransmissions(self, clock):
        ah, _win, editor = editor_session(clock)
        participant = udp_pair(clock, ah, loss_rate=0.08, seed=21)

        def drive(i):
            if i % 8 == 0 and i < 240:
                editor.type_text(f"resilient line {i}\n")

        run_session(clock, ah, [participant], 500, per_round=drive)
        assert participant.converged_with(ah.windows)
        assert participant.nacks_sent > 0
        assert ah.nacks_received > 0

    def test_retransmissions_answered_from_cache(self, clock):
        ah, _win, editor = editor_session(clock)
        participant = udp_pair(clock, ah, loss_rate=0.1, seed=5)

        def drive(i):
            if i % 10 == 0 and i < 150:
                editor.type_text(f"{i}:0123456789\n")

        run_session(clock, ah, [participant], 400, per_round=drive)
        cache = ah.sessions["p1"].scheduler.retransmit_cache
        assert cache.hits > 0

    def test_zero_loss_no_nacks(self, clock):
        ah, _win, editor = editor_session(clock)
        participant = udp_pair(clock, ah, loss_rate=0.0)
        run_session(
            clock,
            ah,
            [participant],
            120,
            per_round=lambda i: editor.type_text("x") if i % 10 == 0 else None,
        )
        assert participant.nacks_sent == 0
        assert participant.converged_with(ah.windows)


class TestPliFallback:
    def test_pli_recovery_without_retransmissions(self, clock):
        """retransmissions=no → the participant falls back to PLI."""
        config = SharingConfig(retransmissions=False)
        ah, _win, editor = editor_session(clock, config)
        participant = udp_pair(clock, ah, loss_rate=0.15, seed=9)

        def drive(i):
            if i % 8 == 0 and i < 240:
                editor.type_text(f"fallback {i}\n")

        run_session(clock, ah, [participant], 600, per_round=drive)
        assert participant.nacks_sent == 0  # NACKs pointless without rtx
        assert ah.plis_received > 0
        assert participant.converged_with(ah.windows)

    def test_manual_pli_forces_full_refresh(self, clock):
        ah, win, editor = editor_session(clock)
        participant = udp_pair(clock, ah)
        settle(clock, ah, [participant], 40)
        before = ah.plis_received
        # Corrupt local state, then ask for a refresh.
        participant.windows[win.window_id].surface.fill((1, 2, 3, 255))
        assert not participant.converged_with(ah.windows)
        participant.send_pli()
        settle(clock, ah, [participant], 60)
        assert ah.plis_received == before + 1
        assert participant.converged_with(ah.windows)


class TestTailLoss:
    def test_tail_loss_recovered_via_keepalive(self, clock):
        """A packet lost at the very end of a burst leaves no later
        packet to expose the gap; the idle-sender keepalive keeps the
        sequence space moving so the NACK machinery still fires."""
        ah, win, editor = editor_session(clock)
        participant = udp_pair(clock, ah)
        settle(clock, ah, [participant], 40)
        assert participant.converged_with(ah.windows)

        # One final burst whose packets we drop deterministically by
        # raising the loss floor just for these sends.
        link_out = ah.sessions["p1"].transport._out
        original_rate = link_out.config.loss_rate
        editor.type_text("the very last line\n")
        # Force-drop everything the next advance sends.
        object.__setattr__(link_out.config, "loss_rate", 0.999999)
        ah.advance(0.02)
        clock.advance(0.02)
        object.__setattr__(link_out.config, "loss_rate", original_rate)
        participant.process_incoming()
        assert not participant.converged_with(ah.windows)

        # Total silence afterwards: only keepalives flow.  They reveal
        # the gap, the participant NACKs/PLIs, and state converges.
        settle(clock, ah, [participant], 200)
        assert ah.sessions["p1"].scheduler.keepalives_sent > 0
        assert participant.converged_with(ah.windows)

    def test_keepalives_not_sent_on_tcp(self, clock):
        from .helpers import tcp_pair

        ah, _win, _editor = editor_session(clock)
        participant = tcp_pair(clock, ah)
        settle(clock, ah, [participant], 200)
        assert ah.sessions["p1"].scheduler.keepalives_sent == 0


class TestLateJoiner:
    def test_late_joiner_syncs_via_pli(self, clock):
        """Section 4.3: late joiners PLI, the AH answers with
        WindowManagerInfo plus a full image."""
        ah, _win, editor = editor_session(clock)
        early = udp_pair(clock, ah, "early", seed=1)

        def drive(i):
            if i % 5 == 0:
                editor.type_text(f"history {i}\n")

        run_session(clock, ah, [early], 100, per_round=drive)
        # 2 seconds in, a second participant joins mid-session.
        late = udp_pair(clock, ah, "late", seed=2)
        settle(clock, ah, [early, late], 80)
        assert ah.plis_received >= 1
        assert late.wmi_applied >= 1
        assert late.converged_with(ah.windows)

    def test_late_joiner_pli_lost_retries(self, clock):
        ah, _win, _editor = editor_session(clock)
        settle(clock, ah, [], 10)
        # Loss rate high enough that the first PLI may vanish.
        late = udp_pair(clock, ah, "late", loss_rate=0.4, seed=13)
        run_session(clock, ah, [late], 800)
        assert late.plis_sent >= 1
        assert late.wmi_applied >= 1
        assert late.converged_with(ah.windows)

    def test_tcp_joiner_synced_without_pli(self, clock):
        from .helpers import tcp_pair

        ah, _win, editor = editor_session(clock)
        editor.type_text("pre-join content\n")
        participant = tcp_pair(clock, ah)
        settle(clock, ah, [participant], 50)
        assert participant.plis_sent == 0  # TCP sync is connect-time
        assert participant.converged_with(ah.windows)


def _snapshot_total(snap: dict, name: str) -> float:
    """Sum a counter family across label sets in an obs snapshot."""
    return sum(
        value for key, value in snap["counters"].items()
        if key == name or key.startswith(name + "{")
    )


class TestBurstLossRecovery:
    """Acceptance: a scripted 10% Gilbert–Elliott burst-loss profile
    with reordering, asserted through ``repro.obs`` snapshot counters."""

    def test_fragment_stream_reconstructed_via_nack_retries(self, clock):
        from repro.net.channel import FaultProfile
        from repro.obs import Instrumentation

        obs = Instrumentation(clock=clock.now)
        ah, _win, editor = editor_session(clock)
        ge = FaultProfile.gilbert_elliott(0.10, mean_burst=3.0)
        burst = FaultProfile(
            p_good_bad=ge.p_good_bad,
            p_bad_good=ge.p_bad_good,
            reorder_rate=0.05,
            reorder_delay=0.06,
            duplicate_rate=0.03,
        )
        participant = udp_pair(
            clock, ah, seed=11, obs=obs
        )
        def drive(i):
            if i % 6 == 0 and i < 420:
                editor.type_text(f"burst-loss line {i} " + "~" * 40 + "\n")

        world = session_world(clock, ah, [participant], per_round=drive)

        # Script the impairment window: clean join, then 8 seconds of
        # bursty loss while the editor generates multi-fragment
        # updates, then a clean tail to let recovery finish.
        link = participant.link.forward
        world.at(1.0, lambda: link.set_faults(burst))
        world.at(9.0, lambda: link.set_faults(None))
        world.run(700)
        assert world.run_until(
            lambda: participant.converged_with(ah.windows), timeout=20.0
        )

        # The impairment actually happened...
        assert link.datagrams_dropped_burst > 10
        assert link.datagrams_reordered > 0
        assert link.datagrams_duplicated > 0
        # ...and recovery worked through the NACK retry machine.
        snap = obs.snapshot()
        assert _snapshot_total(snap, "recovery.nacks_sent") > 0
        assert _snapshot_total(snap, "recovery.retries") > 0
        assert _snapshot_total(snap, "recovery.recovered") > 0
        assert _snapshot_total(snap, "recovery.gave_up") == 0
        assert ah.nacks_received > 0
        # Fragmented updates crossed the faulty window intact.
        assert participant.updates_applied > 0

    def test_duplicates_suppressed_under_duplication(self, clock):
        from repro.net.channel import FaultProfile
        from repro.obs import Instrumentation

        obs = Instrumentation(clock=clock.now)
        ah, _win, editor = editor_session(clock)
        participant = udp_pair(
            clock, ah, seed=4, obs=obs,
            faults=FaultProfile(duplicate_rate=0.5),
        )

        def drive(i):
            if i % 10 == 0 and i < 200:
                editor.type_text(f"dup {i}\n")

        run_session(clock, ah, [participant], 300, per_round=drive)
        assert participant.converged_with(ah.windows)
        snap = obs.snapshot()
        assert _snapshot_total(snap, "jitter.duplicates") > 0


class TestGiveUpDegradation:
    """Acceptance: with retransmission disabled on the AH, the
    participant provably gives up after its capped retries and
    recovers via a full-update refresh."""

    def test_capped_retries_then_refresh(self, clock):
        from repro.net.channel import FaultProfile
        from repro.obs import Instrumentation

        obs = Instrumentation(clock=clock.now)
        # The AH silently ignores NACKs (retransmissions off) while the
        # participant *believes* retransmissions are supported — the
        # worst case for the retry machine.  A large reorder_wait keeps
        # the jitter buffer from skipping the hole before the retry
        # schedule exhausts, so only give-up can unblock delivery.
        config = SharingConfig(retransmissions=False)
        ah, _win, editor = editor_session(clock, config)
        participant = udp_pair(
            clock, ah, seed=17, obs=obs,
            config=SharingConfig(retransmissions=True),
            reorder_wait=30.0,
        )
        world = session_world(clock, ah, [participant])
        world.run(50)
        assert participant.converged_with(ah.windows)

        # Script a total blackout around one update: every fragment of
        # it is lost, then the link heals and only keepalives flow.
        link = participant.link.forward
        blackout = FaultProfile(loss_good=1.0, loss_bad=1.0)
        world.at(1.2, lambda: link.set_faults(blackout))
        world.at(1.21, lambda: editor.type_text("doomed update " * 30))
        world.at(1.5, lambda: link.set_faults(None))
        world.run(50)
        assert not participant.converged_with(ah.windows)

        # NACK retries fire into the void; after the cap the
        # participant degrades to a PLI-driven full refresh.
        assert world.run_until(
            lambda: participant.converged_with(ah.windows), timeout=30.0
        )
        snap = obs.snapshot()
        assert _snapshot_total(snap, "recovery.nacks_sent") > 0
        assert _snapshot_total(snap, "recovery.retries") > 0
        assert _snapshot_total(snap, "recovery.gave_up") > 0
        assert _snapshot_total(snap, "recovery.recovered") == 0
        assert _snapshot_total(snap, "jitter.sequences_abandoned") > 0
        assert participant.leg.recovery.pending == 0  # state fully drained
        assert ah.plis_received > 0
        assert ah.nacks_received > 0  # the AH heard and ignored them
