"""Tests for the NACK retry state machine (RecoveryManager)."""

import pytest

from repro.obs import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.sharing.recovery import RecoveryManager


@pytest.fixture
def clock():
    return SimulatedClock()


def manager(clock, **kwargs):
    kwargs.setdefault("initial_interval", 0.2)
    kwargs.setdefault("backoff", 2.0)
    kwargs.setdefault("max_attempts", 3)
    return RecoveryManager(now=clock.now, **kwargs)


class TestFirstNack:
    def test_new_gap_nacked_immediately(self, clock):
        m = manager(clock)
        actions = m.poll([10, 11])
        assert sorted(actions.nack_now) == [10, 11]
        assert m.nacks_sent == 2
        assert m.pending == 2

    def test_no_renack_before_retry_interval(self, clock):
        m = manager(clock)
        m.poll([10])
        clock.advance(0.1)  # < initial_interval
        actions = m.poll([10])
        assert actions.nack_now == []
        assert m.nacks_sent == 1

    def test_empty_missing_no_actions(self, clock):
        m = manager(clock)
        actions = m.poll([])
        assert actions.nack_now == [] and actions.gave_up == []

    def test_idle_poll_reads_no_clock(self, clock):
        reads = []
        m = RecoveryManager(now=lambda: reads.append(1) or clock.now())
        for _ in range(3):
            assert m.poll([]).nack_now == []
        assert reads == []
        m.poll([10])  # something to do: the clock is read
        assert reads


class TestPendingGauge:
    @pytest.mark.parametrize("clear", ["arrival", "cancel"])
    def test_gauge_reads_zero_after_the_last_loss_clears(self, clock, clear):
        obs = Instrumentation(clock=clock.now)
        m = RecoveryManager(now=clock.now, instrumentation=obs)
        gauge = obs.registry.gauge("recovery.pending")
        m.poll([10])
        assert gauge.value == 1
        if clear == "arrival":
            m.note_arrival(10)
        else:
            m.cancel(10)
        assert m.poll([]).nack_now == []  # the early return
        assert gauge.value == 0 == m.pending


class TestRetryBackoff:
    def test_retry_after_interval(self, clock):
        m = manager(clock)
        m.poll([10])
        clock.advance(0.25)
        actions = m.poll([10])
        assert actions.nack_now == [10]
        assert m.retries == 1

    def test_exponential_backoff_schedule(self, clock):
        """Retries land at +0.2, then +0.4, never earlier."""
        m = manager(clock, max_attempts=5)
        m.poll([10])  # attempt 1 at t=0
        clock.advance(0.2)
        assert m.poll([10]).nack_now == [10]  # attempt 2 at t=0.2
        clock.advance(0.2)  # backoff doubled: next due at 0.2 + 0.4
        assert m.poll([10]).nack_now == []
        clock.advance(0.25)
        assert m.poll([10]).nack_now == [10]  # attempt 3
        assert m.retries == 2

    def test_attempts_tracked_per_seq(self, clock):
        m = manager(clock)
        m.poll([10])
        clock.advance(0.3)
        m.poll([10, 20])
        assert m.pending_attempts(10) == 2
        assert m.pending_attempts(20) == 1
        assert m.pending_attempts(30) == 0


class TestGiveUp:
    def exhaust(self, clock, m, seq=10):
        m.poll([seq])
        for _ in range(m.max_attempts - 1):
            clock.advance(10)
            m.poll([seq])

    def test_gives_up_after_capped_attempts(self, clock):
        m = manager(clock, max_attempts=3)
        self.exhaust(clock, m)
        assert m.nacks_sent == 3
        clock.advance(10)
        actions = m.poll([10])
        assert actions.gave_up == [10]
        assert actions.refresh_needed
        assert m.gave_up == 1
        assert m.pending == 0

    def test_no_nacks_after_give_up(self, clock):
        m = manager(clock, max_attempts=2)
        self.exhaust(clock, m)
        clock.advance(10)
        m.poll([10])
        before = m.nacks_sent
        clock.advance(10)
        # The caller acknowledges the gap after give-up, but even if the
        # same seq is reported again it re-enters as a *new* loss.
        actions = m.poll([10])
        assert m.nacks_sent == before + 1  # fresh entry, not a retry
        assert actions.nack_now == [10]


class TestRecovery:
    def test_recovered_via_poll(self, clock):
        m = manager(clock)
        m.poll([10])
        clock.advance(0.05)
        m.poll([])  # gap disappeared from the missing set
        assert m.recovered == 1
        assert m.pending == 0

    def test_recovered_via_arrival(self, clock):
        m = manager(clock)
        m.poll([10])
        clock.advance(0.05)
        m.note_arrival(10)
        assert m.recovered == 1
        assert m.pending == 0

    def test_latency_histogram_records(self, clock):
        obs = Instrumentation(clock=clock.now)
        m = RecoveryManager(now=clock.now, instrumentation=obs)
        m.poll([10])
        clock.advance(0.125)
        m.note_arrival(10)
        summary = obs.registry.histogram("recovery.latency_seconds").summary()
        assert summary["count"] == 1
        assert summary["max"] == pytest.approx(0.125)

    def test_duplicate_retransmission_suppressed(self, clock):
        m = manager(clock)
        m.poll([10])
        m.note_arrival(10)  # retransmission arrives
        m.note_arrival(10)  # ...and its duplicate
        assert m.recovered == 1
        assert m.duplicates_suppressed == 1

    def test_cancel_removes_pending(self, clock):
        m = manager(clock)
        m.poll([10])
        m.cancel(10)
        assert m.pending == 0
        assert m.cancelled == 1
        clock.advance(10)
        # Re-reported: fresh NACK, not give-up.
        assert m.poll([10]).nack_now == [10]


class TestWraparound:
    def test_state_keyed_by_extended_seq(self, clock):
        """A missing seq after wraparound is a new loss, not the old one."""
        m = manager(clock, max_attempts=3)
        m.note_arrival(0xFFF0)
        m.poll([0xFFF2])  # loss just before wrap
        assert m.pending_attempts(0xFFF2) == 1
        m.note_arrival(0xFFF2)
        # One full cycle later the same residue goes missing again.
        for seq in (0xFFFE, 0xFFFF, 0x0000, 0xFFF0):
            m.note_arrival(seq)
        actions = m.poll([0xFFF2])
        assert actions.nack_now == [0xFFF2]
        assert m.pending_attempts(0xFFF2) == 1  # fresh entry, attempt 1

    def test_wraparound_gap_nacked_with_wire_seq(self, clock):
        m = manager(clock)
        m.note_arrival(0xFFFE)
        m.note_arrival(0x0002)
        actions = m.poll([0xFFFF, 0x0000, 0x0001])
        assert sorted(actions.nack_now) == [0x0000, 0x0001, 0xFFFF]


class TestValidation:
    def test_rejects_bad_parameters(self, clock):
        with pytest.raises(ValueError):
            RecoveryManager(now=clock.now, initial_interval=0)
        with pytest.raises(ValueError):
            RecoveryManager(now=clock.now, backoff=0.5)
        with pytest.raises(ValueError):
            RecoveryManager(now=clock.now, max_attempts=0)
        with pytest.raises(ValueError):
            RecoveryManager(now=clock.now, recovered_memory=-1)
