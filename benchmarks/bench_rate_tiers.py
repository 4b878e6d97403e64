"""E11 — rate-tiered UDP distribution (section 4.3).

"Several simultaneous multicast sessions with different transmission
rates can be created at the AH."  Four participants watch the same
animation behind 0.5/1/2/4 Mb/s token buckets.  Rows report achieved
egress rate against the configured tier and how stale each tier's view
runs — slower tiers coalesce more and skip intermediate frames rather
than falling behind.
"""

import pytest

from repro.apps.animation import AnimationApp
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from sessions import add_udp_participant, session_world

SECONDS = 5.0
DT = 1 / 30
TIERS = {
    "0.5Mbps": 500_000,
    "1Mbps": 1_000_000,
    "2Mbps": 2_000_000,
    "4Mbps": 4_000_000,
}


def _tiered_session():
    clock = SimulatedClock()
    ah = ApplicationHost(config=SharingConfig(), clock=clock.now)
    win = ah.windows.create_window(Rect(0, 0, 320, 240))
    ah.apps.attach(AnimationApp(win, fps=30, balls=3))
    participants = {}
    for name, rate in TIERS.items():
        participants[name] = add_udp_participant(
            clock, ah, name, seed=hash(name) % 100, rate_bps=rate
        )
    rounds = int(SECONDS / DT)
    session_world(clock, ah, list(participants.values()), DT).run(rounds)
    return clock, ah, participants


def test_rate_tiers(benchmark, experiment):
    recorder = experiment("E11", "rate-tiered distribution of one animation")
    clock, ah, participants = benchmark.pedantic(
        _tiered_session, rounds=1, iterations=1
    )
    for name, rate in TIERS.items():
        scheduler = ah.sessions[name].scheduler
        achieved = scheduler.bytes_sent * 8 / clock.now()
        staleness = scheduler.updates_sent_stale_after
        p95 = 0.0
        if staleness:
            ordered = sorted(staleness)
            p95 = ordered[int(0.95 * (len(ordered) - 1))]
        recorder.row(
            tier=name,
            target_mbps=rate / 1e6,
            achieved_mbps=achieved / 1e6,
            utilisation_pct=100 * achieved / rate,
            frames_coalesced=scheduler.frames_coalesced,
            updates_applied=participants[name].updates_applied,
            staleness_p95_ms=p95 * 1000,
        )
        # Pacing must never overshoot the tier (beyond the burst).
        assert achieved <= rate * 1.15
