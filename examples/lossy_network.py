#!/usr/bin/env python3
"""Sharing over a lossy UDP path: NACK recovery and a late joiner.

Demonstrates the UDP machinery of sections 4.3 and 5.3: a rate-paced
UDP participant rides out 8 % packet loss via Generic NACK
retransmissions, and a second participant joining mid-session bootstraps
with a Picture Loss Indication.

Run:  python examples/lossy_network.py
"""

from repro import Instrumentation
from repro.apps import TerminalApp
from repro.net.channel import ChannelConfig, duplex_lossy
from repro.rtp.clock import SimulatedClock
from repro.sharing import ApplicationHost, DatagramTransport, Participant
from repro.surface import Rect


def attach_udp_participant(clock, ah, name, loss_rate, seed, rate_bps=None):
    link = duplex_lossy(
        ChannelConfig(delay=0.02, loss_rate=loss_rate, seed=seed), clock.now,
        instrumentation=ah.obs.scoped(peer=name),
    )
    ah.add_participant(
        name, DatagramTransport(link.forward, link.backward), rate_bps=rate_bps
    )
    participant = Participant(
        name,
        DatagramTransport(link.backward, link.forward),
        clock=clock,
        config=ah.config,
        obs=ah.obs,
    )
    participant.join()  # UDP joiners announce themselves with a PLI
    return participant


def main() -> None:
    clock = SimulatedClock()
    obs = Instrumentation(clock=clock)
    ah = ApplicationHost(clock=clock, obs=obs)
    window = ah.windows.create_window(Rect(40, 40, 480, 320), title="build log")
    terminal = TerminalApp(window)
    ah.apps.attach(terminal)

    early = attach_udp_participant(clock, ah, "early", loss_rate=0.08, seed=42)
    participants = [early]

    lines_emitted = 0

    def run(rounds, emit_every=None):
        nonlocal lines_emitted
        for i in range(rounds):
            if emit_every and i % emit_every == 0:
                terminal.append_line(
                    f"[{lines_emitted:04d}] CC module_{lines_emitted % 9}.c"
                )
                lines_emitted += 1
            ah.advance(0.02)
            clock.advance(0.02)
            for participant in participants:
                participant.process_incoming()

    print("phase 1: early participant follows a scrolling build log "
          "through 8% loss")
    run(300, emit_every=5)
    run(60)  # quiet tail: let in-flight repairs land before reporting
    print(f"  early converged: {early.converged_with(ah.windows)}")
    print(f"  NACKs sent by participant: {early.nacks_sent}, "
          f"answered by AH: {ah.nacks_received}")
    cache = ah.sessions['early'].scheduler.retransmit_cache
    print(f"  retransmit cache hits: {cache.hits}")

    print("phase 2: a late joiner arrives mid-session and PLIs for state")
    late = attach_udp_participant(clock, ah, "late", loss_rate=0.08, seed=7)
    participants.append(late)
    run(200, emit_every=5)
    print(f"  PLIs received at AH: {ah.plis_received}")
    print(f"  late joiner windows: {sorted(late.windows)}, "
          f"converged: {late.converged_with(ah.windows)}")

    print("phase 3: both keep following live updates")
    run(200, emit_every=4)
    for participant in participants:
        stats = participant.stats
        print(
            f"  {participant.id}: {stats.region_update.packets} update pkts, "
            f"{stats.region_update.wire_bytes/1024:.1f} KiB, "
            f"converged={participant.converged_with(ah.windows)}"
        )

    # The whole recovery story, from the unified metrics snapshot: the
    # channel layer counts the loss, the participants count the NACKs
    # and PLIs, and the scheduler counts the replayed packets.
    reg = obs.registry
    print("snapshot of the loss/recovery machinery:")
    print(
        f"  channel dropped {reg.total('channel.datagrams_dropped'):.0f} of "
        f"{reg.total('channel.datagrams_sent'):.0f} datagrams; "
        f"jitter buffer skipped {reg.total('jitter.sequences_skipped'):.0f} "
        f"sequences"
    )
    print(
        f"  participants sent {reg.total('participant.nacks_sent'):.0f} NACKs "
        f"/ {reg.total('participant.plis_sent'):.0f} PLIs; scheduler "
        f"replayed {reg.total('scheduler.retransmit_packets'):.0f} packets"
    )


if __name__ == "__main__":
    main()
