#!/usr/bin/env python3
"""Causal span tracing over a bursty UDP path.

A traced variant of ``lossy_network.py``: one participant follows a
scrolling terminal through Gilbert–Elliott burst loss while every
RegionUpdate carries an end-to-end causal span
(schedule → encode → fragment → send → network → receive → reassemble
→ decode → apply).  The example then reads the trace back:

* the per-stage latency waterfall (p50/p95/p99);
* the ``recovered=yes`` split — updates that only completed because a
  NACK retransmission filled their loss;
* one fully-recovered span's stage timeline;
* the anomaly flight recorder and the Chrome-trace/Prometheus exports.

Run:  python examples/traced_lossy_network.py
"""

from repro import Instrumentation
from repro.apps import TerminalApp
from repro.net.channel import ChannelConfig, FaultProfile, duplex_lossy
from repro.obs.report import PERCENTILES, bench_payload, render_waterfall
from repro.obs.spans import OPTIONAL_STAGES, STAGES
from repro.rtp.clock import SimulatedClock
from repro.sharing import ApplicationHost, DatagramTransport, Participant
from repro.surface import Rect


def main() -> None:
    clock = SimulatedClock()
    obs = Instrumentation(clock=clock)
    obs.spans  # switch span tracing on before the session is built

    ah = ApplicationHost(clock=clock, obs=obs)
    window = ah.windows.create_window(Rect(40, 40, 480, 320), title="build log")
    terminal = TerminalApp(window)
    ah.apps.attach(terminal)

    link = duplex_lossy(
        ChannelConfig(delay=0.02, seed=42),
        clock.now,
        instrumentation=obs.scoped(peer="p1"),
        faults=FaultProfile.gilbert_elliott(0.08, mean_burst=4.0),
    )
    ah.add_participant("p1", DatagramTransport(link.forward, link.backward))
    participant = Participant(
        "p1",
        DatagramTransport(link.backward, link.forward),
        clock=clock,
        config=ah.config,
        obs=obs,
    )
    participant.join()

    for i in range(500):
        if i % 5 == 0:
            terminal.append_line(f"[{i:04d}] CC module_{i % 9}.c")
        ah.advance(0.02)
        clock.advance(0.02)
        participant.process_incoming()
    for _ in range(60):  # quiet tail: let in-flight repairs land
        ah.advance(0.02)
        clock.advance(0.02)
        participant.process_incoming()

    print("per-stage latency waterfall under burst loss:")
    print(render_waterfall(bench_payload(obs, "burst-example", 500)))

    recovered = [s for s in obs.spans.completed
                 if s.outcome == "complete" and s.recovered]
    print(f"\nconverged: {participant.converged_with(ah.windows)}")
    print(f"recovered updates traced: {len(recovered)}")
    if recovered:
        span = recovered[0]
        chain_complete = all(
            stage in span.stages
            for stage in STAGES if stage not in OPTIONAL_STAGES
        )
        print(f"complete causal chain: {chain_complete}")
        start = span.start
        print(f"stage timeline of update #{span.update_id} "
              f"(e2e {span.e2e_seconds() * 1e3:.1f} ms):")
        for stage in STAGES:
            if stage not in span.stages:  # e.g. no relay in the path
                continue
            t0, t1 = span.stages[stage]
            print(f"  {stage:<10} +{(t0 - start) * 1e3:7.1f} ms "
                  f"→ +{(t1 - start) * 1e3:7.1f} ms")

    e2e = obs.registry.get("update.e2e_seconds", recovered="yes")
    p50, p95, p99 = e2e.percentiles(PERCENTILES)
    print(f"recovered-update e2e p50/p95/p99: "
          f"{p50 * 1e3:.0f}/{p95 * 1e3:.0f}/{p99 * 1e3:.0f} ms")

    # Every give-up/expiry/quarantine anomaly carries its causal
    # history; here the rings exist but no sentinel fired.
    flight = obs.flight
    print(f"flight recorder: {len(flight.dumps)} dumps, "
          f"rings for {len(flight.peers)} peers")

    chrome = obs.export_chrome_trace()
    prom = obs.export_prometheus()
    span_events = chrome.count('"ph": "X"')
    print(f"chrome trace: {span_events} span events; "
          f"prometheus exposition: {len(prom.splitlines())} lines")


if __name__ == "__main__":
    main()
