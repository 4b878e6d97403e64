"""The per-layer table: which calls the harness wraps, and what it reports.

A layer is a ``repro`` module.  :func:`specs` lists the public entry
points of each layer with the span name the harness records around
them; :func:`metrics` turns a traced pass into the ``per_layer`` metrics
of ``BENCHMARK.json``.  Every span name yields ``<name>.calls`` and
``<name>.self_ms`` (span time minus child spans, summed over the timed
region); counts taken at the same boundaries sit next to them.
"""

from __future__ import annotations

from measure import percentile

#: Spans that must never open inside the timed region: the workload
#: generator's pixel rendering.
GENERATOR_SPAN = "harness.generator"


# -- Counts taken where the spans close ------------------------------------------------


def _scroll(rec, args, op) -> None:
    rec.counts["surface.scroll.hits"] += op is not None


def _diff(rec, args, region) -> None:
    rec.counts["surface.diff.changed_tiles"] += sum(1 for _ in region)


def _capture(rec, args, frame) -> None:
    rec.counts["capture.empty"] += frame.is_empty


def _png_encode(rec, args, data) -> None:
    rec.counts["codecs.png_encode.bytes_in"] += args[1].nbytes
    rec.counts["codecs.png_encode.bytes_out"] += len(data)


def _fragment(rec, args, fragments) -> None:
    rec.counts["core.fragment.packets_out"] += len(fragments)


def _lossy_send(rec, args, delivered) -> None:
    rec.counts["net.dropped"] += not delivered
    in_flight = args[0].in_flight
    if in_flight > rec.maxima["net.in_flight_max"]:
        rec.maxima["net.in_flight_max"] = in_flight


def _sender_pump(rec, args, sent) -> None:
    depth = args[0].queue_depth
    if depth > rec.maxima["sender.queue_depth_max"]:
        rec.maxima["sender.queue_depth_max"] = depth


def _retransmit(rec, args, count) -> None:
    rec.counts["sender.retransmit_packets"] += count


def _recovery_poll(rec, args, actions) -> None:
    if actions.nack_now or actions.gave_up:
        rec.counts["recovery.useful_polls"] += 1
        rec.counts["recovery.nacks_sent"] += len(actions.nack_now)
        rec.counts["recovery.gave_up"] += len(actions.gave_up)


def _relay_pump(rec, args, processed) -> None:
    depth = max(
        (len(d.queue) for d in args[0].downstreams.values()), default=0
    )
    if depth > rec.maxima["relay.queue_depth_max"]:
        rec.maxima["relay.queue_depth_max"] = depth


def specs() -> list:
    """``(owner, attribute, span name, after hook)`` for every boundary."""
    import workloads
    from repro.apps import photo_viewer
    from repro.codecs.png import PngCodec
    from repro.core.fragmentation import UpdateReassembler
    from repro.health.liveness import LivenessTracker
    from repro.net.channel import LossyChannel, ReliableChannel
    from repro.relay.node import RelayNode
    from repro.relay.tree import RelayTree
    from repro.rtp.packet import RtpPacket
    from repro.rtp.reports import RtcpReporter
    from repro.rtp.session import RtpReceiver
    from repro.sharing import encoder
    from repro.sharing.ah import ApplicationHost
    from repro.sharing.capture import CapturePipeline
    from repro.sharing.participant import Participant
    from repro.sharing.recovery import RecoveryManager
    from repro.sharing.sender import UpdateScheduler
    from repro.sharing.server.core import SessionCore
    from repro.surface import text
    from repro.surface.damage import TileDiffer
    from repro.surface.scroll import ScrollDetector

    return [
        (TileDiffer, "diff", "surface.diff", _diff),
        (ScrollDetector, "detect", "surface.scroll", _scroll),
        (CapturePipeline, "capture", "capture", _capture),
        (encoder.FrameEncoder, "encode_frame", "encoder", None),
        (PngCodec, "encode", "codecs.png_encode", _png_encode),
        (PngCodec, "decode", "codecs.png_decode", None),
        # Imported by name into the encoder: patch that binding.
        (encoder, "fragment_update", "core.fragment", _fragment),
        (UpdateReassembler, "push", "core.reassemble", None),
        (RtpPacket, "encode", "rtp.pack", None),
        (RtpPacket, "decode", "rtp.unpack", None),
        (RtpReceiver, "receive", "rtp.receive", None),
        (RtpReceiver, "missing_sequence_numbers", "rtp.missing", None),
        (RtcpReporter, "poll", "rtp.rtcp", None),
        (LossyChannel, "send", "net.send", _lossy_send),
        (LossyChannel, "receive_ready", "net.receive", None),
        (ReliableChannel, "send", "net.send", None),
        (ReliableChannel, "receive_ready", "net.receive", None),
        (UpdateScheduler, "pump", "sender.pump", _sender_pump),
        (UpdateScheduler, "flush", "sender.flush", None),
        (UpdateScheduler, "retransmit", "sender.retransmit", _retransmit),
        (RecoveryManager, "poll", "recovery.poll", _recovery_poll),
        (RecoveryManager, "note_arrival", "recovery.note_arrival", None),
        (RelayNode, "pump", "relay.pump", _relay_pump),
        (RelayTree, "pump", "relay.pump", None),
        (Participant, "process_incoming", "participant.process", None),
        (ApplicationHost, "advance", "ah.advance", None),
        (SessionCore, "media_round", "server.round", None),
        (SessionCore, "poll_rtcp", "server.round", None),
        (SessionCore, "poll_liveness", "server.round", None),
        (SessionCore, "pump_signalling", "server.signalling", None),
        (LivenessTracker, "poll", "health.poll", None),
        # The lightweight relay viewer is harness glue around rtp and
        # recovery; its own loop is reported, not hidden.
        (workloads.SimViewer, "pump", "harness.sim_viewer", None),
        (text, "render_char", GENERATOR_SPAN, None),
        (photo_viewer, "synthetic_photo", GENERATOR_SPAN, None),
    ]


def span_names() -> list[str]:
    names = []
    for _owner, _attribute, name, _after in specs():
        if name != GENERATOR_SPAN and name not in names:
            names.append(name)
    return names


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(recorder, traced, plain) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced pass.

    ``plain`` is the untraced pass of the same workload, seed and wave
    count made just before; the two timed walls give the tracing
    overhead.
    """
    meter = traced.meter
    counts, maxima, program = recorder.counts, recorder.maxima, traced.counters
    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = recorder.calls_of(name)
        out[f"{name}.self_ms"] = recorder.self_ns(name) / 1e6

    out["surface.diff.changed_tiles"] = counts["surface.diff.changed_tiles"]
    out["surface.scroll.hits"] = counts["surface.scroll.hits"]
    out["capture.empty_ratio"] = _ratio(
        counts["capture.empty"], recorder.calls_of("capture")
    )
    lookups = program["cache_hits"] + program["cache_misses"]
    out["encoder.cache_hit_ratio"] = _ratio(program["cache_hits"], lookups)
    out["codecs.png_encode.bytes_out"] = counts["codecs.png_encode.bytes_out"]
    out["codecs.compress_ratio"] = _ratio(
        counts["codecs.png_encode.bytes_in"],
        counts["codecs.png_encode.bytes_out"],
    )
    out["core.fragment.packets_out"] = counts["core.fragment.packets_out"]
    out["core.reassemble.drops"] = program["reassemble_drops"]
    out["net.dropped"] = counts["net.dropped"]
    out["net.in_flight_max"] = maxima["net.in_flight_max"]
    out["sender.queue_depth_max"] = maxima["sender.queue_depth_max"]
    out["sender.frames_coalesced"] = program["frames_coalesced"]
    out["sender.retransmit_packets"] = counts["sender.retransmit_packets"]
    out["recovery.useful_poll_ratio"] = _ratio(
        counts["recovery.useful_polls"], recorder.calls_of("recovery.poll")
    )
    out["recovery.nacks_sent"] = counts["recovery.nacks_sent"]
    out["recovery.gave_up"] = counts["recovery.gave_up"]
    out["relay.forwarded_packets"] = program.get("relay_forwarded", 0)
    out["relay.absorbed_nacks"] = program.get("relay_absorbed_nacks", 0)
    out["relay.escalated_nacks"] = program.get("relay_escalated_nacks", 0)
    out["relay.queue_depth_max"] = maxima["relay.queue_depth_max"]
    out["participant.updates_applied"] = program["updates_applied"]

    # Timed wall no span covers: on server-sessions the asyncio loop and
    # task switches; elsewhere the harness's own call overhead.
    uncovered_ns = meter.timed_ns - recorder.top_ns
    out["server.loop_overhead_ms"] = uncovered_ns / 1e6
    out["harness.unattributed_share"] = uncovered_ns / meter.timed_ns
    round_ms = [ns / 1e6 for ns in meter.round_ns]
    budget_ms = traced.workload.dt * 1e3
    out["harness.round_host_ms_p50"] = percentile(round_ms, 50)
    out["harness.round_host_ms_p99"] = percentile(round_ms, 99)
    out["harness.rounds_over_budget_ratio"] = _ratio(
        sum(1 for ms in round_ms if ms > budget_ms), len(round_ms)
    )
    out["harness.generator_ms"] = meter.generator_ns / 1e6
    out["harness.verify_ms"] = meter.verify_ns / 1e6
    out["harness.generator_calls_in_timed"] = recorder.calls_of(GENERATOR_SPAN)
    out["harness.timed_wall_s"] = plain.meter.timed_ns / 1e9
    out["trace.overhead_ratio"] = meter.timed_ns / plain.meter.timed_ns
    return out


def print_table(values: dict, catalogue_rows: list, outcome) -> None:
    """Self time per layer as share of the timed wall, per update and
    per packet, then every per-layer metric by name."""
    meter = outcome.meter
    timed_ms = meter.timed_ns / 1e6
    packets = values["net.send.calls"]
    print(f"  traced timed wall {timed_ms:.1f} ms,"
          f" {meter.waves} updates, {packets} packets sent")
    print(f"  {'span':<24} {'calls':>9} {'self ms':>10} {'share':>7}"
          f" {'us/update':>11} {'us/packet':>10}")
    spans = sorted(
        span_names(), key=lambda n: values[f"{n}.self_ms"], reverse=True
    )
    for name in spans:
        calls, self_ms = values[f"{name}.calls"], values[f"{name}.self_ms"]
        if not calls:
            continue
        print(
            f"  {name:<24} {calls:>9} {self_ms:>10.1f}"
            f" {self_ms / timed_ms:>7.1%}"
            f" {self_ms * 1e3 / meter.waves:>11.1f}"
            f" {_ratio(self_ms * 1e3, packets):>10.2f}"
        )
    for row in catalogue_rows:
        print(f"  {row['name']:<34} {values[row['name']]:>14.4f} {row['unit']}")
