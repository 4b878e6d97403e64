"""Table-driven strict-decoding properties for every wire format.

The contract: a decoder fed arbitrary bytes either returns a value or
raises :class:`ProtocolError` (or a domain subclass).  ``struct.error``,
``IndexError``, ``UnicodeDecodeError``, ``zlib.error`` or a bare
``ValueError`` escaping a decoder is a hardening bug — those are the
exceptions that turn one hostile datagram into a crashed session.
"""

import pytest

from repro.bfcp.messages import BfcpMessage
from repro.core.errors import (
    BadMagicError,
    MessageOverflowError,
    ProtocolError,
    SemanticError,
    TruncatedMessageError,
    classify,
)
from repro.core.hip import decode_hip
from repro.core.move_rectangle import MoveRectangle
from repro.core.region_update import RegionUpdate
from repro.core.window_info import WindowManagerInfo
from repro.fuzz.corpus import build_corpus, build_rejects
from repro.fuzz.drivers import SURFACE_DRIVERS
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import decode_compound

CORPUS = build_corpus()
REJECTS = build_rejects()

ALL_SURFACES = sorted(SURFACE_DRIVERS)


def _drive(surface: str, data: bytes) -> None:
    """Run one surface's driver; only ProtocolError may escape."""
    _, driver = SURFACE_DRIVERS[surface]
    try:
        driver(data)
    except ProtocolError:
        pass


class TestStrictPrefixes:
    """Every strict prefix of every valid packet must be handled."""

    @pytest.mark.parametrize("surface", ALL_SURFACES)
    def test_every_prefix_decodes_or_raises_protocol_error(self, surface):
        for packet in CORPUS[surface]:
            for cut in range(len(packet)):
                _drive(surface, packet[:cut])

    @pytest.mark.parametrize("surface", ALL_SURFACES)
    def test_whole_corpus_packets_decode(self, surface):
        _, driver = SURFACE_DRIVERS[surface]
        for packet in CORPUS[surface]:
            driver(packet)  # a valid packet must not raise at all

    @pytest.mark.parametrize("surface", sorted(REJECTS))
    def test_near_valid_rejects_fail_for_their_reason(self, surface):
        _, driver = SURFACE_DRIVERS[surface]
        for packet, reason in REJECTS[surface]:
            with pytest.raises(ProtocolError) as excinfo:
                driver(packet)
            assert excinfo.value.reason == reason


class TestInflatedFields:
    """Any integer field inflated to its maximum must be survivable.

    Sliding a saturated 2- or 4-byte window across the whole packet
    hits every length, count and dimension field the format has.
    """

    @pytest.mark.parametrize("surface", ALL_SURFACES)
    @pytest.mark.parametrize("width,fill", [(2, b"\xff\xff"),
                                            (4, b"\xff\xff\xff\xff"),
                                            (4, b"\x7f\xff\xff\xff")])
    def test_saturated_windows(self, surface, width, fill):
        for packet in CORPUS[surface]:
            for offset in range(max(0, len(packet) - width) + 1):
                mutated = packet[:offset] + fill + packet[offset + width:]
                _drive(surface, mutated)


class TestGarbageInput:
    """Inputs with no structure at all."""

    @pytest.mark.parametrize("surface", ALL_SURFACES)
    def test_empty_and_junk(self, surface):
        for data in (b"", b"\x00", b"\xff" * 3, b"\x00" * 64,
                     b"\xff" * 64, bytes(range(256))):
            _drive(surface, data)


class TestRoundTrips:
    """decode(encode(x)) == x, and re-encoding is byte-exact."""

    def test_rtp_round_trip(self):
        for raw in CORPUS["rtp"]:
            assert RtpPacket.decode(raw).encode() == raw

    def test_rtcp_compound_round_trip(self):
        from repro.rtp.rtcp import encode_compound

        for raw in CORPUS["rtcp"][:3]:  # the compound datagrams
            packets = decode_compound(raw)
            assert encode_compound(packets) == raw

    def test_hip_round_trip(self):
        for raw in CORPUS["hip"]:
            assert decode_hip(raw).encode() == raw

    def test_remoting_round_trip(self):
        update = RegionUpdate.decode_single(CORPUS["remoting"][0])
        assert update.encode_single() == CORPUS["remoting"][0]
        move = MoveRectangle.decode(CORPUS["remoting"][1])
        assert move.encode() == CORPUS["remoting"][1]
        info = WindowManagerInfo.decode(CORPUS["remoting"][2])
        assert info.encode() == CORPUS["remoting"][2]

    def test_bfcp_round_trip(self):
        for raw in CORPUS["bfcp"]:
            assert BfcpMessage.decode(raw).encode() == raw


class TestTaxonomy:
    """The reason labels decoders attach drive the rejection metrics."""

    def test_reasons_classify(self):
        assert classify(TruncatedMessageError("x")) == "truncated"
        assert classify(MessageOverflowError("x")) == "overflow"
        assert classify(BadMagicError("x")) == "bad_magic"
        assert classify(SemanticError("x")) == "semantic"
        assert classify(ProtocolError("x")) == "malformed"
        assert classify(ProtocolError("x", reason="overflow")) == "overflow"
        assert classify(RuntimeError("x")) == "malformed"

    def test_truncated_rtp_reports_truncated(self):
        with pytest.raises(ProtocolError) as excinfo:
            RtpPacket.decode(b"\x80\x63\x00")
        assert excinfo.value.reason == "truncated"

    def test_geometry_outside_desktop_reports_semantic(self):
        payload = RegionUpdate(1, 5000, 5000, 3, b"x").encode_single()
        with pytest.raises(ProtocolError) as excinfo:
            RegionUpdate.decode_single(payload, bounds=(1280, 1024))
        assert excinfo.value.reason == "semantic"

    def test_move_rectangle_outside_desktop_rejected(self):
        payload = MoveRectangle(1, 0, 0, 2000, 10, 0, 0).encode()
        with pytest.raises(ProtocolError):
            MoveRectangle.decode(payload, bounds=(1280, 1024))
        MoveRectangle.decode(payload)  # without bounds: accepted
