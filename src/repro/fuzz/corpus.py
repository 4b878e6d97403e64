"""Valid seed packets for every fuzzed surface, plus near-valid rejects.

Structure-aware fuzzing starts from encodings the repo's own encoders
produce — mutations of a valid packet explore the decoder far deeper
than pure random bytes, which usually die on the first magic/length
check.  A check that no mutation of a valid packet can reach gets a
near-valid seed in :func:`build_rejects`.  Everything here is
deterministic: the corpus is part of the reproducibility contract (same
seed ⇒ same run).
"""

from __future__ import annotations

import numpy as np

from ..bfcp.messages import floor_release, floor_request, floor_request_status
from ..codecs.lossy import LossyDctCodec
from ..codecs.png.chunks import (
    SIGNATURE,
    TYPE_IDAT,
    TYPE_IEND,
    TYPE_IHDR,
    Chunk,
    iter_chunks,
)
from ..codecs.png.encoder import encode_png
from ..core.fragmentation import fragment_update
from ..core.hip import (
    KeyPressed,
    KeyReleased,
    KeyTyped,
    MouseMoved,
    MousePressed,
    MouseReleased,
    MouseWheelMoved,
)
from ..core.move_rectangle import MoveRectangle
from ..core.mouse_pointer import MousePointerInfo
from ..core.region_update import RegionUpdate
from ..core.registry import MSG_REGION_UPDATE
from ..core.window_info import WindowManagerInfo, WindowRecord
from ..rtp.feedback import PictureLossIndication, nacks_for
from ..rtp.packet import RtpPacket
from ..rtp.rtcp import (
    Bye,
    ReceiverReport,
    ReportBlock,
    SdesChunk,
    SenderReport,
    SourceDescription,
    encode_compound,
)
from ..sdp.negotiation import build_ah_offer
from ..sip.messages import SipMessage

#: Desktop bounds the geometry-validating decoders are driven with.
DESKTOP_BOUNDS = (1280, 1024)


def _pixels(width: int = 8, height: int = 6) -> np.ndarray:
    """A small deterministic RGBA gradient."""
    base = np.arange(width * height * 4, dtype=np.uint32) * 37 % 251
    return base.astype(np.uint8).reshape(height, width, 4)


def _remoting() -> list[bytes]:
    update = RegionUpdate(1, 10, 20, 3, bytes(range(64)) * 4)
    fragments = fragment_update(
        MSG_REGION_UPDATE, 1, 3, 10, 20, update.data, max_payload=96
    )
    packets = [
        update.encode_single(),
        MoveRectangle(1, 4, 4, 32, 16, 100, 80).encode(),
        WindowManagerInfo(
            (
                WindowRecord(1, 0, 0, 0, 640, 480),
                WindowRecord(2, 1, 100, 120, 320, 200),
            )
        ).encode(),
        MousePointerInfo(1, 320, 240).encode_single(),
        MousePointerInfo(1, 15, 25, 3, bytes(range(32))).encode_single(),
    ]
    packets.extend(f.payload for f in fragments)
    return packets


def _hip() -> list[bytes]:
    return [
        MousePressed(1, 1, 100, 200).encode(),
        MouseReleased(1, 1, 100, 200).encode(),
        MouseMoved(1, 101, 201).encode(),
        MouseWheelMoved(1, 101, 201, -240).encode(),
        KeyPressed(1, 65).encode(),
        KeyReleased(1, 65).encode(),
        KeyTyped(1, "héllo, wörld ✓").encode(),
    ]


def _rtp() -> list[bytes]:
    return [
        RtpPacket(99, 1000, 90_000, 0xDEADBEEF, b"payload").encode(),
        RtpPacket(
            100, 65_535, 0xFFFF_FFFF, 1, b"x" * 48, marker=True,
            csrcs=(7, 8, 9),
        ).encode(),
        RtpPacket(99, 0, 0, 2, b"").encode(),
    ]


def _rtcp() -> list[bytes]:
    block = ReportBlock(0xDEADBEEF, 3, 1000, 2000, 45, 1234, 5678)
    sdes = SourceDescription(
        (SdesChunk(0xCAFE, ((1, "ah/p1@example"), (6, "répro"))),)
    )
    nack = nacks_for(1, 2, [100, 101, 119])
    return [
        encode_compound(
            [SenderReport(0xCAFE, 1 << 32, 90_000, 10, 1400, (block,)), sdes]
        ),
        encode_compound([ReceiverReport(0xCAFE, (block,)), sdes]),
        encode_compound([Bye((0xCAFE,), "goodbye")]),
        PictureLossIndication(1, 2).encode(),
        nack.encode(),
    ]


def _sdp() -> list[bytes]:
    offer = build_ah_offer().to_string()
    return [offer.encode("utf-8")]


def _sip() -> list[bytes]:
    sdp = build_ah_offer().to_string()
    invite = SipMessage.request(
        "INVITE",
        "sip:participant@example.com",
        {
            "Via": "SIP/2.0/TCP ah.example.com:5060",
            "From": "<sip:ah@example.com>;tag=1",
            "To": "<sip:participant@example.com>",
            "Call-ID": "fuzz-corpus-1",
            "CSeq": "1 INVITE",
        },
        body=sdp,
    )
    ok = SipMessage.response(
        200,
        "OK",
        {
            "Via": "SIP/2.0/TCP ah.example.com:5060",
            "From": "<sip:ah@example.com>;tag=1",
            "To": "<sip:participant@example.com>;tag=2",
            "Call-ID": "fuzz-corpus-1",
            "CSeq": "1 INVITE",
        },
    )
    return [invite.serialize().encode("utf-8"), ok.serialize().encode("utf-8")]


def _bfcp() -> list[bytes]:
    return [
        floor_request(1, 1, 2, 0).encode(),
        floor_release(1, 2, 2, 1).encode(),
        floor_request_status(1, 3, 2, 1, 3, queue_position=1,
                             hid_status=2).encode(),
    ]


def _png() -> list[bytes]:
    return [
        encode_png(_pixels()),
        encode_png(_pixels(3, 2), adaptive_filter=False),
    ]


def _png_without_adler() -> bytes:
    """A PNG whose IDAT stream stops two bytes into its Adler-32 trailer.

    Every chunk CRC is valid and every pixel byte still inflates; only
    the unfinished zlib stream marks it as truncated.  No mutation of a
    valid PNG reaches that check (the chunk CRC covers every byte), so
    it is a seed of its own.
    """
    chunks = list(iter_chunks(encode_png(_pixels(5, 4))))
    idat = b"".join(c.data for c in chunks if c.type == TYPE_IDAT)
    header = next(c for c in chunks if c.type == TYPE_IHDR)
    return (SIGNATURE + header.encode()
            + Chunk(TYPE_IDAT, idat[:-2]).encode()
            + Chunk(TYPE_IEND, b"").encode())


def _lossy() -> list[bytes]:
    # Block-aligned and ragged dims: mutations of the header's declared
    # geometry must trip the dims-vs-payload validation, not numpy.
    return [
        LossyDctCodec(75).encode(_pixels(16, 16)),
        LossyDctCodec(30).encode(_pixels(9, 5)),
    ]


def build_rejects() -> dict[str, list[tuple[bytes, str]]]:
    """Surface name → near-valid packets and the reason each must fail.

    Each passes every check but one, so mutations seeded from it probe
    that check; the fuzz loop adds them to the surface's seeds.
    """
    return {"png": [(_png_without_adler(), "truncated")]}


def build_corpus() -> dict[str, list[bytes]]:
    """Surface name → list of valid encoded packets."""
    return {
        "remoting": _remoting(),
        "hip": _hip(),
        "rtp": _rtp(),
        "rtcp": _rtcp(),
        "sdp": _sdp(),
        "sip": _sip(),
        "bfcp": _bfcp(),
        "png": _png(),
        "lossy": _lossy(),
    }
