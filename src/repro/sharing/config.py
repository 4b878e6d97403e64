"""Session configuration shared by AH and participants."""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: RTP payload type of the remoting stream (dynamic range; SDP example
#: in section 10.3 uses 99).
PT_REMOTING = 99
#: RTP payload type of the HIP stream (section 10.3 uses 100).
PT_HIP = 100


class PointerMode(enum.Enum):
    """The two mouse pointer models of section 4.2.

    The AH decides which to use; participants must support both.
    """

    #: Pointer image painted into RegionUpdate pixels.
    IN_BAND = "in-band"
    #: Explicit MousePointerInfo messages carrying position (+ icon).
    EXPLICIT = "explicit"


@dataclass(frozen=True, slots=True)
class SharingConfig:
    """What one sharing session fixes, and the AH's encode policy.

    ``max_rtp_payload`` bounds the remoting payload per RTP packet
    (drives Table 2 fragmentation).  ``retransmissions`` mirrors the
    mandatory media-type parameter of section 9.3.1: when False, UDP
    participants fall back to PLI-only recovery.  Everything else a
    component needs (cache sizes, the NACK schedule, the quarantine
    budget, the 90 kHz clock) is that component's own default;
    docs/API.md "Configuration" lists where each one lives.
    """

    max_rtp_payload: int = 1200
    pointer_mode: PointerMode = PointerMode.EXPLICIT
    retransmissions: bool = True
    scroll_detection: bool = True
    backlog_coalescing: bool = True
    adaptive_codec: bool = True
    lossless_codec: str = "png"
    #: Negotiated desktop bounds used to validate update/move geometry
    #: at decode time (section 8 coordinate legitimacy).
    max_desktop_width: int = 16384
    max_desktop_height: int = 16384
    #: Band threads for the parallel encode pool
    #: (:class:`repro.codecs.parallel.EncodePool`); a large update is
    #: split into one band per thread.  0 keeps every encode on the
    #: caller's thread (the default — pools are opt-in); -1 sizes the
    #: pool to the machine (one thread per core).
    encode_workers: int = 0

    def __post_init__(self) -> None:
        if self.max_rtp_payload < 64:
            raise ValueError("max_rtp_payload unrealistically small")
        if self.max_desktop_width < 1 or self.max_desktop_height < 1:
            raise ValueError("desktop bounds must be positive")
        if self.encode_workers < -1:
            raise ValueError("encode workers must be >= -1")
