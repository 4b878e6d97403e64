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
    """Knobs for one sharing session.

    ``max_rtp_payload`` bounds the remoting payload per RTP packet
    (drives Table 2 fragmentation).  ``retransmissions`` mirrors the
    mandatory media-type parameter of section 9.3.1: when False, UDP
    participants fall back to PLI-only recovery.
    """

    max_rtp_payload: int = 1200
    pointer_mode: PointerMode = PointerMode.EXPLICIT
    retransmissions: bool = True
    retransmit_cache_packets: int = 2048
    scroll_detection: bool = True
    backlog_coalescing: bool = True
    adaptive_codec: bool = True
    lossless_codec: str = "png"
    lossy_codec: str = "lossy-dct"
    max_update_rects: int = 16
    clock_rate: int = 90_000
    #: Idle-sender RTP keepalive for UDP paths (RFC 6263 shape): a
    #: no-op packet every this many seconds of send silence keeps the
    #: sequence space moving so receivers detect tail loss and NACK it.
    #: 0 disables.
    keepalive_interval: float = 0.5
    #: Quarantine policy (docs/HARDENING.md): a peer exceeding
    #: ``rejection_budget`` malformed packets inside a sliding
    #: ``rejection_window`` seconds is ignored for
    #: ``quarantine_cooldown`` seconds.
    rejection_budget: int = 16
    rejection_window: float = 5.0
    quarantine_cooldown: float = 30.0
    #: Negotiated desktop bounds used to validate update/move geometry
    #: at decode time (section 8 coordinate legitimacy).
    max_desktop_width: int = 16384
    max_desktop_height: int = 16384
    #: Entries in the session-wide content-addressed encode cache
    #: (identical update pixel blocks reuse one encode across all
    #: destinations; docs/PERFORMANCE.md).  0 disables caching.
    encode_cache_entries: int = 256
    #: Band threads for the parallel encode pool
    #: (:class:`repro.codecs.parallel.EncodePool`); a large update is
    #: split into one band per thread.  0 keeps every encode on the
    #: caller's thread (the default — pools are opt-in); -1 sizes the
    #: pool to the machine (one thread per core).
    encode_workers: int = 0

    def __post_init__(self) -> None:
        if self.max_rtp_payload < 64:
            raise ValueError("max_rtp_payload unrealistically small")
        if self.retransmit_cache_packets < 0:
            raise ValueError("retransmit cache cannot be negative")
        if self.max_update_rects < 1:
            raise ValueError("max_update_rects must be >= 1")
        if self.clock_rate <= 0:
            raise ValueError("clock rate must be positive")
        if self.keepalive_interval < 0:
            raise ValueError("keepalive interval cannot be negative")
        if self.rejection_budget < 1:
            raise ValueError("rejection budget must be >= 1")
        if self.rejection_window <= 0 or self.quarantine_cooldown <= 0:
            raise ValueError("rejection window/cooldown must be positive")
        if self.max_desktop_width < 1 or self.max_desktop_height < 1:
            raise ValueError("desktop bounds must be positive")
        if self.encode_cache_entries < 0:
            raise ValueError("encode cache size cannot be negative")
        if self.encode_workers < -1:
            raise ValueError("encode workers must be >= -1")
