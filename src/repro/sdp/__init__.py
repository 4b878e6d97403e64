"""SDP mapping (section 10): model, parser, offer building, negotiation."""

from .model import MediaDescription, RtpMap, SdpError, SessionDescription
from .negotiation import (
    HIP_ENCODING,
    NegotiatedSession,
    REMOTING_ENCODING,
    build_ah_offer,
    negotiate,
)
from .parser import parse_sdp

__all__ = [
    "HIP_ENCODING",
    "MediaDescription",
    "NegotiatedSession",
    "REMOTING_ENCODING",
    "RtpMap",
    "SdpError",
    "SessionDescription",
    "build_ah_offer",
    "negotiate",
    "parse_sdp",
]
