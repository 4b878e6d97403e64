"""Building and negotiating sharing-session SDP (section 10).

:func:`build_ah_offer` produces the draft's offer shape — a BFCP floor
stream, the remoting stream over RTP/AVP (UDP) and/or TCP/RTP/AVP with
matching ports, and the HIP return stream — including the mandatory
``retransmissions`` fmtp parameter (section 9.3.1) and the RFC 4583
label/floorid association.  :func:`negotiate` resolves an offer against
participant capabilities into the transport/feature set both ends run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rtp.clock import DEFAULT_CLOCK_RATE
from .model import MediaDescription, RtpMap, SdpError, SessionDescription

REMOTING_ENCODING = "remoting"
HIP_ENCODING = "hip"


def build_ah_offer(
    remoting_port: int = 6000,
    hip_port: int = 6006,
    bfcp_port: int = 50_000,
    remoting_pt: int = 99,
    hip_pt: int = 100,
    offer_udp: bool = True,
    offer_tcp: bool = True,
    retransmissions: bool = True,
    clock_rate: int = DEFAULT_CLOCK_RATE,
    floor_id: int = 0,
    hip_label: int = 10,
    codecs: list[str] | None = None,
) -> SessionDescription:
    """The AH's offer, shaped like the section 10.3 example.

    ``codecs`` names the image codecs the AH can encode RegionUpdate
    payloads with (section 5.2.2: "they should negotiate supported
    media types during the session establishment").  The draft leaves
    the carriage unspecified; we use an fmtp ``codecs=`` parameter on
    the remoting stream.
    """
    if not offer_udp and not offer_tcp:
        raise SdpError("offer must include at least one remoting transport")
    session = SessionDescription()

    bfcp = MediaDescription("application", bfcp_port, "TCP/BFCP", ["*"])
    bfcp.formats = []
    bfcp.add_attribute("floorid", f"{floor_id} m-stream:{hip_label}")
    session.add_media(bfcp)

    codec_param = f";codecs={','.join(codecs)}" if codecs else ""
    if offer_udp:
        udp = MediaDescription(
            "application", remoting_port, "RTP/AVP", [str(remoting_pt)]
        )
        udp.rtpmaps.append(RtpMap(remoting_pt, REMOTING_ENCODING, clock_rate))
        # The mandated parameter MUST be included (section 10.1).
        udp.fmtp[remoting_pt] = (
            f"retransmissions={'yes' if retransmissions else 'no'}"
            f"{codec_param}"
        )
        session.add_media(udp)

    if offer_tcp:
        # "The port numbers MUST be same if AH is remoting the same
        # content over both TCP and UDP."
        tcp = MediaDescription(
            "application", remoting_port, "TCP/RTP/AVP", [str(remoting_pt)]
        )
        tcp.rtpmaps.append(RtpMap(remoting_pt, REMOTING_ENCODING, clock_rate))
        if codecs:
            tcp.fmtp[remoting_pt] = f"codecs={','.join(codecs)}"
        session.add_media(tcp)

    hip = MediaDescription("application", hip_port, "TCP/RTP/AVP", [str(hip_pt)])
    hip.rtpmaps.append(RtpMap(hip_pt, HIP_ENCODING, clock_rate))
    hip.add_attribute("label", str(hip_label))
    session.add_media(hip)
    return session


@dataclass(frozen=True, slots=True)
class NegotiatedSession:
    """The agreement a participant derives from an AH offer."""

    transport: str  # "udp" or "tcp"
    remoting_port: int
    remoting_pt: int
    hip_port: int
    hip_pt: int
    clock_rate: int
    retransmissions: bool
    bfcp_port: int | None
    floor_id: int | None
    hip_label: int | None
    #: Image codecs offered by the AH; () when the offer names none
    #: (PNG support is mandatory regardless, section 5.2.2).
    offered_codecs: tuple[str, ...] = ()


def negotiate(
    offer: SessionDescription,
    prefer_transport: str = "tcp",
) -> NegotiatedSession:
    """Resolve an AH offer into a concrete participant configuration.

    ``prefer_transport`` picks between offered remoting transports; the
    other transport remains available as a fallback.
    """
    if prefer_transport not in ("tcp", "udp"):
        raise SdpError(f"unknown transport preference: {prefer_transport}")

    remoting_media = offer.media_with_encoding(REMOTING_ENCODING)
    if not remoting_media:
        raise SdpError("offer contains no remoting stream")
    udp = next((m for m in remoting_media if m.proto == "RTP/AVP"), None)
    tcp = next((m for m in remoting_media if m.proto == "TCP/RTP/AVP"), None)
    chosen = None
    transport = prefer_transport
    if prefer_transport == "tcp":
        chosen = tcp or udp
        transport = "tcp" if tcp is not None else "udp"
    else:
        chosen = udp or tcp
        transport = "udp" if udp is not None else "tcp"
    if chosen is None:
        raise SdpError("no usable remoting transport in offer")
    remoting_map = chosen.rtpmap_for(REMOTING_ENCODING)
    assert remoting_map is not None

    retransmissions = False
    if udp is not None:
        for params in udp.fmtp.values():
            if "retransmissions=yes" in params.replace(" ", ""):
                retransmissions = True

    offered_codecs: tuple[str, ...] = ()
    for media in remoting_media:
        for params in media.fmtp.values():
            for piece in params.replace(" ", "").split(";"):
                if piece.startswith("codecs="):
                    offered_codecs = tuple(
                        name for name in piece[len("codecs="):].split(",")
                        if name
                    )

    hip_media = offer.media_with_encoding(HIP_ENCODING)
    if not hip_media:
        raise SdpError("offer contains no hip stream")
    hip = hip_media[0]
    hip_map = hip.rtpmap_for(HIP_ENCODING)
    assert hip_map is not None

    bfcp_port: int | None = None
    floor_id: int | None = None
    hip_label: int | None = None
    for media in offer.media_by_proto("TCP/BFCP"):
        bfcp_port = media.port
        floorid_attr = media.attribute("floorid")
        if floorid_attr:
            parts = floorid_attr.split()
            try:
                floor_id = int(parts[0])
            except (ValueError, IndexError):
                floor_id = None
            for part in parts[1:]:
                if part.startswith("m-stream:"):
                    try:
                        hip_label = int(part.split(":", 1)[1])
                    except ValueError:
                        pass

    label_attr = hip.attribute("label")
    if hip_label is not None and label_attr is not None:
        if label_attr != str(hip_label):
            raise SdpError(
                "BFCP m-stream does not match the hip stream label "
                f"({hip_label} vs {label_attr})"
            )

    return NegotiatedSession(
        transport=transport,
        remoting_port=chosen.port,
        remoting_pt=remoting_map.payload_type,
        hip_port=hip.port,
        hip_pt=hip_map.payload_type,
        clock_rate=remoting_map.clock_rate,
        retransmissions=retransmissions,
        bfcp_port=bfcp_port,
        floor_id=floor_id,
        hip_label=hip_label,
        offered_codecs=offered_codecs,
    )
