"""Service-owned signalling plumbing: bindings and auto-answer peers.

Historically ``SharingService.invite`` made the *caller* allocate the
two in-memory message queues standing in for the SIP transport and
thread them back into the service — four arguments of pure plumbing.
A :class:`SignallingBinding` inverts that: the service owns the queues
and hands the caller one object that both ends attach to.

:class:`RemotePeer` wraps the participant-side
:class:`~repro.sip.dialog.SipEndpoint` with the standard answer policy
(negotiate the offer, answer with the chosen transport) so call sites
— the synchronous :func:`repro.sharing.join` factory and the asyncio
:class:`~repro.sharing.server.SessionServer` front door alike — never
touch inboxes or SDP by hand.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from ..sdp import build_ah_offer, negotiate, parse_sdp
from ..sip.dialog import DialogState, SipEndpoint


class SignallingBinding:
    """The two signalling queues for one prospective participant.

    ``to_remote`` carries service→remote SIP messages, ``to_service``
    the replies.  The service drains ``to_service`` in its signalling
    pump; the remote side drains ``to_remote`` via :meth:`pump_remote`
    (or by hand, for callers that run their own endpoint loop).

    The queues default to :class:`collections.deque` but any sequence
    with ``append`` works: a caller that runs its own endpoint loop may
    hand in the two lists it already drains.
    """

    __slots__ = ("name", "to_remote", "to_service", "_remote")

    def __init__(self, name: str, to_remote=None, to_service=None) -> None:
        self.name = name
        self.to_remote = to_remote if to_remote is not None else deque()
        self.to_service = to_service if to_service is not None else deque()
        self._remote: SipEndpoint | None = None

    # -- The two directions, as send callables -----------------------------

    def send_to_remote(self, text: str) -> None:
        """Enqueue one service→remote SIP message (service side)."""
        self.to_remote.append(text)

    def send_to_service(self, text: str) -> None:
        """Enqueue one remote→service SIP message (remote side)."""
        self.to_service.append(text)

    # -- Remote-side convenience -------------------------------------------

    def attach_remote(self, endpoint: SipEndpoint) -> SipEndpoint:
        """Wire ``endpoint`` as the remote party of this binding.

        Its outbound messages flow into ``to_service`` and
        :meth:`pump_remote` delivers queued service messages to it.
        """
        endpoint.attach_transport(self.send_to_service)
        self._remote = endpoint
        return endpoint

    @property
    def remote(self) -> SipEndpoint | None:
        return self._remote

    def pump_remote(self, endpoint: SipEndpoint | None = None) -> int:
        """Deliver queued service→remote messages; returns the count."""
        target = endpoint or self._remote
        if target is None:
            raise ValueError(
                f"binding {self.name!r} has no attached remote endpoint"
            )
        delivered = 0
        pop = _popper(self.to_remote)
        while self.to_remote:
            target.receive(pop())
            delivered += 1
        return delivered

    def drain_to_service(self, receive: Callable[[str], bool]) -> None:
        """Feed queued remote→service messages to ``receive``.

        ``receive`` returns False to stop the drain (the service does
        this when a BYE tears the call down mid-drain).
        """
        pop = _popper(self.to_service)
        while self.to_service:
            if not receive(pop()):
                break


def _popper(queue) -> Callable[[], str]:
    # deque.popleft is O(1); list.pop(0) would make a long drain
    # quadratic, so prefer the former when the queue offers it.
    popleft = getattr(queue, "popleft", None)
    return popleft if popleft is not None else (lambda: queue.pop(0))


class RemotePeer:
    """A participant-side SIP endpoint with the standard answer policy.

    Auto-answers the AH's INVITE by negotiating the offer with
    ``prefer_transport`` and answering with an SDP that carries only
    the chosen remoting transport (which is how a participant pins the
    AH to UDP or TCP).  ``pump()`` is idempotent and cheap; drive it
    until :attr:`established` (or :attr:`terminated`).
    """

    def __init__(
        self,
        uri: str,
        binding: SignallingBinding,
        prefer_transport: str = "tcp",
        rng: random.Random | None = None,
        auto_answer: bool = True,
    ) -> None:
        self.binding = binding
        self.prefer_transport = prefer_transport
        self.auto_answer = auto_answer
        self.endpoint = SipEndpoint(
            uri, send=binding.send_to_service, rng=rng or random.Random()
        )
        binding.attach_remote(self.endpoint)

    @property
    def established(self) -> bool:
        return self.endpoint.state is DialogState.ESTABLISHED

    @property
    def terminated(self) -> bool:
        return self.endpoint.state is DialogState.TERMINATED

    def pump(self) -> bool:
        """Deliver queued messages and apply the answer policy.

        Returns True once the dialog is established.
        """
        self.binding.pump_remote(self.endpoint)
        if self.auto_answer and self.endpoint.state is DialogState.RINGING:
            agreed = negotiate(
                parse_sdp(self.endpoint.remote_sdp),
                prefer_transport=self.prefer_transport,
            )
            answer = build_ah_offer(
                offer_udp=agreed.transport == "udp",
                offer_tcp=agreed.transport == "tcp",
                retransmissions=agreed.retransmissions,
            )
            self.endpoint.accept(answer.to_string())
        return self.established

    def bye(self) -> None:
        """Terminate from the participant side (if established)."""
        if self.established:
            self.endpoint.bye()
