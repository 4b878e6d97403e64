"""repro.relay — the cascaded fan-out tier.

One AH cannot serve tens of thousands of UDP viewers: its egress
bandwidth scales with N and, worse, so does the *feedback* it absorbs —
at 2% loss, 10k viewers NACK hundreds of times per second and every
join or loss burst is a PLI storm.  A :class:`RelayNode` breaks both
axes: it terminates RTP/RTCP from its upstream (the AH or a parent
relay), re-serves the identical stream to its downstreams out of its
own retransmit cache, and only escalates a *deduplicated* NACK (or a
rate-limited PLI) when it is itself missing a packet.  Relays chain
into trees, so AH egress and AH-visible feedback are both O(root
fan-out), independent of audience size.

* :mod:`repro.relay.node` — the relay itself (feedback absorption,
  duplicate suppression, per-downstream rate tiers).
* :mod:`repro.relay.tree` — topology builders over the simulated
  network, and :class:`RelayTree` for benchmarks/tests.
* :mod:`repro.relay.hosted` — relays as registry-first-class endpoints
  of the :class:`~repro.sharing.server.SessionServer`
  (``host_relay`` / ``join_relay``).

See ``docs/RELAY.md`` for the design and ``benchmarks/
bench_relay_tree.py`` for the 10k-viewer egress/feedback gates.
"""

from .hosted import HostedRelay, attach_hosted_relay
from .node import RelayDownstream, RelayNode
from .tree import (
    RelayTree,
    attach_relay_to_ah,
    attach_relay_to_relay,
    attach_viewer,
    build_relay_tree,
    duplex_transport_pair,
)

__all__ = [
    "HostedRelay",
    "RelayDownstream",
    "RelayNode",
    "RelayTree",
    "attach_hosted_relay",
    "attach_relay_to_ah",
    "attach_relay_to_relay",
    "attach_viewer",
    "build_relay_tree",
    "duplex_transport_pair",
]
