"""Topology builders: wire relay trees over the simulated network.

The cascade rule is uniform: a :class:`~repro.relay.node.RelayNode`
takes any :class:`~repro.sharing.transport.PacketTransport` as its
upstream, so the same node works directly under the AH or under
another relay, to any depth.  These helpers create the duplex lossy
channel for one hop, register the downstream end on the parent, and
hand back the attached node (or participant).

:class:`RelayTree` is a convenience container for benchmarks and
integration tests: it remembers the relays level by level so one
``pump()`` call services the whole cascade in topological order
(parents first — a packet can traverse every zero-delay hop in a
single round).

The tree also owns **failover**: it records each relay's parent and
upstream rate tier, so when a relay's parent dies (crash or partition,
detected through upstream liveness silence), :meth:`RelayTree.pump`
re-parents the orphan onto its nearest alive ancestor — normally the
grandparent, ultimately the AH.  The orphan keeps its whole subtree:
children and viewers never notice, and the forced PLI resync through
the new parent repairs whatever the dead hop swallowed.  Pump order
stays valid because an orphan only ever moves *up* the tree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from ..health.liveness import LivenessConfig
from ..net.channel import ChannelConfig, FaultProfile, duplex_lossy
from ..obs.instrumentation import NULL
from ..sharing.ah import ApplicationHost
from ..sharing.participant import Participant
from ..sharing.transport import DatagramTransport
from .node import RelayNode


def duplex_transport_pair(
    config: ChannelConfig,
    now,
    obs=None,
    faults: FaultProfile | None = None,
    back_faults: FaultProfile | None = None,
) -> tuple[DatagramTransport, DatagramTransport]:
    """One simulated UDP association: (upstream side, downstream side)."""
    link = duplex_lossy(
        config, now, instrumentation=obs, faults=faults,
        back_faults=back_faults,
    )
    upstream_side = DatagramTransport(link.forward, link.backward)
    downstream_side = DatagramTransport(link.backward, link.forward)
    return upstream_side, downstream_side


def attach_under(
    parent: ApplicationHost | RelayNode,
    child_id: str,
    transport,
    rate_bps: int | None = None,
) -> Callable[[], None]:
    """Hang ``child_id`` under ``parent``; returns the detach callable.

    An AH sees the child as one ``is_group`` destination — one RTP
    session, one retransmit cache entry stream, one rate tier —
    however many viewers sit in the subtree behind it; a relay sees
    one more downstream.
    """
    if isinstance(parent, ApplicationHost):
        parent.add_participant(
            child_id, transport, rate_bps=rate_bps, is_group=True
        )
        return lambda: parent.remove_participant(child_id)
    parent.add_downstream(child_id, transport, rate_bps=rate_bps)
    return lambda: parent.remove_downstream(child_id)


def attach_relay_to_relay(
    parent: ApplicationHost | RelayNode,
    relay_id: str,
    clock,
    channel_config: ChannelConfig | None = None,
    rate_bps: int | None = None,
    liveness: LivenessConfig | None = None,
    rng=None,
    obs=None,
    faults: FaultProfile | None = None,
) -> RelayNode:
    """Chain a relay under ``parent``: one tree hop, root or interior."""
    cfg = channel_config or ChannelConfig(delay=0.01)
    parent_side, child_side = duplex_transport_pair(
        cfg, clock, obs=obs, faults=faults
    )
    attach_under(parent, relay_id, parent_side, rate_bps)
    return RelayNode(
        relay_id, child_side, clock=clock, liveness=liveness,
        rng=rng, obs=obs,
    )


#: Hang a relay directly under the AH (the tree root hop): the same
#: call, :func:`attach_under` tells the two kinds of parent apart.
attach_relay_to_ah = attach_relay_to_relay


def attach_viewer(
    relay: RelayNode,
    viewer_id: str,
    clock,
    channel_config: ChannelConfig | None = None,
    rate_bps: int | None = None,
    obs=None,
    faults: FaultProfile | None = None,
    join: bool = True,
    **participant_kwargs,
) -> Participant:
    """Attach a leaf :class:`Participant` under ``relay``.

    ``join=True`` (default) sends the participant's join PLI at once;
    the relay's PLI valve forwards the first one upstream, so a batch
    of simultaneous joiners costs the AH a single full refresh.
    """
    cfg = channel_config or ChannelConfig(delay=0.01)
    relay_side, viewer_side = duplex_transport_pair(
        cfg, clock, obs=obs, faults=faults
    )
    relay.add_downstream(viewer_id, relay_side, rate_bps=rate_bps)
    participant = Participant(
        viewer_id, viewer_side, clock=clock, obs=obs, **participant_kwargs
    )
    if join:
        participant.join()
    return participant


@dataclass
class RelayTree:
    """A built cascade: the AH, relays by level, and leaf participants."""

    ah: ApplicationHost
    #: ``levels[0]`` hangs off the AH; ``levels[i]`` off ``levels[i-1]``.
    levels: list[list[RelayNode]] = field(default_factory=list)
    viewers: list[Participant] = field(default_factory=list)
    #: The shared clock, needed to wire replacement links on failover.
    clock: object | None = None
    obs: object = NULL
    #: relay id → parent relay id (None = directly under the AH).
    parent_of: dict[str, str | None] = field(default_factory=dict)
    #: Rate tier each relay's upstream link was attached with.
    upstream_rate: dict[str, int | None] = field(default_factory=dict)
    #: Fresh channel config per new link (seeded independently);
    #: defaults to a plain 10 ms hop when unset.
    link_config: Callable[[], ChannelConfig] | None = None
    #: Failover log: ``(orphan_id, new_parent_id_or_None)`` in order.
    failover_log: list[tuple[str, str | None]] = field(default_factory=list)

    @property
    def relays(self) -> list[RelayNode]:
        return [relay for level in self.levels for relay in level]

    @property
    def leaves(self) -> list[RelayNode]:
        return self.levels[-1] if self.levels else []

    @property
    def nodes(self) -> dict[str, RelayNode]:
        return {relay.id: relay for relay in self.relays}

    def register(
        self,
        relay: RelayNode,
        parent: RelayNode | None,
        rate_bps: int | None = None,
    ) -> None:
        """Record ``relay``'s position for failover bookkeeping."""
        self.parent_of[relay.id] = parent.id if parent is not None else None
        self.upstream_rate[relay.id] = rate_bps

    def pump(self, failover: bool = True) -> int:
        """Service every relay once, parents before children.

        With ``failover`` (the default) orphaned relays are re-parented
        first, so the same round already pumps them on their new path.
        """
        if failover:
            self.failover_orphans()
        processed = 0
        for level in self.levels:
            for relay in level:
                processed += relay.pump()
        return processed

    def pump_viewers(self) -> int:
        applied = 0
        for viewer in self.viewers:
            applied += viewer.process_incoming()
        return applied

    # -- Failover ----------------------------------------------------------

    def _nearest_alive_ancestor(
        self, relay_id: str, nodes: dict[str, RelayNode]
    ) -> str | None:
        """Climb ``parent_of`` past dead relays; None means the AH."""
        ancestor = self.parent_of.get(relay_id)
        while ancestor is not None:
            node = nodes.get(ancestor)
            if node is not None and not node.crashed and not node.upstream_dead:
                return ancestor
            ancestor = self.parent_of.get(ancestor)
        return None

    def failover_orphans(self) -> list[str]:
        """Re-parent every relay whose upstream path is dead.

        Each orphan gets a fresh duplex link to its nearest alive
        ancestor (grandparent, great-grandparent, … the AH as the
        root fallback), keeping its original rate tier.
        :meth:`RelayNode.replace_upstream` then forces the PLI resync
        and stamps the ``failover`` span stage.  Returns the ids that
        failed over this call.
        """
        if self.clock is None:
            return []
        nodes = self.nodes
        healed: list[str] = []
        for relay in self.relays:
            if relay.crashed or not relay.upstream_dead:
                continue
            started = None
            if relay.upstream_liveness is not None:
                started = relay.upstream_liveness.died_at("upstream")
            new_parent_id = self._nearest_alive_ancestor(relay.id, nodes)
            cfg = (
                self.link_config() if self.link_config is not None
                else ChannelConfig(delay=0.01)
            )
            parent_side, child_side = duplex_transport_pair(
                cfg, self.clock, obs=self.obs
            )
            attach_under(
                self.ah if new_parent_id is None else nodes[new_parent_id],
                relay.id, parent_side, self.upstream_rate.get(relay.id),
            )
            relay.replace_upstream(child_side, failover_started=started)
            self.parent_of[relay.id] = new_parent_id
            self.failover_log.append((relay.id, new_parent_id))
            healed.append(relay.id)
        return healed


def build_relay_tree(
    ah: ApplicationHost,
    clock,
    fanouts: tuple[int, ...] = (2, 2),
    viewers_per_leaf: int = 2,
    channel_config: ChannelConfig | None = None,
    liveness: LivenessConfig | None = None,
    rate_bps: int | None = None,
    viewer_faults: FaultProfile | None = None,
    obs=None,
    rng=None,
    **participant_kwargs,
) -> RelayTree:
    """Build a uniform tree: ``fanouts[i]`` relays per level-``i`` parent.

    ``fanouts=(2, 3)`` puts 2 relays under the AH and 3 under each of
    those (6 leaves); ``viewers_per_leaf`` participants then hang off
    every leaf relay.  ``viewer_faults`` impairs only the last hop —
    the classic relay payoff: loss near the edge is repaired from the
    leaf relay's cache without upstream traffic.
    """
    base = channel_config or ChannelConfig(delay=0.01)
    links = iter(range(0, 1 << 30, 2))

    def link_config() -> ChannelConfig:
        # Each hop gets its own seed pair so loss realisations are
        # independent across links (duplex_lossy burns seed and seed+1).
        return dataclasses.replace(base, seed=base.seed + next(links))

    tree = RelayTree(
        ah, clock=clock,
        obs=obs if obs is not None else NULL,
        link_config=link_config,
    )
    parents: list[ApplicationHost] | list[RelayNode] = [ah]
    for depth, fanout in enumerate(fanouts):
        level: list[RelayNode] = []
        for p_index, parent in enumerate(parents):
            prefix = f"relay-{depth}-{p_index}" if depth else "relay-0"
            for i in range(fanout):
                relay = attach_relay_to_relay(
                    parent, f"{prefix}-{i}", clock,
                    channel_config=link_config(), rate_bps=rate_bps,
                    liveness=liveness, rng=rng, obs=obs,
                )
                tree.register(
                    relay, parent if depth else None, rate_bps=rate_bps
                )
                level.append(relay)
        tree.levels.append(level)
        parents = level
    for leaf_index, leaf in enumerate(tree.leaves):
        for i in range(viewers_per_leaf):
            tree.viewers.append(attach_viewer(
                leaf, f"viewer-{leaf_index}-{i}", clock,
                channel_config=link_config(), obs=obs,
                faults=viewer_faults, **participant_kwargs,
            ))
    return tree
