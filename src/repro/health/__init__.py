"""repro.health — liveness, failover and overload protection.

The paper's AH/participant model assumes every node stays up; at the
scale the relay tier targets (millions of viewers behind cascaded
relays) node death, partitions and overload are the *common* case.
This package is the shared machinery the server and relay tiers use to
notice trouble and degrade gracefully instead of silently stranding a
subtree:

* :mod:`repro.health.liveness` — :class:`LivenessTracker` turns
  RTCP-RR/keepalive arrivals into last-seen state with configurable
  silence → suspect → dead thresholds.  It drives participant eviction
  in :class:`~repro.sharing.server.core.SessionCore`, session GC in
  :class:`~repro.sharing.server.SessionServer`, downstream pruning in
  :class:`~repro.relay.node.RelayNode`, and parent-death detection for
  relay failover.
* :mod:`repro.health.supervisor` — :class:`TaskSupervisor`, the
  crash-restart strike counter (exponential backoff, capped give-up)
  the server's one loop calls every hosted entry's round through, so
  one buggy session can neither stop the loop nor wedge unrecorded.
* :mod:`repro.health.admission` — :class:`AdmissionControl`,
  ``max_sessions``/``max_participants`` admission plus the graceful
  degradation ladder: downgrade relay rate tiers *before* shedding
  joins.

Everything reports under the ``health.*`` metric family (see
``docs/OBSERVABILITY.md``) and is exercised deterministically by the
chaos primitives in :mod:`repro.net.channel`, scheduled with
:meth:`repro.net.world.World.at`, and ``benchmarks/bench_chaos.py``.
"""

from .admission import AdmissionControl, AdmissionDecision, OverloadConfig
from .liveness import (
    LivenessConfig,
    LivenessTracker,
    PeerLiveness,
    PeerState,
)
from .supervisor import RestartPolicy, TaskSupervisor

__all__ = [
    "AdmissionControl",
    "AdmissionDecision",
    "LivenessConfig",
    "LivenessTracker",
    "OverloadConfig",
    "PeerLiveness",
    "PeerState",
    "RestartPolicy",
    "TaskSupervisor",
]
