"""Simulated network channels with loss, delay, jitter and bandwidth.

Experiments need repeatable network behaviour, so instead of live
Internet paths the benchmark harness runs the AH↔participant traffic
through these seeded channel models (real loopback sockets live in
:mod:`repro.net.udp` / :mod:`repro.net.tcp` for integration tests).

Two models mirror the draft's two transports:

* :class:`LossyChannel` — datagram semantics for UDP/multicast paths:
  i.i.d. loss, propagation delay plus jitter (which reorders), and a
  serialisation-rate bottleneck.
* :class:`ReliableChannel` — stream semantics for TCP paths: nothing is
  lost or reordered, but a bounded send buffer drains at link rate and
  exposes its backlog, which is exactly the signal the section 7
  implementation note tells AHs to watch.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable

from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Scriptable impairments layered on top of a :class:`LossyChannel`.

    The base channel keeps its i.i.d. ``loss_rate``; a fault profile
    adds the correlated/bursty behaviour real access links exhibit,
    which is what actually exercises loss-recovery state machines
    (NACK retries, reassembly expiry, duplicate suppression):

    * **Burst loss** — a Gilbert–Elliott two-state model: the link
      flips between a *good* and a *bad* state with per-datagram
      transition probabilities, each state dropping with its own rate.
    * **Reordering** — a fraction of datagrams is held back by
      ``reorder_delay`` extra seconds, overtaking later traffic.
    * **Duplication** — a fraction of datagrams arrives twice (the
      second copy after an independent delay draw).
    * **Delay jitter spikes** — occasional large one-off latency
      additions, modelling bufferbloat/wireless stalls.
    """

    #: Gilbert–Elliott transition probabilities (per datagram).
    p_good_bad: float = 0.0
    p_bad_good: float = 1.0
    #: Loss rate while in each state.
    loss_good: float = 0.0
    loss_bad: float = 1.0
    reorder_rate: float = 0.0
    reorder_delay: float = 0.05
    duplicate_rate: float = 0.0
    jitter_spike_rate: float = 0.0
    jitter_spike: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad",
                     "reorder_rate", "duplicate_rate", "jitter_spike_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.reorder_delay < 0 or self.jitter_spike < 0:
            raise ValueError("extra delays cannot be negative")

    @classmethod
    def gilbert_elliott(cls, loss_rate: float,
                        mean_burst: float = 3.0) -> "FaultProfile":
        """A burst-loss profile with ``loss_rate`` average drop rate.

        The bad state drops everything and lasts ``mean_burst``
        datagrams on average; the good state is transparent.  With
        stationary bad-state occupancy ``loss_rate``, the good→bad
        transition probability follows from the balance equation.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if mean_burst < 1.0:
            raise ValueError("mean_burst must be >= 1 datagram")
        p_bad_good = 1.0 / mean_burst
        p_good_bad = (
            loss_rate * p_bad_good / (1.0 - loss_rate) if loss_rate else 0.0
        )
        return cls(
            p_good_bad=min(p_good_bad, 1.0),
            p_bad_good=p_bad_good,
            loss_good=0.0,
            loss_bad=1.0,
        )


class GilbertElliott:
    """The two-state Markov loss process of a :class:`FaultProfile`."""

    __slots__ = ("profile", "_rng", "bad")

    def __init__(self, profile: FaultProfile, rng: random.Random) -> None:
        self.profile = profile
        self._rng = rng
        self.bad = False

    def lose(self) -> bool:
        """Advance one datagram through the chain; True means drop it."""
        p = self.profile
        if self.bad:
            if self._rng.random() < p.p_bad_good:
                self.bad = False
        else:
            if self._rng.random() < p.p_good_bad:
                self.bad = True
        rate = p.loss_bad if self.bad else p.loss_good
        return rate > 0 and self._rng.random() < rate


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """Shared knobs for the simulated channels.

    ``bandwidth_bps`` of 0 means an infinitely fast link.  ``mtu`` only
    constrains datagram channels: oversized datagrams are dropped (as
    IP fragmentation-with-loss ultimately does to them).
    """

    delay: float = 0.02
    jitter: float = 0.0
    loss_rate: float = 0.0
    bandwidth_bps: int = 0
    mtu: int = 65_507
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay/jitter cannot be negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.bandwidth_bps < 0:
            raise ValueError("bandwidth cannot be negative")
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")


class LossyChannel:
    """One-directional datagram pipe with seeded impairments."""

    def __init__(
        self,
        config: ChannelConfig,
        now: Callable[[], float],
        instrumentation=None,
        faults: FaultProfile | None = None,
    ) -> None:
        self.config = config
        self._now = as_now(now)
        self._rng = random.Random(config.seed)
        self._in_flight: list[tuple[float, int, bytes]] = []
        self._counter = 0  # tie-break so heapq never compares bytes
        self._link_free_at = 0.0
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagrams_dropped_burst = 0
        self.datagrams_dropped_partition = 0
        self.datagrams_oversize = 0
        self.datagrams_duplicated = 0
        self.datagrams_reordered = 0
        self.bytes_sent = 0
        self._faults: FaultProfile | None = None
        self._gilbert: GilbertElliott | None = None
        #: Chaos switches (see partition()/stall()/heal()).
        self._partitioned = False
        self._stalled = False
        obs = instrumentation if instrumentation is not None else NULL
        self._c_sent = obs.counter("channel.datagrams_sent")
        self._c_bytes = obs.counter("channel.bytes_sent")
        self._c_dropped = obs.counter("channel.datagrams_dropped")
        self._c_dropped_burst = obs.counter("channel.datagrams_dropped_burst")
        self._c_dropped_partition = obs.counter(
            "channel.datagrams_dropped_partition"
        )
        self._c_oversize = obs.counter("channel.datagrams_oversize")
        self._c_duplicated = obs.counter("channel.datagrams_duplicated")
        self._c_reordered = obs.counter("channel.datagrams_reordered")
        self._g_in_flight = obs.gauge("channel.in_flight")
        if faults is not None:
            self.set_faults(faults)

    @property
    def faults(self) -> FaultProfile | None:
        return self._faults

    def set_faults(self, profile: FaultProfile | None) -> None:
        """Install (or clear, with None) a fault profile mid-run.

        The Gilbert–Elliott chain restarts in the good state; draws
        come from the channel's seeded RNG, so a scripted fault
        schedule stays fully deterministic.
        """
        self._faults = profile
        self._gilbert = (
            GilbertElliott(profile, self._rng) if profile is not None else None
        )

    # -- Chaos switches ----------------------------------------------------

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    @property
    def stalled(self) -> bool:
        return self._stalled

    def partition(self) -> None:
        """Hard partition: every datagram sent from now on is dropped.

        Unlike a 100%-loss :class:`FaultProfile` this is a scripted
        *state*, not a probabilistic process — a chaos schedule flips it
        on and off deterministically with
        :meth:`~repro.net.world.World.at`.  Datagrams already in flight still arrive
        (they left before the cut)."""
        self._partitioned = True

    def stall(self) -> None:
        """Stall delivery: arrivals are withheld until :meth:`heal`.

        Models a bufferbloated/frozen path: the sender keeps sending
        (nothing is dropped), but :meth:`receive_ready` yields nothing
        while stalled; healing floods out everything whose arrival
        time has passed."""
        self._stalled = True

    def heal(self) -> None:
        """Clear partition and stall states."""
        self._partitioned = False
        self._stalled = False

    def send(self, datagram: bytes) -> bool:
        """Queue a datagram; returns False when it was dropped."""
        self.datagrams_sent += 1
        self.bytes_sent += len(datagram)
        self._c_sent.inc()
        self._c_bytes.inc(len(datagram))
        if len(datagram) > self.config.mtu:
            self.datagrams_oversize += 1
            self._c_oversize.inc()
            return False
        if self._partitioned:
            self.datagrams_dropped += 1
            self.datagrams_dropped_partition += 1
            self._c_dropped.inc()
            self._c_dropped_partition.inc()
            return False
        if self._rng.random() < self.config.loss_rate:
            self.datagrams_dropped += 1
            self._c_dropped.inc()
            return False
        if self._gilbert is not None and self._gilbert.lose():
            self.datagrams_dropped += 1
            self.datagrams_dropped_burst += 1
            self._c_dropped.inc()
            self._c_dropped_burst.inc()
            return False
        now = self._now()
        if self.config.bandwidth_bps > 0:
            serialisation = len(datagram) * 8 / self.config.bandwidth_bps
            start = max(now, self._link_free_at)
            self._link_free_at = start + serialisation
            departure = self._link_free_at
        else:
            departure = now
        arrival = departure + self.config.delay
        if self.config.jitter > 0:
            arrival += self._rng.uniform(0, self.config.jitter)
        faults = self._faults
        if faults is not None:
            if (faults.jitter_spike_rate > 0
                    and self._rng.random() < faults.jitter_spike_rate):
                arrival += faults.jitter_spike
            if (faults.reorder_rate > 0
                    and self._rng.random() < faults.reorder_rate):
                arrival += faults.reorder_delay
                self.datagrams_reordered += 1
                self._c_reordered.inc()
            if (faults.duplicate_rate > 0
                    and self._rng.random() < faults.duplicate_rate):
                copy_arrival = departure + self.config.delay
                if self.config.jitter > 0:
                    copy_arrival += self._rng.uniform(0, self.config.jitter)
                heapq.heappush(
                    self._in_flight, (copy_arrival, self._counter, datagram)
                )
                self._counter += 1
                self.datagrams_duplicated += 1
                self._c_duplicated.inc()
        heapq.heappush(self._in_flight, (arrival, self._counter, datagram))
        self._counter += 1
        self._g_in_flight.set(len(self._in_flight))
        return True

    def receive_ready(self) -> list[bytes]:
        """Datagrams whose arrival time has passed, in arrival order."""
        if self._stalled:
            return []
        now = self._now()
        out: list[bytes] = []
        while self._in_flight and self._in_flight[0][0] <= now:
            out.append(heapq.heappop(self._in_flight)[2])
        if out:
            self._g_in_flight.set(len(self._in_flight))
        return out

    def next_arrival(self) -> float | None:
        """Earliest pending arrival time, or None when idle."""
        return self._in_flight[0][0] if self._in_flight else None

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)


class ReliableChannel:
    """One-directional stream pipe: TCP-like delivery with a send buffer.

    Bytes enter a bounded buffer and drain at link rate; everything
    arrives, in order, ``delay`` after its serialisation completes.
    :meth:`backlog_bytes` is the select()-style signal from the draft's
    implementation notes: "monitor the state of their TCP transmission
    buffers ... and only send the most recent screen data when there is
    no backlog."
    """

    def __init__(
        self,
        config: ChannelConfig,
        now: Callable[[], float],
        send_buffer: int = 256 * 1024,
        instrumentation=None,
    ) -> None:
        if send_buffer <= 0:
            raise ValueError("send buffer must be positive")
        self.config = config
        self._now = as_now(now)
        self.send_buffer = send_buffer
        self._in_flight: list[tuple[float, int, bytes]] = []
        self._counter = 0
        self._link_free_at = 0.0
        self.bytes_sent = 0
        self.sends_refused = 0
        obs = instrumentation if instrumentation is not None else NULL
        self._c_bytes = obs.counter("channel.bytes_sent")
        self._c_refused = obs.counter("channel.sends_refused")
        self._g_backlog = obs.gauge("channel.backlog_bytes")

    def _drain_level(self, now: float) -> int:
        """Bytes still queued ahead of the link at time ``now``."""
        backlog = 0.0
        if self.config.bandwidth_bps > 0 and self._link_free_at > now:
            backlog = (self._link_free_at - now) * self.config.bandwidth_bps / 8
        return int(backlog)

    def backlog_bytes(self) -> int:
        return self._drain_level(self._now())

    def can_send(self, size: int) -> bool:
        """Would ``size`` bytes fit the send buffer right now?"""
        return self._drain_level(self._now()) + size <= self.send_buffer

    def send(self, data: bytes) -> bool:
        """Queue stream bytes; refuses (returns False) when buffer is full.

        Refusal models a non-blocking socket returning EWOULDBLOCK —
        the sender is expected to retry after the backlog drains.
        """
        now = self._now()
        if not self.can_send(len(data)):
            self.sends_refused += 1
            self._c_refused.inc()
            return False
        if self.config.bandwidth_bps > 0:
            serialisation = len(data) * 8 / self.config.bandwidth_bps
            start = max(now, self._link_free_at)
            self._link_free_at = start + serialisation
            departure = self._link_free_at
        else:
            departure = now
        arrival = departure + self.config.delay
        heapq.heappush(self._in_flight, (arrival, self._counter, data))
        self._counter += 1
        self.bytes_sent += len(data)
        self._c_bytes.inc(len(data))
        self._g_backlog.set(self._drain_level(now))
        return True

    def receive_ready(self) -> bytes:
        """Contiguous stream bytes that have arrived by now."""
        now = self._now()
        chunks: list[bytes] = []
        while self._in_flight and self._in_flight[0][0] <= now:
            chunks.append(heapq.heappop(self._in_flight)[2])
        return b"".join(chunks)

    def next_arrival(self) -> float | None:
        return self._in_flight[0][0] if self._in_flight else None


@dataclass(slots=True)
class DuplexChannel:
    """A forward/backward pair used for one AH↔participant association."""

    forward: LossyChannel | ReliableChannel
    backward: LossyChannel | ReliableChannel

    def _each(self, verb: str) -> None:
        for side in (self.forward, self.backward):
            method = getattr(side, verb, None)
            if method is not None:
                method()

    def partition(self) -> None:
        """Cut both directions (see :meth:`LossyChannel.partition`)."""
        self._each("partition")

    def stall(self) -> None:
        """Stall both directions (see :meth:`LossyChannel.stall`)."""
        self._each("stall")

    def heal(self) -> None:
        """Clear partition/stall on both directions."""
        self._each("heal")


def duplex_lossy(
    config: ChannelConfig,
    now: Callable[[], float],
    back_seed_offset: int = 1,
    instrumentation=None,
    faults: FaultProfile | None = None,
    back_faults: FaultProfile | None = None,
) -> DuplexChannel:
    """Symmetric lossy pair with independent loss processes.

    ``faults`` impairs the forward (AH→participant) direction,
    ``back_faults`` the return path; either may be None.
    """
    back = ChannelConfig(
        delay=config.delay,
        jitter=config.jitter,
        loss_rate=config.loss_rate,
        bandwidth_bps=config.bandwidth_bps,
        mtu=config.mtu,
        seed=config.seed + back_seed_offset,
    )
    obs = instrumentation if instrumentation is not None else NULL
    return DuplexChannel(
        LossyChannel(config, now, instrumentation=obs.scoped(dir="fwd"),
                     faults=faults),
        LossyChannel(back, now, instrumentation=obs.scoped(dir="back"),
                     faults=back_faults),
    )


def duplex_reliable(
    config: ChannelConfig,
    now: Callable[[], float],
    send_buffer: int = 256 * 1024,
    instrumentation=None,
) -> DuplexChannel:
    obs = instrumentation if instrumentation is not None else NULL
    return DuplexChannel(
        ReliableChannel(config, now, send_buffer,
                        instrumentation=obs.scoped(dir="fwd")),
        ReliableChannel(config, now, send_buffer,
                        instrumentation=obs.scoped(dir="back")),
    )
