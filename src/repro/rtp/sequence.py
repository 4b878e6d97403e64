"""Sequence-number arithmetic and receiver statistics (RFC 3550 A.1/A.8).

UDP participants must recognise missing packets to drive NACK requests
(section 5.3.2) and reordering.  This module provides 16-bit wraparound
comparison, the extended-sequence-number tracker from RFC 3550 Appendix
A.1, loss accounting, and the interarrival jitter estimator of A.8.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clock import DEFAULT_CLOCK_RATE

_SEQ_MOD = 1 << 16
#: RFC 3550 recommended constants for the validity/restart heuristics.
MAX_DROPOUT = 3000
MAX_MISORDER = 100


def seq_newer(a: int, b: int) -> bool:
    """True when sequence number ``a`` is newer than ``b`` (mod 2^16).

    At exactly half the sequence space apart the order is undefined by
    RFC 3550; this implementation treats neither side as newer, so the
    relation is deliberately non-total there (pinned by tests).
    """
    return a != b and ((a - b) % _SEQ_MOD) < _SEQ_MOD // 2


def seq_delta(a: int, b: int) -> int:
    """Signed distance from ``b`` to ``a`` under shortest wraparound.

    The ambiguous half-range distance resolves to -2^15 (two's
    complement convention), so ``seq_delta(a, b) == -seq_delta(b, a)``
    holds everywhere *except* at exactly 2^15 apart.
    """
    diff = (a - b) % _SEQ_MOD
    if diff >= _SEQ_MOD // 2:
        diff -= _SEQ_MOD
    return diff


class SequenceExtender:
    """Maps 16-bit sequence numbers onto the extended (unwrapped) axis.

    Loss-recovery state must be keyed by *extended* sequence number:
    after a 16-bit wraparound, packet ``seq & 0xFFFF`` names a
    different packet than one cycle earlier, and keying on the bare
    residue lets stale state alias fresh losses (the RetransmitCache
    replay bug).  The extender anchors on the highest value seen and
    resolves each input to the nearest cycle, so slightly-older
    residues (reordering, retransmissions) extend backwards while
    forward jumps advance the cycle count.
    """

    __slots__ = ("_highest",)

    def __init__(self) -> None:
        self._highest: int | None = None

    @property
    def highest(self) -> int | None:
        """Highest extended sequence number observed so far."""
        return self._highest

    def extend(self, seq: int) -> int:
        """Resolve ``seq`` to an extended sequence number.

        Values above 0xFFFF are taken as already extended and re-anchor
        the extender.  Negative results are clamped to the residue (a
        backwards resolution past zero cannot precede the stream start).
        """
        if seq > 0xFFFF:
            self._highest = max(self._highest or 0, seq)
            return seq
        if self._highest is None:
            self._highest = seq
            return seq
        ext = self._highest + seq_delta(seq, self._highest & 0xFFFF)
        if ext < 0:
            ext += _SEQ_MOD
        if ext > self._highest:
            self._highest = ext
        return ext


@dataclass(slots=True)
class ReceptionStats:
    """Snapshot of a source's reception quality."""

    packets_received: int
    packets_expected: int
    packets_lost: int
    fraction_lost: float
    jitter_seconds: float
    highest_seq: int


class SequenceTracker:
    """Per-source sequence state: extension, loss, and jitter.

    Follows RFC 3550 Appendix A.1 for sequence extension/validation and
    Appendix A.8 for jitter, with the jitter kept in clock-rate units
    internally and reported in seconds.
    """

    def __init__(self, clock_rate: int = DEFAULT_CLOCK_RATE) -> None:
        if clock_rate <= 0:
            raise ValueError("clock rate must be positive")
        self.clock_rate = clock_rate
        self._initialised = False
        self._base_seq = 0
        self._max_seq = 0
        self._cycles = 0
        self._received = 0
        self._jitter = 0.0  # RFC 3550 running jitter estimate, in ticks
        self._last_transit: float | None = None
        self._bad_seq: int | None = None

    # -- Updates ----------------------------------------------------------

    def init_seq(self, seq: int) -> None:
        self._base_seq = seq
        self._max_seq = seq
        self._cycles = 0
        self._received = 0
        self._bad_seq = None
        self._initialised = True

    def update(self, seq: int, rtp_timestamp: int | None = None,
               arrival: float | None = None) -> bool:
        """Record arrival of ``seq``; returns validity per RFC heuristics.

        ``rtp_timestamp`` + ``arrival`` (seconds) additionally update
        the interarrival jitter estimate.
        """
        if not self._initialised:
            self.init_seq(seq)
            self._received = 1
            self._update_jitter(rtp_timestamp, arrival)
            return True

        delta = (seq - self._max_seq) % _SEQ_MOD
        if delta < MAX_DROPOUT:
            if seq < self._max_seq and delta != 0:
                self._cycles += 1  # wrapped
            if delta != 0:
                self._max_seq = seq
        elif delta <= _SEQ_MOD - MAX_MISORDER:
            # Large jump: suspicious.  Accept only if repeated (restart).
            if self._bad_seq is not None and seq == self._bad_seq:
                self.init_seq(seq)
            else:
                self._bad_seq = (seq + 1) % _SEQ_MOD
                return False
        # else: duplicate or reordered within tolerance — count it.
        self._received += 1
        self._update_jitter(rtp_timestamp, arrival)
        return True

    def _update_jitter(self, rtp_timestamp: int | None, arrival: float | None) -> None:
        if rtp_timestamp is None or arrival is None:
            return
        transit = arrival * self.clock_rate - rtp_timestamp
        if self._last_transit is not None:
            d = abs(transit - self._last_transit)
            self._jitter += (d - self._jitter) / 16.0
        self._last_transit = transit

    # -- Reports ----------------------------------------------------------

    @property
    def extended_highest_seq(self) -> int:
        return self._cycles * _SEQ_MOD + self._max_seq

    def stats(self) -> ReceptionStats:
        if not self._initialised:
            return ReceptionStats(0, 0, 0, 0.0, 0.0, 0)
        expected = self.extended_highest_seq - self._base_seq + 1
        lost = max(0, expected - self._received)
        fraction = (lost / expected) if expected > 0 else 0.0
        return ReceptionStats(
            packets_received=self._received,
            packets_expected=expected,
            packets_lost=lost,
            fraction_lost=fraction,
            jitter_seconds=self._jitter / self.clock_rate,
            highest_seq=self._max_seq,
        )


class GapDetector:
    """Tracks holes in the sequence space to drive Generic NACKs.

    Feeds on arriving sequence numbers; :meth:`missing` reports every
    sequence number between the oldest packet seen and the highest seen
    that has not arrived, less than ``max_tracked`` behind the highest —
    the set a participant packs into NACK FCI entries (section 5.3.2).

    The holes themselves are the state, oldest first: a forward jump
    adds the sequence numbers it skipped, an arrival discards its own,
    and holes that slide to the window's edge drop off the front.  A
    packet costs O(1) amortised and :meth:`missing` O(holes).
    """

    def __init__(self, max_tracked: int = 1024) -> None:
        if not 0 < max_tracked < _SEQ_MOD // 2:
            raise ValueError("max_tracked must be in (0, 2^15)")
        self.max_tracked = max_tracked
        #: The holes, oldest first (a dict as an insertion-ordered set).
        self._missing: dict[int, None] = {}
        self._highest: int | None = None
        self._oldest_back = 0  # distance from highest to oldest packet seen

    def record(self, seq: int) -> None:
        seq %= _SEQ_MOD
        highest = self._highest
        if highest is None:
            self._highest = seq
            return
        advance = (seq - highest) % _SEQ_MOD
        if not 0 < advance < _SEQ_MOD // 2:
            # The head again, or an older packet (half-range counts as
            # older): it can only fill its own hole.
            self._missing.pop(seq, None)
            return
        self._highest = seq
        edge = self._oldest_back = min(
            self._oldest_back + advance, self.max_tracked
        )
        missing = self._missing
        while missing:  # holes now ``edge`` or more behind leave the window
            oldest = next(iter(missing))
            if (seq - oldest) % _SEQ_MOD < edge:
                break
            del missing[oldest]
        skipped = min(advance, edge) - 1
        if skipped > 0:
            missing.update(dict.fromkeys(
                s & 0xFFFF for s in range(seq - skipped, seq)
            ))

    def missing(self) -> list[int]:
        """Missing sequence numbers, oldest first, within the window.

        Only gaps *after* the oldest packet ever seen are reported —
        a receiver that joined mid-stream has no claim on history.
        """
        return list(self._missing)

    def acknowledge(self, seq: int) -> None:
        """Stop reporting ``seq`` missing (recovered or given up on).

        Only an existing hole is cleared: the head moves on arrivals
        alone, so a sequence number ahead of it (or any, before the
        first packet) opens no gaps.
        """
        self._missing.pop(seq % _SEQ_MOD, None)
