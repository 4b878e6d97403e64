"""Participant-side loss-recovery state machine (sections 4.5.1, 5.3.2).

The draft's reliability story over UDP is Generic NACK retransmission,
but a single NACK is itself a datagram on a lossy path: without retry
logic a lost NACK (or a lost retransmission) strands the gap until the
jitter buffer times out and a costly full refresh (PLI) is the only way
out.  :class:`RecoveryManager` gives every missing packet a small
deterministic state machine:

    MISSING --nack--> NACKED --timeout--> RETRY (exponential backoff)
       RETRY --timeout x max_attempts--> GAVE_UP
       any state --packet arrives--> RECOVERED

* Losses are keyed by **extended** sequence number (via
  :class:`~repro.rtp.sequence.SequenceExtender`), so state survives
  16-bit wraparound without aliasing a fresh loss onto a stale one.
* Retries back off exponentially (``initial_interval * backoff**n``)
  and stop after ``max_attempts`` NACKs; the caller then degrades
  gracefully — flush the jitter-buffer hole and request a full window
  refresh from the AH.
* Recovery latency (first detection → arrival) feeds a histogram, and
  every transition is counted, so tests and dashboards can assert the
  machine's behaviour from one `repro.obs` snapshot:
  ``recovery.nacks_sent`` / ``.retries`` / ``.recovered`` /
  ``.gave_up`` / ``.cancelled`` / ``.duplicates_suppressed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from ..rtp.sequence import SequenceExtender

#: Default retry schedule: NACK at t=0, retries at +0.2, +0.4, +0.8 …
DEFAULT_INITIAL_INTERVAL = 0.2
DEFAULT_BACKOFF = 2.0
DEFAULT_MAX_ATTEMPTS = 4
#: How long a recovered sequence number is remembered so late duplicate
#: retransmissions are recognised (and suppressed) rather than ignored.
DEFAULT_RECOVERED_MEMORY = 5.0


@dataclass(slots=True)
class _PendingLoss:
    """Retry state for one missing extended sequence number."""

    first_seen: float
    attempts: int
    next_retry: float


@dataclass(slots=True)
class RecoveryActions:
    """What the participant should do after one poll."""

    #: 16-bit sequence numbers to pack into a Generic NACK right now.
    nack_now: list[int] = field(default_factory=list)
    #: 16-bit sequence numbers whose retries are exhausted: flush their
    #: jitter-buffer holes and request a full window refresh.
    gave_up: list[int] = field(default_factory=list)

    @property
    def refresh_needed(self) -> bool:
        return bool(self.gave_up)


class RecoveryManager:
    """Drives NACK → timed retry → capped give-up for missing packets."""

    def __init__(
        self,
        now,
        initial_interval: float = DEFAULT_INITIAL_INTERVAL,
        backoff: float = DEFAULT_BACKOFF,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        recovered_memory: float = DEFAULT_RECOVERED_MEMORY,
        instrumentation=None,
    ) -> None:
        if initial_interval <= 0:
            raise ValueError("initial_interval must be positive")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if recovered_memory < 0:
            raise ValueError("recovered_memory cannot be negative")
        self._now = as_now(now)
        self.initial_interval = initial_interval
        self.backoff = backoff
        self.max_attempts = max_attempts
        self.recovered_memory = recovered_memory
        self._extender = SequenceExtender()
        #: extended seq → retry state.
        self._pending: dict[int, _PendingLoss] = {}
        #: extended seq → recovery time, for duplicate suppression.
        self._recovered_at: dict[int, float] = {}
        self.nacks_sent = 0
        self.retries = 0
        self.recovered = 0
        self.gave_up = 0
        self.cancelled = 0
        self.duplicates_suppressed = 0
        obs = instrumentation if instrumentation is not None else NULL
        self._obs = obs
        self._c_nacks = obs.counter("recovery.nacks_sent")
        self._c_retries = obs.counter("recovery.retries")
        self._c_recovered = obs.counter("recovery.recovered")
        self._c_gave_up = obs.counter("recovery.gave_up")
        self._c_cancelled = obs.counter("recovery.cancelled")
        self._c_duplicates = obs.counter("recovery.duplicates_suppressed")
        self._g_pending = obs.gauge("recovery.pending")
        self._h_latency = obs.histogram("recovery.latency_seconds")

    # -- Inputs ------------------------------------------------------------

    def note_arrival(self, seq: int) -> bool:
        """Record that packet ``seq`` arrived (original or retransmit).

        Returns True when the arrival filled a tracked loss — i.e. this
        packet is a NACK-driven recovery, which span tracing uses for
        the ``recovered=yes`` e2e label."""
        ext = self._extender.extend(seq)
        state = self._pending.pop(ext, None)
        now = self._now()
        if state is not None:
            self._g_pending.set(len(self._pending))
            self._mark_recovered(ext, state, now)
            return True
        if ext in self._recovered_at:
            if now - self._recovered_at[ext] <= self.recovered_memory:
                self.duplicates_suppressed += 1
                self._c_duplicates.inc()
            else:
                del self._recovered_at[ext]
        return False

    def cancel(self, seq: int) -> None:
        """Stop tracking ``seq`` without a give-up (e.g. jitter buffer
        already skipped the hole and a refresh is underway)."""
        ext = self._extender.extend(seq)
        if self._pending.pop(ext, None) is not None:
            self._g_pending.set(len(self._pending))
            self.cancelled += 1
            self._c_cancelled.inc()

    # -- The state machine -------------------------------------------------

    def poll(self, missing: Iterable[int]) -> RecoveryActions:
        """Advance every tracked loss against the current ``missing`` set.

        ``missing`` is the gap detector's view (16-bit sequence
        numbers).  Pending entries absent from it have been recovered;
        entries present transition per the retry schedule.  Nothing
        missing and nothing pending is a no-op that reads no clock.
        """
        if not missing and not self._pending:
            return RecoveryActions()
        now = self._now()
        ext_missing = {self._extender.extend(s): s & 0xFFFF for s in missing}
        for ext in [e for e in self._pending if e not in ext_missing]:
            self._mark_recovered(ext, self._pending.pop(ext), now)
        actions = RecoveryActions()
        for ext, seq in ext_missing.items():
            state = self._pending.get(ext)
            if state is None:
                self._pending[ext] = _PendingLoss(
                    first_seen=now,
                    attempts=1,
                    next_retry=now + self.initial_interval,
                )
                actions.nack_now.append(seq)
                self.nacks_sent += 1
                self._c_nacks.inc()
            elif now >= state.next_retry:
                if state.attempts >= self.max_attempts:
                    del self._pending[ext]
                    actions.gave_up.append(seq)
                    self.gave_up += 1
                    self._c_gave_up.inc()
                else:
                    interval = self.initial_interval * (
                        self.backoff ** state.attempts
                    )
                    state.attempts += 1
                    state.next_retry = now + interval
                    actions.nack_now.append(seq)
                    self.nacks_sent += 1
                    self.retries += 1
                    self._c_nacks.inc()
                    self._c_retries.inc()
        self._g_pending.set(len(self._pending))
        self._prune_recovered(now)
        if actions.gave_up and self._obs.enabled:
            # Flight-recorder sentinel: retries exhausted → PLI degrade.
            self._obs.event(
                "recovery.gave_up",
                count=len(actions.gave_up),
                seqs=list(actions.gave_up),
            )
        return actions

    # -- Internals ---------------------------------------------------------

    def _mark_recovered(self, ext: int, state: _PendingLoss,
                        now: float) -> None:
        self.recovered += 1
        self._c_recovered.inc()
        self._h_latency.observe(now - state.first_seen)
        self._recovered_at[ext] = now

    def _prune_recovered(self, now: float) -> None:
        if len(self._recovered_at) > 4096:
            cutoff = now - self.recovered_memory
            self._recovered_at = {
                e: t for e, t in self._recovered_at.items() if t >= cutoff
            }

    @property
    def pending(self) -> int:
        """Losses currently inside the retry machine."""
        return len(self._pending)

    def pending_attempts(self, seq: int) -> int:
        """NACK attempts so far for ``seq`` (0 when untracked)."""
        ext = self._extender.extend(seq)
        state = self._pending.get(ext)
        return state.attempts if state is not None else 0
