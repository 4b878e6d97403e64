"""The gap detector as it stood before the incremental missing set.

A test-only oracle, like ``tests/surface/scroll_oracle.py``: the class
body is the parent commit's ``GapDetector`` verbatim (a seen-set rebuilt
on every packet, a walk over the whole window on every ``missing()``,
``acknowledge()`` as ``record()``).  ``test_gap_exact.py`` holds the
production detector to the same ``missing()`` after every operation.
"""

from __future__ import annotations

from repro.rtp.sequence import _SEQ_MOD, seq_newer


class OracleGapDetector:
    """Tracks holes in the sequence space to drive Generic NACKs.

    Feeds on arriving sequence numbers; :meth:`missing` reports every
    sequence number between the lowest unacknowledged position and the
    highest seen that has not arrived — the set a participant packs
    into NACK FCI entries (section 5.3.2).
    """

    def __init__(self, max_tracked: int = 1024) -> None:
        if not 0 < max_tracked < _SEQ_MOD // 2:
            raise ValueError("max_tracked must be in (0, 2^15)")
        self.max_tracked = max_tracked
        self._seen: set[int] = set()
        self._highest: int | None = None
        self._oldest_back = 0  # distance from highest to oldest packet seen

    def record(self, seq: int) -> None:
        seq %= _SEQ_MOD
        if self._highest is None:
            self._highest = seq
            self._oldest_back = 0
        elif seq_newer(seq, self._highest):
            advance = (seq - self._highest) % _SEQ_MOD
            self._highest = seq
            self._oldest_back = min(
                self._oldest_back + advance, self.max_tracked
            )
        self._seen.add(seq)
        self._trim()

    def _trim(self) -> None:
        assert self._highest is not None
        highest = self._highest
        self._seen = {
            s for s in self._seen
            if (highest - s) % _SEQ_MOD <= self.max_tracked
        }

    def missing(self) -> list[int]:
        """Missing sequence numbers, oldest first, within the window.

        Only gaps *after* the oldest packet ever seen are reported —
        a receiver that joined mid-stream has no claim on history.
        """
        if self._highest is None:
            return []
        out = []
        for back in range(self._oldest_back - 1, 0, -1):
            seq = (self._highest - back) % _SEQ_MOD
            if seq not in self._seen:
                out.append(seq)
        return out

    def acknowledge(self, seq: int) -> None:
        """Mark ``seq`` recovered (e.g. retransmission arrived)."""
        self.record(seq)
