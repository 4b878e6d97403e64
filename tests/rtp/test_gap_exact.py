"""The incremental gap detector reports what the old one reported.

Differential tests against :mod:`tests.rtp.gap_oracle` (the parent's
seen-set detector kept verbatim): the same ``missing()`` and the same
head after every operation, over random walks across the 16-bit wrap,
reorders within and past ``max_tracked``, duplicates of the head and of
old packets, jumps of exactly ``max_tracked``, ``max_tracked + 1`` and
``2^15 - 1``, exactly half the range (``2^15``, which counts as old),
and ``acknowledge()`` of sequence numbers at or behind the head.  The
one deliberate difference, ``acknowledge()`` ahead of the head, is
pinned on its own.  CI runs this directory under
``--hypothesis-profile=thorough``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.rtp.sequence import GapDetector

from .gap_oracle import OracleGapDetector

HALF = 1 << 15
MAX_TRACKED = [1, 2, 16, 1024]


def edge_jumps(m: int) -> list[int]:
    return [m - 1, m, m + 1, HALF - 1, HALF]


def steps(m: int):
    """Offsets from the head for the next arrival."""
    return st.one_of(
        st.integers(1, 3),              # in order, or a few lost
        st.integers(-m, 0),             # reordered inside the window, or the head again
        st.integers(-m - 40, -m - 1),   # reordered past it
        st.sampled_from(edge_jumps(m) + [1 - HALF]),
        st.integers(0, 0xFFFF),         # anywhere
    )


class Pair:
    """The production detector and the oracle, fed the same inputs."""

    def __init__(self, m: int) -> None:
        self.new, self.old = GapDetector(m), OracleGapDetector(m)

    def record(self, seq: int) -> None:
        self.new.record(seq)
        self.old.record(seq)
        self.check()

    def acknowledge(self, seq: int) -> None:
        self.new.acknowledge(seq)
        self.old.acknowledge(seq)
        self.check()

    def check(self) -> None:
        assert self.new.missing() == self.old.missing()
        assert self.new._highest == self.old._highest


@given(st.data())
def test_same_missing_as_the_parent_detector(data):
    m = data.draw(st.sampled_from(MAX_TRACKED), label="max_tracked")
    start = data.draw(st.one_of(
        st.integers(0xFFFF - 2 * m, 0xFFFF), st.integers(0, 0xFFFF)
    ), label="start")
    pair = Pair(m)
    pair.record(start)
    history = [start]
    for _ in range(data.draw(st.integers(1, 60))):
        head = pair.old._highest
        kind = data.draw(st.sampled_from(["record", "record", "replay", "ack"]))
        if kind == "ack":  # at or behind the head; HALF counts as behind
            back = data.draw(st.one_of(st.integers(0, m + 2),
                                       st.integers(0, HALF)))
            pair.acknowledge((head - back) & 0xFFFF)
            continue
        if kind == "replay":  # a duplicate of anything seen before
            seq = data.draw(st.sampled_from(history))
        else:
            seq = (head + data.draw(steps(m))) & 0xFFFF
        pair.record(seq)
        history.append(seq)


@pytest.mark.parametrize("m", MAX_TRACKED)
@pytest.mark.parametrize("which", range(5))
def test_edge_jumps_across_the_wrap(m, which):
    pair = Pair(m)
    start = 0xFFFD
    for offset in (0, 1, 3):  # a hole at start + 2, on the wrap
        pair.record((start + offset) & 0xFFFF)
    head = (start + 3 + edge_jumps(m)[which]) & 0xFFFF
    for seq in (head, head + 1, head - 1, start + 2, head + 3):
        pair.record(seq & 0xFFFF)
    pair.acknowledge((head + 2) & 0xFFFF)


def test_acknowledge_ahead_of_the_head_opens_no_gaps():
    detector = GapDetector()
    detector.acknowledge(5)  # before the first packet: nothing at all
    assert detector.missing() == [] and detector._highest is None
    for seq in (100, 101, 103):
        detector.record(seq)
    detector.acknowledge(600)
    assert detector.missing() == [102] and detector._highest == 103
    detector.record(104)
    assert detector.missing() == [102]
    detector.acknowledge(102)
    assert detector.missing() == []

    # The parent's detector took the same call for an arrival.
    oracle = OracleGapDetector()
    for seq in (100, 101, 103):
        oracle.record(seq)
    oracle.acknowledge(600)
    assert oracle._highest == 600 and len(oracle.missing()) == 497
