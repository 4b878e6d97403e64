"""The deterministic fuzz loop.

``run_fuzz(seed, iterations)`` drives every decoder surface plus the
full Participant ingress with seeded mutations of valid corpus packets
and reports what happened.  The contract it enforces:

* **zero uncaught exceptions** — only :class:`ProtocolError` (which
  every domain error subclasses) may escape a decoder;
* **bounded memory** — a tracemalloc peak cap catches decompression
  bombs and unbounded reassembly buffers.

Same seed ⇒ byte-identical mutation sequence ⇒ reproducible failures:
a crash report's (surface, seed, iteration) triple replays exactly.
"""

from __future__ import annotations

import random
import tracemalloc
import traceback
from dataclasses import dataclass, field

from ..core.errors import ProtocolError
from ..sharing.participant import Participant
from ..sharing.quarantine import QuarantinePolicy
from ..sharing.transport import PacketTransport
from .corpus import build_corpus, build_rejects
from .drivers import SURFACE_DRIVERS
from .mutate import mutate

#: Peak traced allocation allowed for a full run.  Generous for the
#: legitimate decode work; far below what one inflated length field
#: would allocate if a cap were missing.
MEMORY_BUDGET_BYTES = 128 * 1024 * 1024


@dataclass(slots=True)
class SurfaceReport:
    surface: str
    iterations: int = 0
    accepted: int = 0
    rejected: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(slots=True)
class FuzzReport:
    seed: int
    surfaces: list[SurfaceReport]
    memory_peak: int = 0

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.surfaces)

    @property
    def ok(self) -> bool:
        return (
            all(s.ok for s in self.surfaces)
            and self.memory_peak <= MEMORY_BUDGET_BYTES
        )


class _InjectTransport(PacketTransport):
    """In-memory transport the e2e stage pushes hostile packets through."""

    reliable = True

    def __init__(self) -> None:
        self._pending: list[bytes] = []

    def feed(self, packet: bytes) -> None:
        self._pending.append(packet)

    def send_packet(self, packet: bytes) -> bool:
        return True  # participant egress is discarded

    def receive_packets(self) -> list[bytes]:
        out, self._pending = self._pending, []
        return out


def _fuzz_surface(surface: str, rng: random.Random,
                  iterations: int) -> SurfaceReport:
    corpus_key, driver = SURFACE_DRIVERS[surface]
    corpus = build_corpus()[corpus_key] + [
        data for data, _ in build_rejects().get(corpus_key, [])
    ]
    report = SurfaceReport(surface)
    for index in range(iterations):
        name, data = mutate(rng, corpus)
        report.iterations += 1
        try:
            driver(data)
        except ProtocolError:
            report.rejected += 1
        except Exception:
            report.failures.append(
                f"{surface}[{index}] mutator={name} "
                f"input={data[:64].hex()}...\n{traceback.format_exc()}"
            )
            if len(report.failures) >= 5:
                break
        else:
            report.accepted += 1
    return report


def _fuzz_participant(rng: random.Random, iterations: int) -> SurfaceReport:
    """End-to-end: mutated packets through the full Participant ingress.

    The ingress catches ProtocolError itself (counting and
    quarantining), so *any* exception out of ``process_incoming`` is a
    failure.  The participant's quarantine gets a raised budget so it
    does not mute the decode path mid-run.
    """
    report = SurfaceReport("participant-e2e")
    transport = _InjectTransport()
    clock = [0.0]
    participant = Participant("fuzz", transport, clock=lambda: clock[0])
    participant.quarantine = QuarantinePolicy(
        lambda: clock[0], budget=1_000_000
    )
    participant.join()
    corpus = build_corpus()
    pool = corpus["remoting"] + corpus["hip"] + corpus["rtp"] + corpus["rtcp"]
    for index in range(iterations):
        name, data = mutate(rng, pool)
        report.iterations += 1
        transport.feed(data)
        clock[0] += 0.01
        try:
            participant.process_incoming()
        except Exception:
            report.failures.append(
                f"participant-e2e[{index}] mutator={name} "
                f"input={data[:64].hex()}...\n{traceback.format_exc()}"
            )
            if len(report.failures) >= 5:
                break
        else:
            report.accepted += 1
    return report


def run_fuzz(
    seed: int = 0,
    iterations: int = 300,
    surfaces: list[str] | None = None,
    e2e: bool = True,
) -> FuzzReport:
    """Run ``iterations`` mutations per surface; deterministic in ``seed``."""
    names = list(surfaces) if surfaces else list(SURFACE_DRIVERS)
    unknown = [n for n in names if n not in SURFACE_DRIVERS]
    if unknown:
        raise ValueError(f"unknown surfaces: {unknown}")
    tracemalloc.start()
    try:
        reports = []
        for surface in names:
            # A str seed hashes deterministically (unlike tuples, whose
            # hash varies with PYTHONHASHSEED).
            rng = random.Random(f"{seed}:{surface}")
            reports.append(_fuzz_surface(surface, rng, iterations))
        if e2e:
            rng = random.Random(f"{seed}:participant-e2e")
            reports.append(_fuzz_participant(rng, iterations))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return FuzzReport(seed=seed, surfaces=reports, memory_peak=peak)
