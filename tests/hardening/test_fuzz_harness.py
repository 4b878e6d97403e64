"""The fuzz harness itself: deterministic, covering, self-checking."""

import pytest

from repro.fuzz import (
    MEMORY_BUDGET_BYTES,
    SURFACE_DRIVERS,
    build_corpus,
    run_fuzz,
)
from repro.fuzz.mutate import mutate
import random


class TestCorpus:
    def test_every_surface_has_seed_packets(self):
        corpus = build_corpus()
        assert set(corpus) == set(SURFACE_DRIVERS)
        for surface, packets in corpus.items():
            assert packets, f"empty corpus for {surface}"

    def test_corpus_is_deterministic(self):
        assert build_corpus() == build_corpus()


class TestMutators:
    def test_same_seed_same_mutations(self):
        corpus = [b"hello world", b"\x00\x01\x02\x03" * 8]
        first = [mutate(random.Random("s"), corpus) for _ in range(1)]
        second = [mutate(random.Random("s"), corpus) for _ in range(1)]
        assert first == second

    def test_mutations_differ_across_draws(self):
        corpus = [bytes(range(64))]
        rng = random.Random("s")
        outputs = {mutate(rng, corpus)[1] for _ in range(50)}
        assert len(outputs) > 10


    def test_png_mutants_reach_inflate_and_unfilter(self, monkeypatch):
        # Edits under a chunk CRC stop at the chunk layer; the png
        # surface's own mutator must carry mutants past it.
        import repro.codecs.png.decoder as decoder
        from repro.codecs.png.decoder import decode_png
        from repro.core.errors import ProtocolError
        from repro.fuzz import build_rejects
        from repro.fuzz.mutate import MUTATORS

        reached = {"inflate": 0, "unfilter": 0}

        def counting(stage, real):
            def wrapped(*args, **kwargs):
                reached[stage] += 1
                return real(*args, **kwargs)
            return wrapped

        seeds = build_corpus()["png"] + [
            data for data, _ in build_rejects()["png"]
        ]
        rng = random.Random("0:png")  # the runner's seed-0 png stream
        mutants = [
            data for _, data in (
                mutate(rng, seeds) for _ in range(300)
            )
            if data not in seeds
        ]
        monkeypatch.setattr(decoder, "bounded_decompress", counting(
            "inflate", decoder.bounded_decompress
        ))
        monkeypatch.setattr(decoder, "unfilter_image", counting(
            "unfilter", decoder.unfilter_image
        ))
        for data in mutants:
            try:
                decode_png(data)
            except ProtocolError:
                pass
        assert reached["inflate"] >= 1
        assert reached["unfilter"] >= 1
        # Other data draws from the four shared mutators only, so the
        # other surfaces' seeded streams are unchanged.
        names = {
            mutate(random.Random(i), [bytes(range(64))])[0]
            for i in range(200)
        }
        assert names == {m.__name__ for m in MUTATORS} | {"identity"}


class TestRunner:
    def test_smoke_run_is_clean(self):
        report = run_fuzz(seed=0, iterations=40)
        assert report.ok
        assert report.total_iterations == 40 * (len(SURFACE_DRIVERS) + 1)
        assert report.memory_peak <= MEMORY_BUDGET_BYTES
        surfaces = {s.surface for s in report.surfaces}
        assert "participant-e2e" in surfaces
        for surface in report.surfaces:
            assert surface.failures == []
            assert surface.accepted + surface.rejected == surface.iterations

    def test_same_seed_reproduces_exactly(self):
        first = run_fuzz(seed=7, iterations=25, surfaces=["rtp", "rtcp"],
                         e2e=False)
        second = run_fuzz(seed=7, iterations=25, surfaces=["rtp", "rtcp"],
                          e2e=False)
        stats = lambda r: [
            (s.surface, s.accepted, s.rejected) for s in r.surfaces
        ]
        assert stats(first) == stats(second)

    def test_different_seeds_differ(self):
        a = run_fuzz(seed=1, iterations=60, surfaces=["rtp"], e2e=False)
        b = run_fuzz(seed=2, iterations=60, surfaces=["rtp"], e2e=False)
        assert (a.surfaces[0].accepted, a.surfaces[0].rejected) != (
            b.surfaces[0].accepted, b.surfaces[0].rejected,
        )

    def test_unknown_surface_rejected(self):
        with pytest.raises(ValueError):
            run_fuzz(surfaces=["nonsense"])


class TestCli:
    def test_selftest_exit_code_zero(self):
        from repro.fuzz.__main__ import main

        assert main(["--iterations", "30", "--seed", "3"]) == 0

    def test_single_surface_flag(self, capsys):
        from repro.fuzz.__main__ import main

        assert main(["--surface", "rtp", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "rtp" in out
        assert "participant-e2e" not in out
