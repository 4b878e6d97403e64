"""Capture→encode hot-path benchmark + regression gate.

Measures the vectorised pipeline against the retained scalar reference
**on the same machine, in the same run**, so the headline number — the
encode speedup ratio — is hardware-independent and can be gated in CI
(same pattern as the BENCH_trace e2e gate).

Three sections:

* ``encode``  — ``encode_png`` vs ``encode_png_scalar`` per corpus
  image; the gate applies to the screen-content ratio.
* ``decode``  — whole-image ``unfilter_image`` vs the row-at-a-time
  scalar reconstruction; the gate applies to the photo ratio (the
  diagonal wavefront's case).
* ``pipeline`` — TileDiffer damage pass + cached re-encode of repeated
  screen frames: what a steady-state sharing session actually runs.
* ``parallel`` — the band-thread pipeline
  (``repro.codecs.parallel``, one band per core) vs the single-threaded
  vector path, with byte-identity verified before timing and pool
  teardown asserted after (a band thread that outlives ``close()``
  fails the run loudly).
* ``fanout``  — the same frame encoded for 1 vs 8 destinations through
  the shared cache; misses scaling with destinations is a fatal error.

Usage::

    PYTHONPATH=src python benchmarks/bench_encode_path.py \
        --json BENCH_encode.new.json --baseline BENCH_encode.json

Exits non-zero when the measured encode ratio falls below the
baseline's ``gate.min_encode_ratio``, when the photo decode ratio falls
below ``gate.min_decode_ratio``, or — on machines with at least
``gate.parallel_gate_min_cpus`` cores — when the multi-core photo
ratio falls below ``gate.min_parallel_ratio``.  Refresh the committed
seed with ``--json BENCH_encode.json`` (no ``--baseline``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.photo import synthetic_photo, ui_screenshot  # noqa: E402
from repro.codecs.cache import EncodeCache  # noqa: E402
from repro.codecs.png.chunks import TYPE_IDAT, iter_chunks  # noqa: E402
from repro.codecs.png.decoder import decode_png  # noqa: E402
from repro.codecs.png.encoder import encode_png  # noqa: E402
from repro.codecs.png.filters import BPP, unfilter_image  # noqa: E402
from repro.codecs.png.reference import (  # noqa: E402
    encode_png_scalar,
    unfilter_rows_scalar,
)
from repro.surface.damage import TileDiffer  # noqa: E402
from repro.surface.framebuffer import Framebuffer  # noqa: E402

SIZE = (480, 640)  # height, width — the canonical screen-content frame
#: Floor for the photo decode ratio (wavefront ``unfilter_image`` vs the
#: scalar rows): below the lowest of 12 runs on a shared 2-core box
#: (24.4x, in a window where the photo decoded ~2x slower than in the
#: others; committed median 45.9x), and 5x the per-row Python loop the
#: wavefront replaced (3.7x), so a photo that falls back to it fails.
MIN_DECODE_RATIO = 20.0


def corpus() -> dict[str, np.ndarray]:
    h, w = SIZE
    return {
        # Screen content is what the paper shares; the gate rides on it.
        "ui-screenshot": ui_screenshot(w, h, seed=1),
        # Photographic content keeps zlib honest (worst case for the
        # filter stage's share of total time).
        "photo": synthetic_photo(w, h, seed=1),
    }


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_encode(images: dict[str, np.ndarray], repeats: int) -> dict:
    out: dict[str, dict] = {}
    for name, img in images.items():
        fast = encode_png(img)
        slow = encode_png_scalar(img)
        if fast != slow:
            raise SystemExit(
                f"FATAL: vectorised encode of {name} is not byte-identical"
            )
        vec = best_of(lambda: encode_png(img), repeats)
        scalar = best_of(lambda: encode_png_scalar(img), max(2, repeats // 2))
        out[name] = {
            "vector_ms": vec * 1e3,
            "scalar_ms": scalar * 1e3,
            "ratio": scalar / vec,
            "encoded_kib": len(fast) / 1024,
        }
    return out


def bench_decode(images: dict[str, np.ndarray], repeats: int) -> dict:
    out: dict[str, dict] = {}
    for name, img in images.items():
        h, w = img.shape[:2]
        stride = w * BPP
        data = encode_png(img)
        # Pre-split so both sides time only the unfilter stage.
        from repro.codecs.png.chunks import TYPE_IDAT, iter_chunks

        idat = b"".join(
            c.data for c in iter_chunks(data) if c.type == TYPE_IDAT
        )
        raw = zlib.decompress(idat)
        scan = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + stride)
        vec = best_of(
            lambda: unfilter_image(scan[:, 0], scan[:, 1:]), repeats
        )
        scalar = best_of(
            lambda: unfilter_rows_scalar(raw, h, stride),
            max(2, repeats // 2),
        )
        full = best_of(lambda: decode_png(data), repeats)
        out[name] = {
            "vector_ms": vec * 1e3,
            "scalar_ms": scalar * 1e3,
            "ratio": scalar / vec,
            "decode_png_ms": full * 1e3,
        }
    return out


def bench_pipeline(repeats: int) -> dict:
    """Steady-state loop: damage-diff each frame, encode changed tiles.

    Frame 2 repeats frame 1's content (cursor-blink style), so the
    differ's no-change pass and the encode cache both engage — the
    combination is the real hot loop of a sharing session.
    """
    h, w = SIZE
    base = ui_screenshot(w, h, seed=1)
    dirty = base.copy()
    dirty[100:164, 200:264] ^= 0xFF  # one 64x64 tile of damage

    def run(cache: EncodeCache | None) -> float:
        def one_pass() -> None:
            fb = Framebuffer(w, h)
            differ = TileDiffer(w, h)
            for frame in (base, dirty, base, dirty):
                fb.array[:] = frame
                region = differ.diff(fb)
                for rect in region.rects:
                    block = np.ascontiguousarray(
                        fb.array[rect.top:rect.bottom, rect.left:rect.right]
                    )
                    if cache is None:
                        encode_png(block)
                        continue
                    key = cache.key(block)
                    if cache.get(key) is None:
                        cache.put(key, 0, encode_png(block))

        return best_of(one_pass, repeats)

    cache = EncodeCache(max_entries=512)
    cached = run(cache)
    uncached = run(None)
    return {
        "cached_ms": cached * 1e3,
        "uncached_ms": uncached * 1e3,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "ratio": uncached / cached,
    }


def bench_parallel(images: dict[str, np.ndarray], repeats: int) -> dict:
    """Band-thread encode vs the single-threaded vector path.

    Verifies the byte-identity contract before timing anything, and
    asserts complete pool teardown after: CI fails loudly on a band
    thread that survives ``close()``.
    """
    from repro.codecs.lossy import LossyDctCodec
    from repro.codecs.parallel import (
        EncodePool,
        encode_lossy_parallel,
        encode_png_parallel,
    )
    from repro.codecs.png.encoder import filtered_scanlines

    cpu = os.cpu_count() or 1
    out: dict = {"cpu_count": cpu, "workers": cpu}
    threads_before = threading.active_count()
    pool = EncodePool(cpu)
    try:
        for name, img in images.items():
            serial = encode_png(img)
            parallel = encode_png_parallel(img, pool)
            if not np.array_equal(decode_png(parallel), decode_png(serial)):
                raise SystemExit(
                    f"FATAL: parallel PNG of {name} decodes differently"
                )
            idat = b"".join(
                c.data for c in iter_chunks(parallel) if c.type == TYPE_IDAT
            )
            if zlib.decompress(idat) != filtered_scanlines(img).tobytes():
                raise SystemExit(
                    f"FATAL: parallel scanline stream of {name} is not"
                    " byte-identical to the vector path"
                )
            t_par = best_of(lambda: encode_png_parallel(img, pool), repeats)
            t_ser = best_of(lambda: encode_png(img), repeats)
            out[name] = {
                "parallel_ms": t_par * 1e3,
                "serial_ms": t_ser * 1e3,
                "ratio": t_ser / t_par,
            }
        codec = LossyDctCodec(75)
        photo = images["photo"]
        t_par = best_of(
            lambda: encode_lossy_parallel(photo, pool, quality=75), repeats
        )
        t_ser = best_of(lambda: codec.encode(photo), repeats)
        out["photo-lossy"] = {
            "parallel_ms": t_par * 1e3,
            "serial_ms": t_ser * 1e3,
            "ratio": t_ser / t_par,
        }
        out["fallbacks"] = pool.fallbacks
    finally:
        pool.close()
    leaked = threading.active_count() - threads_before
    if leaked:
        raise SystemExit(
            f"FATAL: {leaked} encode band thread(s) survived pool close"
        )
    return out


def bench_fanout(destinations: int = 8) -> dict:
    """Cache-miss flatness as destinations scale (N sinks, one encode).

    The content+params key makes every destination of a session hash a
    block to the same entry, so misses must not grow with N.
    """
    h, w = SIZE
    base = ui_screenshot(w, h, seed=2)
    blocks = [
        np.ascontiguousarray(base[y : y + 64, x : x + 64])
        for y in range(0, 256, 64)
        for x in range(0, 256, 64)
    ]
    params = b"bench:png:6"

    def run(n: int) -> EncodeCache:
        cache = EncodeCache(max_entries=512)
        for _dest in range(n):
            for block in blocks:
                key = cache.key(block, params)
                if cache.get(key) is None:
                    cache.put(key, 0, encode_png(block))
        return cache

    single = run(1)
    fanned = run(destinations)
    if fanned.misses != single.misses:
        raise SystemExit(
            f"FATAL: cache misses scale with destinations"
            f" ({single.misses} -> {fanned.misses} at N={destinations})"
        )
    return {
        "destinations": destinations,
        "blocks": len(blocks),
        "misses_single": single.misses,
        "misses_fanout": fanned.misses,
        "hits_fanout": fanned.hits,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=None,
                        help="write results to this path")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_encode.json to gate against")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    images = corpus()
    results = {
        "bench": "encode-path",
        "size": {"height": SIZE[0], "width": SIZE[1]},
        "gate": {
            "min_encode_ratio": 3.0,
            "min_decode_ratio": MIN_DECODE_RATIO,
            # The multi-core floor is enforced from 3 cores up (CI
            # runners have 4): on 2 cores one run reads ~1.0x or ~1.9x
            # depending on where the scheduler puts the second band.
            "min_parallel_ratio": 2.0,
            "parallel_gate_min_cpus": 3,
        },
        "encode": bench_encode(images, args.repeats),
        "decode": bench_decode(images, args.repeats),
        "pipeline": bench_pipeline(max(2, args.repeats // 2)),
        "parallel": bench_parallel(images, args.repeats),
        "fanout": bench_fanout(),
    }

    screen_ratio = results["encode"]["ui-screenshot"]["ratio"]
    print(f"encode speedup (screen content): {screen_ratio:.2f}x")
    for name, row in results["encode"].items():
        print(
            f"  encode {name:>14}: {row['vector_ms']:7.2f} ms vectorised"
            f" vs {row['scalar_ms']:8.2f} ms scalar ({row['ratio']:.2f}x)"
        )
    for name, row in results["decode"].items():
        print(
            f"  decode {name:>14}: {row['vector_ms']:7.2f} ms vectorised"
            f" vs {row['scalar_ms']:8.2f} ms scalar ({row['ratio']:.2f}x)"
        )
    pipe = results["pipeline"]
    print(
        f"  pipeline (diff+encode, 4 frames): {pipe['cached_ms']:.2f} ms"
        f" cached vs {pipe['uncached_ms']:.2f} ms uncached"
        f" ({pipe['cache_hits']} hits)"
    )
    par = results["parallel"]
    for name in (*images, "photo-lossy"):
        row = par[name]
        print(
            f"  parallel {name:>12}: {row['parallel_ms']:7.2f} ms"
            f" ({par['workers']} workers) vs {row['serial_ms']:7.2f} ms"
            f" serial ({row['ratio']:.2f}x)"
        )
    fan = results["fanout"]
    print(
        f"  fanout: {fan['misses_fanout']} misses at"
        f" {fan['destinations']} destinations"
        f" (single-destination: {fan['misses_single']})"
    )

    if args.json:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {args.json}")

    if args.baseline:
        baseline = json.loads(args.baseline.read_text())
        gate = baseline.get("gate", {})
        floor = float(gate.get("min_encode_ratio", 3.0))
        if screen_ratio < floor:
            print(
                f"GATE FAIL: screen-content encode ratio {screen_ratio:.2f}x"
                f" is below the committed floor {floor:.2f}x"
            )
            return 1
        print(f"gate ok: {screen_ratio:.2f}x >= {floor:.2f}x floor")

        decode_floor = float(gate.get("min_decode_ratio", 0.0))
        decode_ratio = results["decode"]["photo"]["ratio"]
        if decode_ratio < decode_floor:
            print(
                f"GATE FAIL: photo decode ratio {decode_ratio:.2f}x"
                f" is below the committed floor {decode_floor:.2f}x"
            )
            return 1
        print(
            f"decode gate ok: {decode_ratio:.2f}x >= {decode_floor:.2f}x floor"
        )

        parallel_floor = float(gate.get("min_parallel_ratio", 0.0))
        min_cpus = int(gate.get("parallel_gate_min_cpus", 3))
        cpu = results["parallel"]["cpu_count"]
        photo_ratio = results["parallel"]["photo"]["ratio"]
        if parallel_floor and cpu >= min_cpus:
            if photo_ratio < parallel_floor:
                print(
                    f"GATE FAIL: multi-core photo encode ratio"
                    f" {photo_ratio:.2f}x is below the committed floor"
                    f" {parallel_floor:.2f}x ({cpu} cpus)"
                )
                return 1
            print(
                f"parallel gate ok: {photo_ratio:.2f}x >="
                f" {parallel_floor:.2f}x floor ({cpu} cpus)"
            )
        elif parallel_floor:
            print(
                f"parallel gate skipped: {cpu} cpu(s) <"
                f" {min_cpus} (measured {photo_ratio:.2f}x, not gated)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
