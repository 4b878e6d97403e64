"""Deterministic structure-aware mutators.

Each mutator takes a seeded ``random.Random`` plus the packet bytes and
returns a hostile variant.  The four families target the failure modes
strict decoders must survive:

* **truncate** — every length check must fire before the read;
* **bit_flip** — corrupted magic/type/flag fields;
* **length_inflate** — a declared size larger than the data behind it
  (the classic heap-overread shape);
* **splice** — two valid packets cut and joined, producing plausible
  headers over the wrong body.

PNG data gets a fifth, **idat_rewrite**: every byte the other four
touch in a valid PNG sits under a chunk CRC, so none of their mutants
gets past the chunk layer to inflate or unfiltering.  Other data keeps
the four, so other surfaces' seeded draws are those of before.
"""

from __future__ import annotations

import random
import struct
import zlib

from ..codecs.png.chunks import SIGNATURE, TYPE_IDAT


def truncate(rng: random.Random, data: bytes, corpus) -> bytes:
    if not data:
        return data
    return data[: rng.randrange(len(data))]


def bit_flip(rng: random.Random, data: bytes, corpus) -> bytes:
    if not data:
        return data
    out = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        position = rng.randrange(len(out))
        out[position] ^= 1 << rng.randrange(8)
    return bytes(out)


def length_inflate(rng: random.Random, data: bytes, corpus) -> bytes:
    """Overwrite a random aligned field with a huge value.

    Hits whatever integer happens to live there — a declared length, a
    count, a dimension — which is exactly the point: any field a decoder
    multiplies or allocates by must be capped.
    """
    width = rng.choice((1, 2, 4))
    if len(data) < width:
        return data
    out = bytearray(data)
    offset = rng.randrange(len(out) - width + 1)
    huge = {
        1: rng.choice((0x7F, 0xFF)),
        2: rng.choice((0x7FFF, 0xFFFF)),
        4: rng.choice((0x7FFF_FFFF, 0xFFFF_FFFF, 0x0100_0000)),
    }[width]
    struct.pack_into({1: "!B", 2: "!H", 4: "!I"}[width], out, offset, huge)
    return bytes(out)


def splice(rng: random.Random, data: bytes, corpus) -> bytes:
    other = corpus[rng.randrange(len(corpus))]
    if not data or not other:
        return data + other
    return data[: rng.randrange(1, len(data) + 1)] + other[
        rng.randrange(len(other)) :
    ]


def idat_rewrite(rng: random.Random, data: bytes, corpus) -> bytes:
    """Alter bytes inside one IDAT chunk's data and re-seal its CRC.

    Half the time the bytes are the compressed stream as sent (probing
    inflate); otherwise the stream is inflated, 1-4 bytes of its
    filter-type-plus-residual rows are changed and it is deflated again
    (a well-formed stream that probes unfiltering).  Data that is not a
    PNG with a non-empty IDAT comes back unchanged.
    """
    idats = []
    offset = len(SIGNATURE)
    while offset + 12 <= len(data):
        (length,) = struct.unpack_from("!I", data, offset)
        if offset + 12 + length > len(data):
            break
        if length and data[offset + 4 : offset + 8] == TYPE_IDAT:
            idats.append((offset + 8, length))
        offset += 12 + length
    if not idats:
        return data
    start, length = idats[rng.randrange(len(idats))]
    body = bytearray(data[start : start + length])
    try:
        rows = bytearray(zlib.decompress(body)) if rng.random() < 0.5 else None
    except zlib.error:
        rows = None
    target = rows if rows else body
    for _ in range(rng.randint(1, 4)):
        target[rng.randrange(len(target))] = rng.randrange(256)
    if rows:
        body = bytearray(zlib.compress(bytes(rows)))
    crc = zlib.crc32(TYPE_IDAT + body)
    return (
        data[: start - 8] + struct.pack("!I", len(body)) + TYPE_IDAT
        + bytes(body) + struct.pack("!I", crc) + data[start + length + 4 :]
    )


MUTATORS = (truncate, bit_flip, length_inflate, splice)
PNG_MUTATORS = MUTATORS + (idat_rewrite,)


def mutate(rng: random.Random, corpus: list[bytes]) -> tuple[str, bytes]:
    """Pick a corpus packet and one mutator; ~5% pass through unmutated
    (a valid packet must of course also survive the drivers)."""
    data = corpus[rng.randrange(len(corpus))]
    if rng.random() < 0.05:
        return "identity", data
    mutators = PNG_MUTATORS if data.startswith(SIGNATURE) else MUTATORS
    mutator = mutators[rng.randrange(len(mutators))]
    return mutator.__name__, mutator(rng, data, corpus)
