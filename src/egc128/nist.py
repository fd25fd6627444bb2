"""Input bitstream generation for external statistical test suites.

Three plaintext regimes feed the fixed-key cipher:

* ``random_pt``     fresh uniform random 128-bit plaintexts;
* ``counter``       the block counter itself, X_i = E_K(i);
* ``nonce_counter`` a random 64-bit nonce in the high half and the
                    counter in the low half, X_i = E_K(nonce || i).

Ciphertext bits are emitted most-significant-first (block bit 127 down
to bit 0), either as ASCII '0'/'1' characters or packed binary.  A run
is a pure function of (mode, key, seed).

Plaintexts come in batches of ``NIST_BATCH_BLOCKS`` blocks: a
random-plaintext batch draws its L lanes and then its R lanes from its
own substream ``("nist_pt", batch)``, and a counter batch builds its
lanes from the block index.  No batch-size ciphertext array exists:
each final-round column tile of the bitsliced engine (256 words, 16,384
blocks at width 64) is unpacked into big-endian (L, R) blocks, its ones
are counted on those words, and it is written, expanded to ASCII first
if asked.  The largest arrays are therefore one batch of input lanes
(1 MB of random plaintext) and one tile's ASCII symbols (2 MB), so
arbitrarily long files use a few megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitslice import (
    broadcast_columns,
    counter_lanes,
    random_lanes,
    unpack_words,
)
from .harness import _FULL_ENGINE, RngConfig, _batches, _draw_u64s
from .params import MasterKey

MODES = ("random_pt", "counter", "nonce_counter")
BLOCK_BITS = 128
#: Blocks encrypted per batch; each random-plaintext batch has its own substream.
NIST_BATCH_BLOCKS = 1 << 16


@dataclass(frozen=True)
class NistStreamReport:
    path: Path
    mode: str
    format: str
    n_bits: int
    ones_count: int
    monobit_sigma: float       # (ones - n/2) / sqrt(n/4)
    nonce: int | None


def generate_nist_bitstream(mode: str, n_bits: int, key: MasterKey,
                            out: str | Path, cfg: RngConfig = RngConfig(),
                            fmt: str = "ascii") -> NistStreamReport:
    """Write an `n_bits`-symbol stream of ciphertext bits to `out`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if fmt not in ("ascii", "binary"):
        raise ValueError(f"unknown format {fmt!r}")
    if n_bits < BLOCK_BITS or n_bits % BLOCK_BITS:
        raise ValueError("n_bits must be a positive multiple of 128")
    n_blocks = n_bits // BLOCK_BITS
    nonce = int(_draw_u64s(cfg.generator("nist_nonce"), 1)[0]) if mode == "nonce_counter" else None

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ones = 0
    with open(out, "wb") as fh:
        for batch_idx, done, m, words in _batches(n_blocks, NIST_BATCH_BLOCKS):
            if mode == "random_pt":
                lanes = random_lanes(cfg.generator("nist_pt", batch_idx), 128, words)
                L, R = lanes[:64], lanes[64:]
            else:
                R = counter_lanes(done, words, 64)
                high = 0 if mode == "counter" else nonce
                L = np.broadcast_to(broadcast_columns([high], 64)[0], (64, words))
            for cs, _, cL, cR in _FULL_ENGINE.tiles(L, R, key):
                n = min(m, 64 * cs.stop) - 64 * cs.start      # blocks of this tile
                # Big-endian (L, R) words: the bytes are the blocks bit 127 first.
                blocks = np.empty((n, 2), dtype=">u8")
                blocks[:, 0] = unpack_words(cL, n)
                blocks[:, 1] = unpack_words(cR, n)
                ones += int(np.bitwise_count(blocks.view(np.uint64)).sum())
                raw = blocks.view(np.uint8).reshape(-1)
                if fmt == "ascii":
                    raw = np.unpackbits(raw)
                    raw += ord("0")
                fh.write(raw)
    sigma = (ones - n_bits / 2) / (n_bits / 4) ** 0.5
    return NistStreamReport(out, mode, fmt, n_bits, ones, sigma, nonce)


def monobit_sigma_bound(n_bits: int, sigmas: float = 3.0) -> float:
    """Allowed deviation of the ones count from n/2 at `sigmas` sigma."""
    return sigmas * (n_bits / 4) ** 0.5
