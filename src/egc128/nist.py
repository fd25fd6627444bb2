"""Input bitstream generation for external statistical test suites.

Three plaintext regimes feed the fixed-key cipher:

* ``random_pt``     fresh uniform random 128-bit plaintexts;
* ``counter``       the block counter itself, X_i = E_K(i);
* ``nonce_counter`` a random 64-bit nonce in the high half and the
                    counter in the low half, X_i = E_K(nonce || i).

Ciphertext bits are emitted most-significant-first (block bit 127 down
to bit 0), either as ASCII '0'/'1' characters or packed binary.
Generation is streamed in bitsliced batches, so arbitrarily long files
use constant memory, and a run is a pure function of (mode, key, seed).
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
from .harness import _FULL_ENGINE, RngConfig, _batches, _draw_u64
from .params import MasterKey

MODES = ("random_pt", "counter", "nonce_counter")
BLOCK_BITS = 128


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
                            fmt: str = "ascii",
                            batch_blocks: int = 1 << 16) -> NistStreamReport:
    """Write an `n_bits`-symbol stream of ciphertext bits to `out`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if fmt not in ("ascii", "binary"):
        raise ValueError(f"unknown format {fmt!r}")
    if n_bits < BLOCK_BITS or n_bits % BLOCK_BITS:
        raise ValueError("n_bits must be a positive multiple of 128")
    n_blocks = n_bits // BLOCK_BITS
    nonce = _draw_u64(cfg.generator("nist_nonce")) if mode == "nonce_counter" else None

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ones = 0
    with open(out, "wb") as fh:
        for batch_idx, done, m, words in _batches(n_blocks, batch_blocks):
            if mode == "random_pt":
                rng = cfg.generator("nist_pt", batch_idx)
                L = random_lanes(rng, 64, words)
                R = random_lanes(rng, 64, words)
            else:
                R = counter_lanes(done, words, 64)
                high = 0 if mode == "counter" else nonce
                L = np.broadcast_to(broadcast_columns([high], 64)[0], (64, words))
            cL, cR = _FULL_ENGINE.encrypt(L, R, key)
            # Big-endian (L, R) words: the bytes are the blocks bit 127 first.
            blocks = np.empty((m, 2), dtype=">u8")
            blocks[:, 0] = unpack_words(cL, m)
            blocks[:, 1] = unpack_words(cR, m)
            raw = blocks.view(np.uint8).reshape(-1)
            ones += int(np.bitwise_count(raw).sum())
            fh.write(np.unpackbits(raw) + ord("0") if fmt == "ascii" else raw)
    sigma = (ones - n_bits / 2) / (n_bits / 4) ** 0.5
    return NistStreamReport(out, mode, fmt, n_bits, ones, sigma, nonce)


def monobit_sigma_bound(n_bits: int, sigmas: float = 3.0) -> float:
    """Allowed deviation of the ones count from n/2 at `sigmas` sigma."""
    return sigmas * (n_bits / 4) ** 0.5
