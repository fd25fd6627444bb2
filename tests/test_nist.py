"""Bitstream generation: formats, bit order, determinism."""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from egc128 import nist
from egc128.bitslice import random_lanes, tile_words, unpack_words
from egc128.cipher import EGC128
from egc128.harness import RngConfig
from egc128.nist import generate_nist_bitstream, monobit_sigma_bound
from egc128.params import Block, MasterKey

KEY = MasterKey.from_hex("000102030405060708090a0b0c0d0e0f")
CFG = RngConfig(99)


def _expected_counter_bits(key, n_blocks, start=0):
    c = EGC128
    out = []
    for i in range(start, start + n_blocks):
        ct = c.encrypt_block(key, Block.from_int(i))
        v = ct.to_int()
        out.append(f"{v:0128b}")
    return "".join(out)


def test_counter_mode_matches_scalar_cipher(tmp_path):
    path = tmp_path / "ctr.txt"
    rep = generate_nist_bitstream("counter", 128 * 5, KEY, path, CFG)
    assert path.read_text() == _expected_counter_bits(KEY, 5)
    assert rep.ones_count == _expected_counter_bits(KEY, 5).count("1")


def test_single_block_stream(tmp_path):
    path = tmp_path / "one.txt"
    rep = generate_nist_bitstream("counter", 128, KEY, path, CFG)
    assert rep.n_bits == 128
    assert len(path.read_text()) == 128


def test_counter_mode_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    generate_nist_bitstream("counter", 128 * 64, KEY, a, CFG)
    generate_nist_bitstream("counter", 128 * 64, KEY, b, CFG)
    assert a.read_bytes() == b.read_bytes()


def test_random_pt_mode_deterministic_per_seed(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    generate_nist_bitstream("random_pt", 128 * 32, KEY, a, RngConfig(1))
    generate_nist_bitstream("random_pt", 128 * 32, KEY, b, RngConfig(1))
    generate_nist_bitstream("random_pt", 128 * 32, KEY, c, RngConfig(2))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_ascii_alphabet_and_binary_packing(tmp_path):
    at = tmp_path / "a.txt"
    bt = tmp_path / "b.bin"
    generate_nist_bitstream("counter", 128 * 8, KEY, at, CFG)
    generate_nist_bitstream("counter", 128 * 8, KEY, bt, CFG, fmt="binary")
    text = at.read_text()
    assert set(text) <= {"0", "1"}
    raw = bt.read_bytes()
    assert len(raw) == 128 * 8 // 8
    unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="big")
    assert "".join(str(b) for b in unpacked) == text


def test_nonce_counter_mode(tmp_path):
    path = tmp_path / "n.txt"
    rep = generate_nist_bitstream("nonce_counter", 128 * 4, KEY, path, CFG)
    assert rep.nonce is not None
    c = EGC128
    expected = ""
    for i in range(4):
        ct = c.encrypt_block(KEY, Block(rep.nonce, i))
        expected += f"{ct.to_int():0128b}"
    assert path.read_text() == expected


def test_monobit_on_moderate_stream(tmp_path):
    path = tmp_path / "m.txt"
    n = 128 * 8192          # about a million bits
    rep = generate_nist_bitstream("random_pt", n, KEY, path, CFG)
    assert abs(rep.ones_count - n / 2) < monobit_sigma_bound(n, 5)


def test_batching_is_invisible(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    with mock.patch.object(nist, "NIST_BATCH_BLOCKS", 64):
        generate_nist_bitstream("counter", 128 * 300, KEY, a, CFG)
    with mock.patch.object(nist, "NIST_BATCH_BLOCKS", 256):
        generate_nist_bitstream("counter", 128 * 300, KEY, b, CFG)
    assert a.read_bytes() == b.read_bytes()


def _file_bits(path, fmt) -> np.ndarray:
    raw = np.frombuffer(path.read_bytes(), np.uint8)
    return raw - ord("0") if fmt == "ascii" else np.unpackbits(raw)


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
@pytest.mark.parametrize("mode", ["counter", "nonce_counter"])
def test_counter_streams_across_batches_match_scalar(tmp_path, mode, fmt):
    # 130 blocks in batches of 64: three batches, the last a partial word.
    path = tmp_path / "s"
    with mock.patch.object(nist, "NIST_BATCH_BLOCKS", 64):
        rep = generate_nist_bitstream(mode, 128 * 130, KEY, path, CFG, fmt=fmt)
    c = EGC128
    high = rep.nonce if mode == "nonce_counter" else 0
    want = "".join(f"{c.encrypt_block(KEY, Block(high, i)).to_int():0128b}"
                   for i in range(130))
    bits = _file_bits(path, fmt)
    assert "".join(map(str, bits)) == want
    assert rep.ones_count == int(bits.sum())


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
@pytest.mark.parametrize("mode", nist.MODES)
def test_streams_across_tiles_match_scalar(tmp_path, mode, fmt):
    # Batches of 20,032 blocks (counter batches start on a multiple of 64):
    # one full engine tile of 16,384 blocks and a partial one, which in the
    # second batch ends inside a word.  Random plaintexts are redrawn from
    # each batch's substream, L lanes then R lanes.
    batch, tile = 20_032, 64 * tile_words(64)
    counts = (batch, batch - 32)
    path = tmp_path / "s"
    with mock.patch.object(nist, "NIST_BATCH_BLOCKS", batch):
        rep = generate_nist_bitstream(mode, 128 * sum(counts), KEY, path, CFG, fmt=fmt)
    bits = _file_bits(path, fmt)
    assert rep.ones_count == int(bits.sum())
    blocks = bits.reshape(-1, 128)
    c = EGC128
    for b, count in enumerate(counts):
        if mode == "random_pt":
            rng = CFG.generator("nist_pt", b)
            L = unpack_words(random_lanes(rng, 64, -(-count // 64)))
            R = unpack_words(random_lanes(rng, 64, -(-count // 64)))
        for i in (*range(0, count, 997), tile - 1, tile, count - 1):
            if mode == "random_pt":
                pt = Block(int(L[i]), int(R[i]))
            else:
                pt = Block(rep.nonce if mode == "nonce_counter" else 0, b * batch + i)
            want = f"{c.encrypt_block(KEY, pt).to_int():0128b}"
            assert "".join(map(str, blocks[b * batch + i])) == want, (b, i)


def test_stream_memory_is_one_tile():
    # 2^17 random-plaintext blocks in ASCII, two batches: a batch-size
    # ciphertext array and its 8 MB of symbols would take the peak to 13 MB.
    tracemalloc.start()
    try:
        generate_nist_bitstream("random_pt", 128 << 17, KEY, os.devnull, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_random_pt_binary_is_packed_ascii(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.bin"
    with mock.patch.object(nist, "NIST_BATCH_BLOCKS", 64):
        ra = generate_nist_bitstream("random_pt", 128 * 130, KEY, a, CFG)
        rb = generate_nist_bitstream("random_pt", 128 * 130, KEY, b, CFG, fmt="binary")
    bits = _file_bits(a, "ascii")
    assert b.read_bytes() == np.packbits(bits).tobytes()
    assert ra.ones_count == rb.ones_count == int(bits.sum())


def test_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        generate_nist_bitstream("counter", 100, KEY, tmp_path / "x", CFG)
    with pytest.raises(ValueError):
        generate_nist_bitstream("bogus", 128, KEY, tmp_path / "x", CFG)
    with pytest.raises(ValueError):
        generate_nist_bitstream("counter", 128, KEY, tmp_path / "x", CFG, fmt="hex")
