"""Bitsliced engine vs the scalar reference implementation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from egc128 import bitslice
from egc128.bitslice import (
    BitslicedCipher,
    counter_lanes,
    pack_words,
    popcount_lanes,
    random_lanes,
    tail_mask,
    unpack_words,
)
from egc128.cipher import Cipher, f_core
from egc128.harness import _fcore_table
from egc128.params import Block, CipherParams, MasterKey


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    vals = np.frombuffer(rng.bytes(8 * 256), dtype=np.uint64).copy()
    assert (unpack_words(pack_words(vals, 64)) == vals).all()
    small = vals & np.uint64(0xFFFF)
    assert (unpack_words(pack_words(small, 16)) == small).all()


@settings(max_examples=60, deadline=None, database=None)
@given(width=st.integers(1, 64), words=st.just(1) | st.integers(1, 70),
       count=st.integers(0, 64 * 70), seed=st.integers(0, 2**32 - 1))
@example(width=64, words=1, count=64, seed=0)
@example(width=1, words=1, count=3, seed=1)
def test_lane_layout_matches_definition(width, words, count, seed):
    # Values keep their bits above `width`, which packing must ignore.
    rng = np.random.default_rng(seed)
    values = np.frombuffer(rng.bytes(8 * 64 * words), dtype=np.uint64).copy()
    given_values = values.copy()
    lanes = pack_words(values, width)
    assert np.array_equal(values, given_values)
    assert lanes.dtype == np.uint64 and lanes.shape == (width, words)
    # Lane b, word w, bit j is bit b of sample 64w + j.
    want = [[0] * words for _ in range(width)]
    for i, v in enumerate(int(x) for x in values):
        w, j = divmod(i, 64)
        for b in range(width):
            want[b][w] |= (v >> b & 1) << j
    assert [[int(x) for x in row] for row in lanes] == want

    given_lanes = lanes.copy()
    count = min(count, 64 * words)
    low = values[:count] & np.uint64((1 << width) - 1)
    assert np.array_equal(unpack_words(lanes, count), low)
    assert np.array_equal(lanes, given_lanes)


@pytest.mark.parametrize("width", (16, 32, 64))
@pytest.mark.parametrize("start", (0, 5, 64 * 3 + 17, (1 << 32) - 100, (1 << 40) + 1))
def test_counter_lanes_match_definition(width, start):
    words = 3
    lanes = counter_lanes(start, words, width)
    assert lanes.dtype == np.uint64 and lanes.shape == (width, words)
    # Lane b, word w, bit j is bit b of counter start + 64w + j.
    want = [[0] * words for _ in range(width)]
    for i in range(64 * words):
        w, j = divmod(i, 64)
        for b in range(width):
            want[b][w] |= ((start + i) >> b & 1) << j
    assert [[int(x) for x in row] for row in lanes] == want


@pytest.mark.parametrize("start", (0, 1 << 22, (1 << 32) - (1 << 22)))
def test_counter_lanes_split_into_zero_scan_halves(start):
    # The exhaustive zero scan reads plaintext v as L = v >> 16, R = v & 0xFFFF.
    words = 1 << 16
    C = counter_lanes(start, words, 32)
    v = np.arange(start, start + 64 * words, dtype=np.uint64)
    half = np.uint64(0xFFFF)
    assert np.array_equal(C[16:], pack_words(v >> np.uint64(16) & half, 16))
    assert np.array_equal(C[:16], pack_words(v & half, 16))


def test_pack_unpack_reject_bad_shapes():
    values = np.arange(128, dtype=np.uint64)
    for width in (0, 65, -1):
        with pytest.raises(ValueError, match="width"):
            pack_words(values, width)
    with pytest.raises(ValueError, match="1-D"):
        pack_words(values.reshape(2, 64), 16)
    with pytest.raises(ValueError, match="multiple of 64"):
        pack_words(values[:100], 16)
    with pytest.raises(ValueError, match="64-bit"):
        unpack_words(np.zeros((70, 2), dtype=np.uint64))


def test_tail_mask_counts():
    m = tail_mask(70, 2)
    assert m[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert m[1] == np.uint64((1 << 6) - 1)


def _random_batch(rng, n, width):
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    return (np.frombuffer(rng.bytes(8 * n), dtype=np.uint64) & mask).copy()


def test_batch_matches_scalar_full_width():
    p = CipherParams.full()
    scalar = Cipher(p)
    engine = BitslicedCipher(p)
    rng = np.random.default_rng(1)
    n = 256
    kh, kl = _random_batch(rng, n, 64), _random_batch(rng, n, 64)
    lw, rw = _random_batch(rng, n, 64), _random_batch(rng, n, 64)
    L, R = engine.encrypt(pack_words(lw, 64), pack_words(rw, 64),
                          (pack_words(kh, 64), pack_words(kl, 64)))
    lo, ro = unpack_words(L), unpack_words(R)
    for j in range(n):
        want = scalar.encrypt_block(MasterKey(int(kh[j]), int(kl[j])),
                                    Block(int(lw[j]), int(rw[j])))
        assert (int(lo[j]), int(ro[j])) == (want.left, want.right)


def test_batch_matches_scalar_reduced_and_rounds():
    p = CipherParams.reduced(16, (-1, 1, 4))
    scalar = Cipher(p)
    engine = BitslicedCipher(p)
    rng = np.random.default_rng(2)
    n = 128
    kh, kl = _random_batch(rng, n, 16), _random_batch(rng, n, 16)
    lw, rw = _random_batch(rng, n, 16), _random_batch(rng, n, 16)
    for rounds in (2, 3, 20):
        L, R = engine.encrypt(pack_words(lw, 16), pack_words(rw, 16),
                              (pack_words(kh, 16), pack_words(kl, 16)),
                              rounds=rounds)
        lo, ro = unpack_words(L), unpack_words(R)
        for j in range(0, n, 7):
            want = scalar.encrypt_block(MasterKey(int(kh[j]), int(kl[j]), 16),
                                        Block(int(lw[j]), int(rw[j]), 16),
                                        rounds=rounds)
            assert (int(lo[j]), int(ro[j])) == (want.left, want.right)


def test_scalar_key_mode_and_snapshots():
    p = CipherParams.full()
    scalar = Cipher(p)
    engine = BitslicedCipher(p)
    key = MasterKey(0x0123456789ABCDEF, 0x0F1E2D3C4B5A6978)
    rng = np.random.default_rng(3)
    n = 64
    lw, rw = _random_batch(rng, n, 64), _random_batch(rng, n, 64)
    snaps = engine.encrypt(pack_words(lw, 64), pack_words(rw, 64), key,
                           snapshot_rounds=range(21))
    j = 17
    pt = Block(int(lw[j]), int(rw[j]))
    for r in range(21):
        lo = unpack_words(snaps[r][0])
        ro = unpack_words(snaps[r][1])
        want = scalar.encrypt_block(key, pt, rounds=r)
        assert (int(lo[j]), int(ro[j])) == (want.left, want.right)


def test_zero_escape_in_lanes():
    # Samples with an all-zero high key half must behave like the scalar
    # zero-escape path.
    p = CipherParams.full()
    scalar = Cipher(p)
    engine = BitslicedCipher(p)
    kh = np.zeros(64, dtype=np.uint64)
    kh[1] = np.uint64(5)
    kl = np.arange(64, dtype=np.uint64)
    lw = np.zeros(64, dtype=np.uint64)
    rw = np.arange(64, dtype=np.uint64)
    L, R = engine.encrypt(pack_words(lw, 64), pack_words(rw, 64),
                          (pack_words(kh, 64), pack_words(kl, 64)))
    lo, ro = unpack_words(L), unpack_words(R)
    for j in (0, 1, 2):
        want = scalar.encrypt_block(MasterKey(int(kh[j]), int(kl[j])),
                                    Block(0, int(rw[j])))
        assert (int(lo[j]), int(ro[j])) == (want.left, want.right)


def test_popcount_and_random_lanes_shapes():
    rng = np.random.default_rng(4)
    lanes = random_lanes(rng, 16, 8)
    assert lanes.shape == (16, 8)
    ones = popcount_lanes(lanes)
    assert 0 <= ones <= 16 * 8 * 64


def test_snapshot_rounds_outside_schedule_raise():
    engine = BitslicedCipher(CipherParams.reduced(16))
    L = np.zeros((16, 2), dtype=np.uint64)
    key = MasterKey(1, 2, 16)
    for rounds, snaps in ((None, [21]), (None, [-1, 5]), (3, [0, 4])):
        with pytest.raises(ValueError, match="snapshot rounds"):
            engine.encrypt(L, L, key, rounds=rounds, snapshot_rounds=snaps)


def test_lane_shape_must_match_width():
    engine = BitslicedCipher(CipherParams.reduced(16))
    with pytest.raises(ValueError):
        engine.encrypt(np.zeros((8, 2), np.uint64), np.zeros((8, 2), np.uint64),
                       MasterKey(1, 2, 16))


@pytest.mark.parametrize("width, words", [(16, 1), (16, 65), (64, 3), (5, 7), (16, 65536)])
def test_random_lanes_is_the_generator_byte_stream(width, words):
    # Pins the seed-0 draws of every sampled scan: a numpy release that
    # changes the stream fails here instead of silently moving results.
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    got = random_lanes(a, width, words)
    want = np.frombuffer(b.bytes(8 * width * words), dtype=np.uint64)
    assert got.dtype == np.uint64 and got.shape == (width, words)
    assert np.array_equal(got.reshape(-1), want)
    assert a.bytes(16) == b.bytes(16)        # the generators stay in step


def test_f_core_matches_scalar():
    p = CipherParams.reduced(12, (-5, 1, 3))
    rng = np.random.default_rng(5)
    values = _random_batch(rng, 128, 12)
    got = unpack_words(BitslicedCipher(p).f_core(pack_words(values, 12)))
    assert [int(v) for v in got] == [f_core(int(v), p) for v in values]


# --- property test: scalar Cipher == BitslicedCipher -------------------------------

@st.composite
def _instances(draw):
    width = draw(st.integers(4, 64))
    residues = draw(st.lists(st.integers(1, width - 1), min_size=3, max_size=3, unique=True))
    # Any representative of a residue names the same neighbour.
    offsets = tuple(k - width if draw(st.booleans()) else k for k in residues)
    schedule = draw(st.integers(1, 24))
    params = CipherParams.reduced(width, offsets, rounds=schedule)
    rounds = draw(st.integers(0, schedule))
    tile = max(1, bitslice._TILE_BYTES // (8 * width))
    words = draw(st.sampled_from([1, 2, tile - 1, tile, tile + 1, 2 * tile + 5]) | st.integers(1, 40))
    snapshots = draw(st.none() | st.sets(st.integers(0, rounds), max_size=4))
    per_sample = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return params, words, rounds, snapshots, per_sample, seed


def _sample(lanes: np.ndarray, j: int) -> int:
    bits = (lanes[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)
    return sum(int(b) << i for i, b in enumerate(bits))


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances())
def test_bitsliced_matches_scalar_property(case):
    params, words, rounds, snapshots, per_sample, seed = case
    w = params.branch_width
    rng = np.random.default_rng(seed)
    L, R, KH, KL = (random_lanes(rng, w, words) for _ in range(4))
    if per_sample:
        KH[:, 0] = 0                       # samples 0..63 take the zero-escape path
        key = (KH, KL)
    else:
        key = MasterKey(*(int(v) for v in rng.integers(0, 1 << w, 2, dtype=np.uint64)), w)
    result = BitslicedCipher(params).encrypt(L, R, key, rounds=rounds,
                                             snapshot_rounds=snapshots)

    got = {rounds: result} if snapshots is None else result
    assert set(got) == ({rounds} if snapshots is None else snapshots)

    # Check the batch ends, both sides of the first tile boundary and a
    # few random samples.
    tile = max(1, bitslice._TILE_BYTES // (8 * w))
    n = 64 * words
    edges = {0, n - 1, 64 * tile - 1, 64 * tile, 64 * tile + 63}
    columns = {j for j in edges if j < n} | {int(j) for j in rng.integers(0, n, 4)}
    scalar = Cipher(params)
    for j in sorted(columns):
        k = MasterKey(_sample(KH, j), _sample(KL, j), w) if per_sample else key
        pt = Block(_sample(L, j), _sample(R, j), w)
        for r, (lo, ro) in got.items():
            want = scalar.encrypt_block(k, pt, rounds=r)
            assert (_sample(lo, j), _sample(ro, j)) == (want.left, want.right), (j, r)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances())
def test_word_array_f_core_matches_scalar_property(case):
    params, _, _, _, _, seed = case
    w = params.branch_width
    values = np.random.default_rng(seed).integers(0, 1 << w, 256, dtype=np.uint64)
    values[:2] = 0, params.branch_mask
    want = [f_core(int(v), params) for v in values]
    for dtype in (np.uint64, np.uint32) if w <= 32 else (np.uint64,):
        got = f_core(values.astype(dtype), params)
        assert got.dtype == dtype
        assert [int(v) for v in got] == want
    if w <= 12:
        # Every branch value against the per-vertex truth-table route.
        every = f_core(np.arange(1 << w, dtype=np.uint32), params)
        assert np.array_equal(every, _fcore_table(params))
