"""Bitsliced engine vs the scalar reference implementation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from egc128 import bitslice
from egc128.bitslice import (
    BitslicedCipher,
    broadcast_columns,
    counter_lanes,
    pack_words,
    random_lane_blocks,
    random_lanes,
    tail_mask,
    tile_words,
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


@pytest.mark.parametrize("width", (5, 16, 32, 64))
@pytest.mark.parametrize("start", (0, 64, 192, (1 << 32) - (1 << 22), 1 << 40, (1 << 64) - 192,
                                   # Starts off a 64-counter word are refused.
                                   5, 63, 64 * 3 + 17, (1 << 32) - 100, (1 << 40) + 1,
                                   (1 << 64) - 64 * 3 - 1))
def test_counter_lanes_match_definition(width, start):
    words = 3
    if start % 64:
        with pytest.raises(ValueError, match="multiple of 64"):
            counter_lanes(start, words, width)
        return
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
    # Lanes 16..31 of counter v hold v >> 16 and lanes 0..15 v & 0xFFFF.
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


def _encrypt_rounds(params, key, pt, rounds):
    """`pt` after the first `rounds` rounds of `params`' schedule, by the
    scalar cipher of that reduced instance; round 0 is `pt` itself."""
    if rounds == 0:
        return pt
    return Cipher(CipherParams(params.branch_width, params.offsets, rounds)).encrypt_block(key, pt)


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
    p = CipherParams(16, (-1, 1, 4))
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
            want = _encrypt_rounds(p, MasterKey(int(kh[j]), int(kl[j]), 16),
                                   Block(int(lw[j]), int(rw[j]), 16), rounds)
            assert (int(lo[j]), int(ro[j])) == (want.left, want.right)


@pytest.mark.parametrize("width", [4, 5, 8, 16, 64])
def test_batch_matches_scalar_past_round_20(width):
    # A 40-round schedule cycles through the 20 round constants twice;
    # per-sample keys read them directly, a fixed key through its schedule.
    # At widths 4 and 5 each of the 40 LFSR feedback rows reads the row
    # built just before it, and zero high key halves are common.
    p = CipherParams(width, rounds=40)
    scalar = Cipher(p)
    engine = BitslicedCipher(p)
    rng = np.random.default_rng(width)
    n = 64
    kh, kl = _random_batch(rng, n, width), _random_batch(rng, n, width)
    lw, rw = _random_batch(rng, n, width), _random_batch(rng, n, width)
    fixed = MasterKey(int(kh[0]), int(kl[0]), width)
    lanes = pack_words(lw, width), pack_words(rw, width)
    per_sample = engine.encrypt(*lanes, (pack_words(kh, width), pack_words(kl, width)))
    one_key = engine.encrypt(*lanes, fixed)
    for (L, R), keys in ((per_sample, zip(kh, kl)), (one_key, [(kh[0], kl[0])] * n)):
        lo, ro = unpack_words(L), unpack_words(R)
        for j, (h, k) in enumerate(keys):
            want = scalar.encrypt_block(MasterKey(int(h), int(k), width),
                                        Block(int(lw[j]), int(rw[j]), width))
            assert (int(lo[j]), int(ro[j])) == (want.left, want.right)


def test_scalar_key_mode_and_snapshots():
    p = CipherParams.full()
    engine = BitslicedCipher(p)
    key = MasterKey(0x0123456789ABCDEF, 0x0F1E2D3C4B5A6978)
    rng = np.random.default_rng(3)
    n = 64
    lw, rw = _random_batch(rng, n, 64), _random_batch(rng, n, 64)
    L, R = pack_words(lw, 64), pack_words(rw, 64)
    j = 17
    pt = Block(int(lw[j]), int(rw[j]))
    for r in range(21):
        lo, ro = (unpack_words(x) for x in engine.encrypt(L, R, key, rounds=r))
        want = _encrypt_rounds(p, key, pt, r)
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
    ones = int(np.bitwise_count(lanes).sum())
    assert 0 <= ones <= 16 * 8 * 64


def test_snapshot_rounds_outside_schedule_raise():
    engine = BitslicedCipher(CipherParams(16))
    L = np.zeros((16, 2), dtype=np.uint64)
    key = MasterKey(1, 2, 16)
    for rounds in ([21], [-1, 5], []):
        with pytest.raises(ValueError):
            next(engine.pair_differences(L, L, np.zeros((32, 1), np.uint64), key, rounds))


def test_empty_batch_raises():
    engine = BitslicedCipher(CipherParams.full())
    z = np.zeros((64, 0), np.uint64)
    with pytest.raises(ValueError, match="empty batch"):
        engine.encrypt(z, z, MasterKey(1, 2))
    with pytest.raises(ValueError, match="empty batch"):
        next(engine.pair_differences(z, z, np.zeros((128, 1), np.uint64), MasterKey(1, 2)))


def test_lane_shape_must_match_width():
    engine = BitslicedCipher(CipherParams(16))
    with pytest.raises(ValueError):
        engine.encrypt(np.zeros((8, 2), np.uint64), np.zeros((8, 2), np.uint64),
                       MasterKey(1, 2, 16))


@pytest.mark.parametrize("width, words", [(16, 1), (16, 65), (64, 3), (5, 7), (1, 7),
                                          (64, 32), (64, 157), (16, 65536)])
def test_random_lanes_is_the_generator_byte_stream(width, words):
    # Pins the draws of every sampled scan: the raw 64-bit outputs are the
    # byte stream and the uint32 stream that earlier releases drew, and a
    # numpy release that changes either fails here instead of silently
    # moving results.
    for seed in (0, 1, 2, 3, 4, 9):
        a, b, c = (np.random.default_rng(seed) for _ in range(3))
        got = random_lanes(a, width, words)
        by_bytes = np.frombuffer(b.bytes(8 * width * words), dtype=np.uint64)
        by_uint32 = c.integers(0, 1 << 32, 2 * width * words, dtype=np.uint32).view(np.uint64)
        assert got.dtype == np.uint64 and got.shape == (width, words)
        assert np.array_equal(got.reshape(-1), by_bytes)
        assert np.array_equal(got.reshape(-1), by_uint32)
        # The generators stay in step, with no buffered 32-bit half (the
        # stale `uinteger` of the others is unused while has_uint32 is 0).
        states = [g.bit_generator.state for g in (a, b, c)]
        assert states[0]["state"] == states[1]["state"] == states[2]["state"]
        assert [st["has_uint32"] for st in states] == [0, 0, 0]
        assert a.integers(0, 1 << 40, 8).tolist() == b.integers(0, 1 << 40, 8).tolist()


@settings(max_examples=80, deadline=None, database=None)
@given(width=st.integers(1, 64), words=st.integers(1, 300), block=st.integers(1, 400),
       seed=st.integers(0, 2**64 - 1), buffered=st.booleans())
@example(width=32, words=300, block=300, seed=0, buffered=False)
@example(width=1, words=1, block=1, seed=1, buffered=True)
def test_random_lane_blocks_match_random_lanes(width, words, block, seed, buffered):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:                               # leaves a buffered 32-bit half
        assert a.integers(0, 1 << 32, dtype=np.uint32) == b.integers(0, 1 << 32, dtype=np.uint32)
    want = random_lanes(a, width, words)
    blocks = [(cs, lanes.copy()) for cs, lanes in random_lane_blocks(b, width, words, block)]
    assert [cs.start for cs, _ in blocks] == list(range(0, words, block))
    assert all(lanes.shape == (width, cs.stop - cs.start) for cs, lanes in blocks)
    assert np.array_equal(np.concatenate([lanes for _, lanes in blocks], axis=1), want)
    if buffered:
        # A jump drops the buffered half, so only the PCG64 position agrees.
        assert b.bit_generator.state["state"] == a.bit_generator.state["state"]
    else:
        assert b.bit_generator.state == a.bit_generator.state
        assert b.integers(0, 1 << 32, 8, dtype=np.uint32).tolist() == \
            a.integers(0, 1 << 32, 8, dtype=np.uint32).tolist()


def test_tile_words_reads_tile_bytes_at_call_time():
    assert [tile_words(w) for w in (16, 64)] == [1024, 256]
    with mock.patch.object(bitslice, "_TILE_BYTES", 8 * 16 * 3):
        assert [tile_words(w) for w in (16, 32, 64)] == [3, 1, 1]


# --- property test: scalar Cipher == BitslicedCipher -------------------------------

@st.composite
def _instances(draw):
    width = draw(st.integers(4, 64))
    residues = draw(st.lists(st.integers(1, width - 1), min_size=3, max_size=3, unique=True))
    # Any representative of a residue names the same neighbour.
    offsets = tuple(k - width if draw(st.booleans()) else k for k in residues)
    schedule = draw(st.integers(1, 24))
    params = CipherParams(width, offsets, rounds=schedule)
    rounds = draw(st.integers(0, schedule))
    tile = tile_words(width)
    words = draw(st.sampled_from([1, 2, tile - 1, tile, tile + 1, 2 * tile + 5]) | st.integers(1, 40))
    snapshots = draw(st.none() | st.sets(st.integers(0, rounds), max_size=4))
    per_sample = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return params, words, rounds, snapshots, per_sample, seed


#: Shifts of one sign: all positive leave the padded tile no rows below the
#: lanes, all negative none above them, so one wrap copy is empty.
_NO_LOW_PADDING = (CipherParams(16, (1, 2, 3)), 3, 20, {0, 1, 20}, True, 7)
_NO_HIGH_PADDING = (CipherParams(16, (-1, -2, -3)), 3, 20, {2, 19}, False, 8)


def _sample(lanes: np.ndarray, j: int) -> int:
    bits = (lanes[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)
    return sum(int(b) << i for i, b in enumerate(bits))


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances())
@example(_NO_LOW_PADDING)
@example(_NO_HIGH_PADDING)
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
    engine = BitslicedCipher(params)
    got = {r: engine.encrypt(L, R, key, rounds=r) for r in snapshots or {rounds}}

    # Check the batch ends, both sides of the first tile boundary and a
    # few random samples.
    tile = tile_words(w)
    n = 64 * words
    edges = {0, n - 1, 64 * tile - 1, 64 * tile, 64 * tile + 63}
    columns = {j for j in edges if j < n} | {int(j) for j in rng.integers(0, n, 4)}
    for j in sorted(columns):
        k = MasterKey(_sample(KH, j), _sample(KL, j), w) if per_sample else key
        pt = Block(_sample(L, j), _sample(R, j), w)
        for r, (lo, ro) in got.items():
            want = _encrypt_rounds(params, k, pt, r)
            assert (_sample(lo, j), _sample(ro, j)) == (want.left, want.right), (j, r)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances())
@example((CipherParams(12, (-5, 1, 3)), 2, 0, None, False, 5))
@example(_NO_LOW_PADDING)
@example(_NO_HIGH_PADDING)
def test_f_core_matches_scalar(case):
    params, words, _, _, _, seed = case
    w = params.branch_width
    values = _random_batch(np.random.default_rng(seed), 64 * min(words, 4), w)
    values[:2] = 0, params.branch_mask
    got = unpack_words(BitslicedCipher(params).f_core(pack_words(values, w)))
    assert [int(v) for v in got] == [f_core(int(v), params) for v in values]


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


# --- property test: pair entry point == two encrypt calls XORed ------------------

def _two_call_pair(engine, L, R, delta, key, snapshots):
    """{r: pair difference} at each round r of `snapshots`, from two
    separate encryptions per round (the reference).  `delta` and the
    differences are (2w, .) lanes in block-bit order: R's rows, then L's."""
    w = len(L)
    want = {}
    for r in snapshots:
        b = engine.encrypt(L, R, key, rounds=r)
        q = engine.encrypt(L ^ delta[w:], R ^ delta[:w], key, rounds=r)
        want[r] = np.concatenate([b[1] ^ q[1], b[0] ^ q[0]])
    return want


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances(), st.integers(1, 30), st.integers(1, 4), st.booleans(), st.booleans())
# Ragged last tiles whose rounds end in each buffer: round 1 writes one,
# round 2 the other.
@example((CipherParams(16, rounds=4), 1, 3, {1, 2}, True, 3), 5, 2, False, False)
@example((CipherParams(8), 1, 2, None, False, 4), 7, 3, True, False)
@example((CipherParams(64, rounds=3), 1, 1, None, True, 5), 3, 2, True, False)
def test_pair_differences_match_two_encryptions(case, words, tile, lane_delta, full_schedule):
    params, _, rounds, snapshots, per_sample, seed = case
    w = params.branch_width
    if full_schedule:
        rounds = params.rounds
    snapshots = {0, rounds} | {min(r, rounds) for r in snapshots or ()}
    rng = np.random.default_rng(seed)
    L, R, KH, KL = (random_lanes(rng, w, words) for _ in range(4))
    if per_sample:
        KH[:, 0] = 0
        key = (KH, KL)
    else:
        key = MasterKey(*(int(v) for v in rng.integers(0, 1 << w, 2, dtype=np.uint64)), w)
    if lane_delta:
        delta = random_lanes(rng, 2 * w, words)
    else:
        d = int(rng.integers(1, 1 << w, dtype=np.uint64)) if w < 64 else 1 << 63
        delta = broadcast_columns([d, d >> 1], w).reshape(2 * w, 1)
    engine = BitslicedCipher(params)
    want = _two_call_pair(engine, L, R, delta, key, snapshots)
    given_inputs = [a.copy() for a in (L, R, KH, KL)]

    # A tile of `tile` words per lane array, so most batches span several
    # tiles and end on a ragged one.
    with mock.patch.object(bitslice, "_TILE_BYTES", 8 * w * tile):
        got = {}
        for cs, r, D in engine.pair_differences(L, R, delta, key, snapshots):
            got.setdefault(r, []).append((cs, D.copy()))
        final = [(cs, r, D.copy())
                 for cs, r, D in engine.pair_differences(L, R, delta, key, rounds)]
    assert set(got) == snapshots
    for r, tiles in got.items():
        stops = [cs.stop for cs, _ in tiles]
        assert [cs.start for cs, _ in tiles] == [0] + stops[:-1] and stops[-1] == words
        assert all(cs.stop - cs.start == tile for cs, _ in tiles[:-1])
        assert np.array_equal(np.concatenate([D for _, D in tiles], axis=1), want[r])
    assert {r for _, r, _ in final} == {rounds}
    for cs, _, D in final:
        assert np.array_equal(D, want[rounds][:, cs])
    assert all(np.array_equal(a, b) for a, b in zip((L, R, KH, KL), given_inputs))


def _piecewise(engine, L, R, key, rounds, cut):
    """encrypt of the columns before `cut` and of those from it, each one
    call of at most one tile, joined again; `key` as for encrypt."""
    parts = []
    for cs in (slice(0, cut), slice(cut, L.shape[1])):
        k = key if isinstance(key, MasterKey) else tuple(K[:, cs] for K in key)
        parts.append(engine.encrypt(L[:, cs], R[:, cs], k, rounds=rounds))
    return tuple(np.concatenate(halves, axis=1) for halves in zip(*parts))


@pytest.mark.parametrize("tile", (None, 3))
@pytest.mark.parametrize("per_sample", (False, True))
@pytest.mark.parametrize("params", (CipherParams.full(), CipherParams(16, rounds=4)),
                         ids=("w64", "w16"))
def test_narrow_last_tile_rebinds_round_views(params, per_sample, tile):
    # tile_words(w) + 1 words: one full tile, then a tile of one word whose
    # round views must be bound again, in both buffers.  The reference
    # runs the two pieces as separate calls of one tile each.
    w = params.branch_width
    with mock.patch.object(bitslice, "_TILE_BYTES", 8 * w * (tile or tile_words(w))):
        T = tile_words(w)
        rng = np.random.default_rng(T + w)
        L, R, KH, KL = (random_lanes(rng, w, T + 1) for _ in range(4))
        KH[:, T] = 0                              # the last word takes the zero escape
        key = (KH, KL) if per_sample else MasterKey(0x1234 & params.branch_mask, 0x77, w)
        delta = random_lanes(rng, 2 * w, T + 1)
        engine = BitslicedCipher(params)
        for rounds in (1, 2, 3, 4, {1, 2, 3}):
            snapshots = {rounds} if isinstance(rounds, int) else rounds
            want = {}
            for r in snapshots:
                b = _piecewise(engine, L, R, key, r, T)
                q = _piecewise(engine, L ^ delta[w:], R ^ delta[:w], key, r, T)
                want[r] = np.concatenate([b[1] ^ q[1], b[0] ^ q[0]])
                assert all(np.array_equal(g, x)
                           for g, x in zip(engine.encrypt(L, R, key, rounds=r), b)), r
            got = {}
            for cs, r, D in engine.pair_differences(L, R, delta, key, rounds):
                got.setdefault(r, []).append((cs, D.copy()))
            assert set(got) == snapshots
            for r, tiles in got.items():
                assert [cs.stop - cs.start for cs, _ in tiles] == [T, 1]
                assert np.array_equal(np.concatenate([D for _, D in tiles], axis=1), want[r])


@pytest.mark.parametrize("b", (0, 63, 64, 100, 127))
def test_pair_differences_are_in_block_bit_order(b):
    # A one-hot difference at block bit b is row b of the difference at
    # round 0.  At round 3, sample j's column read as a 128-bit integer is
    # E(P) xor E(P xor 2^b) of the scalar cipher, in Block.to_int order.
    p = CipherParams.full()
    rng = np.random.default_rng(b)
    L, R = random_lanes(rng, 64, 2), random_lanes(rng, 64, 2)
    key = MasterKey(0x0123456789ABCDEF, 0xFEDCBA9876543210)
    delta = np.zeros((128, 1), dtype=np.uint64)
    delta[b] = ~np.uint64(0)
    pairs = BitslicedCipher(p).pair_differences(L, R, delta, key, (0, 3))
    got = {r: D.copy() for _, r, D in pairs}
    assert np.flatnonzero(got[0].any(axis=1)).tolist() == [b]
    assert (got[0][b] == ~np.uint64(0)).all()
    flip = Block.from_int(1 << b)
    for j in (0, 77, 127):
        pt = Block(_sample(L, j), _sample(R, j))
        want = _encrypt_rounds(p, key, pt, 3) ^ _encrypt_rounds(p, key, pt ^ flip, 3)
        assert _sample(got[3], j) == want.to_int()
