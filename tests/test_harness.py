"""Statistical harness: determinism, self-checks, cross-validation.

Full-size runs at the reference sample counts live in the acceptance
suite; these tests use smaller batches."""

import dataclasses
import functools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from egc128 import bitslice
from egc128.bitslice import (
    BitslicedCipher,
    broadcast_columns,
    lanes_to_bits,
    pack_words,
    random_lanes,
    unpack_words,
)
from egc128.cipher import Cipher, derive_round_keys, f_core
from egc128 import harness
from egc128.harness import (
    REDUCED_SCAN_PARAMS,
    SUBSPACE_MAX_POINTS,
    CoverageReport,
    DpReport,
    RngConfig,
    SacReport,
    _saturating_count,
    avalanche_profile,
    bic_correlations,
    empirical_max_dp,
    exact_single_bit_output_count,
    invariant_subspace_search,
    reduced_zero_diff_scan,
    related_key_scan,
    round_key_difference,
    sac_matrix,
    standard_zero_diff_combos,
    truncated_coverage_scan,
    zero_diff_scan_all,
)
from egc128.cipher import lfsr_step
from egc128.params import Block, CipherParams, MasterKey
from test_bitslice import _sample, _two_call_pair

CFG = RngConfig(12345)
FULL_ENGINE = BitslicedCipher(CipherParams.full())
ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def test_rng_substreams_are_stable():
    a = RngConfig(7).generator("x", 1).integers(0, 1 << 30, 4)
    b = RngConfig(7).generator("x", 1).integers(0, 1 << 30, 4)
    c = RngConfig(7).generator("x", 2).integers(0, 1 << 30, 4)
    assert (a == b).all()
    assert (a != c).any()


# --- avalanche ---------------------------------------------------------------

def test_avalanche_round0_exact_and_monotone_tail():
    rep = avalanche_profile(8, 20, CFG)
    assert rep.mean_hd[0] == 1.0
    assert all(0.0 <= f <= 1.0 for f in rep.fraction)
    assert rep.mean_hd[20] > rep.mean_hd[10] > rep.mean_hd[3]


def test_avalanche_nondecreasing_within_noise():
    # The expected per-round mean grows monotonically; allow a few
    # sigma of sampling slack per step (std of a mean over ~2000
    # samples of a spread-out Hamming distance is well under 0.5).
    rep = avalanche_profile(16, 20, CFG)
    for a, b in zip(rep.mean_hd, rep.mean_hd[1:]):
        assert b >= a - 0.5


def test_avalanche_deterministic():
    assert avalanche_profile(4, 10, CFG) == avalanche_profile(4, 10, CFG)


@pytest.mark.parametrize("rounds", (0, 7, 20))
@pytest.mark.parametrize("pairs", (1, 5, 64))
def test_avalanche_matches_snapshot_sums(pairs, rounds):
    # The in-tile per-round popcounts against full-size snapshots of two
    # encryptions, summed per round.
    base, key = harness._random_pairs(CFG.generator("avalanche", pairs, rounds), pairs, 128)
    delta = harness._bit_lanes(np.tile(np.arange(128), pairs))
    snaps = _two_call_pair(FULL_ENGINE, *base, delta, key, range(rounds + 1))
    n = 128 * pairs
    means = tuple(int(np.bitwise_count(snaps[r]).sum()) / n for r in range(rounds + 1))
    want = harness.AvalancheReport(pairs, n, means, tuple(m / 128 for m in means))
    assert avalanche_profile(pairs, rounds, CFG) == want


@pytest.mark.parametrize("repeat", (1, 128))
@pytest.mark.parametrize("n", (64, 5056, 8000))
def test_random_pairs_pack_once(n, repeat):
    # One pack_words call over the four drawn rows side by side gives what
    # one call per row gave: pack_words(np.repeat(row, repeat), 64) for
    # the rows (key high, key low, left, right) of random_lanes(rng, 4, n).
    a, b = (CFG.generator("pairs", n, repeat) for _ in range(2))
    (L, R), (KH, KL) = harness._random_pairs(a, n, repeat)
    want = [pack_words(np.repeat(row, repeat), 64) for row in random_lanes(b, 4, n)]
    for got, ref in zip((KH, KL, L, R), want):
        assert got.shape == ref.shape == (64, n * repeat // 64)
        assert np.array_equal(got, ref)
    assert a.bit_generator.state == b.bit_generator.state


def test_bit_lanes_are_one_hot_block_bits():
    # Sample j's column, read as a 128-bit integer in block-bit order, is 2^bitpos[j].
    bitpos = np.random.default_rng(8).integers(0, 128, 192)
    bitpos[:3] = 0, 64, 127
    lanes = harness._bit_lanes(bitpos)
    assert lanes.shape == (128, 3)
    assert [_sample(lanes, j) for j in range(192)] == [1 << int(b) for b in bitpos]


def test_avalanche_validates_args():
    with pytest.raises(ValueError):
        avalanche_profile(0, 20, CFG)
    for rounds in (-1, 21):
        with pytest.raises(ValueError, match=rf"rounds {rounds} outside 0\.\.20"):
            avalanche_profile(2, rounds, CFG)


# --- SAC ----------------------------------------------------------------------

def test_sac_shape_and_range():
    rep = sac_matrix(128, CFG)
    assert rep.matrix.shape == (128, 128)
    assert 0.0 <= rep.minimum <= rep.maximum <= 1.0
    assert abs(rep.mean - 0.49) < 0.02
    assert len(rep.per_input_bit_means) == 128


def test_sac_thread_count_does_not_change_result():
    a = sac_matrix(128, CFG, threads=1)
    b = sac_matrix(128, CFG, threads=4)
    assert (a.matrix == b.matrix).all()
    assert a.mean == b.mean


def test_sac_agrees_with_avalanche():
    # mean flip probability x 128 ~ final-round mean Hamming distance
    sac = sac_matrix(256, CFG)
    av = avalanche_profile(16, 20, CFG)
    assert abs(sac.mean * 128 - av.mean_hd[20]) < 1.5


@functools.cache
def _sac_reference(n):
    """SacReport of `n` samples per bit from two encryptions per input bit,
    each bit on its own substream, and masked per-output-bit popcounts."""
    words = (n + 63) // 64
    valid = np.zeros(64 * words, dtype=bool)
    valid[:n] = True
    mask = np.packbits(valid, bitorder="little").view(np.uint64)
    counts = np.empty((128, 128), dtype=np.int64)
    for i in range(128):
        KH, KL, L, R = (random_lanes(CFG.generator("sac", n, i), 256, words)
                        .reshape(4, 64, words))
        delta = np.zeros((128, 1), dtype=np.uint64)
        delta[i] = ONES
        D = _two_call_pair(FULL_ENGINE, L, R, delta, (KH, KL), [20])[20]
        counts[i] = np.bitwise_count(D & mask).sum(axis=1)
    P = counts / n
    per_input = P.mean(axis=1)
    return SacReport(n, P, float(P.mean()), float(P.std()), float(P.min()), float(P.max()),
                     float(((P >= 0.45) & (P <= 0.55)).mean()),
                     float(((P >= 0.40) & (P <= 0.60)).mean()),
                     tuple(float(v) for v in per_input), float(per_input.std()))


def _assert_same_sac(got, want):
    assert got.matrix.tobytes() == want.matrix.tobytes()
    for field in dataclasses.fields(SacReport):
        if field.name != "matrix":
            assert getattr(got, field.name) == getattr(want, field.name), field.name


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("n", (100, 128, 2000, 2049, 20000))
def test_sac_matches_per_bit_reference(n, threads):
    # 20,000 samples: one bit spans two engine tiles; the float fields
    # must agree to the last bit.
    _assert_same_sac(sac_matrix(n, CFG, threads), _sac_reference(n))


@pytest.mark.parametrize("n", (100, 2049))
def test_sac_units_split_across_tiles(n):
    # 5-word engine tiles under 7-bit units: tile boundaries fall inside
    # bits and between them, and the last unit is short (128 = 18 * 7 + 2).
    with mock.patch.object(bitslice, "_TILE_BYTES", 8 * 64 * 5), \
            mock.patch.object(harness, "_sac_group", lambda words: 7):
        got = sac_matrix(n, CFG, threads=2)
    _assert_same_sac(got, _sac_reference(n))


@pytest.mark.parametrize("words", (1, 32, 125))
def test_sac_draw_is_four_lane_draws(words):
    # Each SAC input bit draws (KH, KL, L, R) with one 256-lane call: the
    # same raw words, in the same order, as four 64-lane calls, and the
    # generator ends in the same state.
    a, b = (CFG.generator("sac", 64 * words, 3) for _ in range(2))
    one = random_lanes(a, 256, words)
    four = [random_lanes(b, 64, words) for _ in range(4)]
    assert np.array_equal(one, np.concatenate(four))
    assert a.bit_generator.state == b.bit_generator.state


def test_sac_validates_args():
    with pytest.raises(ValueError):
        sac_matrix(50, CFG)


# --- BIC -----------------------------------------------------------------------

def test_bic_small_run():
    rep = bic_correlations(1500, CFG)
    assert rep.max_abs_correlation < 0.2
    assert 0.0 <= rep.mean_abs_correlation < 0.05
    assert 0.0 <= rep.fraction_above_0p05 <= 1.0


def test_bic_deterministic():
    assert bic_correlations(1000, CFG) == bic_correlations(1000, CFG)


def test_bic_holds_one_float_matrix():
    # 5,000 samples: the centred (5000, 128) float64 matrix is 4.9 MB, and
    # a second one for the column deviations would take the peak to 10.7 MB.
    tracemalloc.start()
    try:
        bic_correlations(5000, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20


# --- empirical DP ----------------------------------------------------------------

def test_empirical_dp_zero_rounds_identity():
    delta = Block.from_int(1)
    rep = empirical_max_dp(delta, 0, 512, CFG)
    assert rep.max_count == 512
    assert rep.weight_bits == 0.0 and math.copysign(1.0, rep.weight_bits) == 1.0  # not -0.0
    assert rep.distinct_output_diffs == 1


@pytest.mark.parametrize("rounds", (3, 0))
@pytest.mark.parametrize("samples", (1, 65, 512))
def test_empirical_dp_matches_counter(samples, rounds):
    delta = Block(0x80, 0x1)
    rng = CFG.generator("empirical_dp", delta.to_int(), rounds, samples)
    base, key = harness._random_pairs(rng, (samples + 63) // 64 * 64)
    # The difference column in block-bit order, bit by bit from Block.to_int.
    column = np.array([ONES * (delta.to_int() >> b & 1) for b in range(128)])[:, None]
    D = _two_call_pair(FULL_ENGINE, *base, column, key, [rounds])[rounds]
    diffs = Counter(zip(unpack_words(D[64:], samples).tolist(),
                        unpack_words(D[:64], samples).tolist()))
    top = max(diffs.values())
    rep = empirical_max_dp(delta, rounds, samples, CFG)
    assert rep == DpReport(delta.hex(), rounds, samples, top, top / samples,
                           0.0 - math.log2(top / samples), len(diffs))
    if rounds == 0:
        assert rep.max_count == samples and rep.distinct_output_diffs == 1
        assert rep.weight_bits == 0.0 and math.copysign(1.0, rep.weight_bits) == 1.0


def _difference_cases():
    rng = np.random.default_rng(17)
    words = rng.integers(0, 1 << 64, 600, dtype=np.uint64)
    u64 = lambda *v: np.array(v, dtype=np.uint64)
    return {
        "all distinct": (words[:300], words[300:]),
        "dL repeated, dR distinct": (np.repeat(words[:30], 10), words[300:]),
        "duplicated pairs": (np.tile(words[:40], 5), np.tile(words[40:80], 5)),
        "one sample": (u64(5), u64(9)),
        "all equal": (np.full(257, 1 << 63, dtype=np.uint64), np.full(257, 7, dtype=np.uint64)),
        "mixed": (rng.integers(0, 6, 2000, dtype=np.uint64),
                  rng.integers(0, 6, 2000, dtype=np.uint64) << np.uint64(60)),
    }


@pytest.mark.parametrize("case", _difference_cases())
def test_difference_runs_match_counter(case):
    dL, dR = _difference_cases()[case]
    pairs = Counter(zip(dL.tolist(), dR.tolist()))
    assert harness._difference_runs(dL, dR) == (max(pairs.values()), len(pairs))


def test_empirical_dp_rejects_zero_delta():
    with pytest.raises(ValueError):
        empirical_max_dp(Block.from_int(0), 6, 100, CFG)


@pytest.mark.parametrize("width", [4, 16, 32])
def test_empirical_dp_rejects_difference_of_another_width(width):
    # The 128-bit cipher would run it in its low bits and report the
    # result under the narrow difference's label.
    with pytest.raises(ValueError, match=f"{width}-bit branches, the cipher 64-bit ones"):
        empirical_max_dp(Block(0, 1, width), 3, 200, CFG)


@pytest.mark.parametrize("samples", [0, -64])
def test_empirical_dp_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        empirical_max_dp(Block.from_int(1), 3, samples, CFG)


def test_empirical_dp_decays_with_rounds():
    delta = Block.from_int(1)
    w3 = empirical_max_dp(delta, 3, 4000, CFG).weight_bits
    w6 = empirical_max_dp(delta, 6, 4000, CFG).weight_bits
    assert w6 > w3 > 2.0


# --- related key -----------------------------------------------------------------

def test_related_key_low_half_difference_constant():
    d = MasterKey(0, 0xDEADBEEF)
    assert round_key_difference(d.high, d.low) == [0xDEADBEEF] * 20


def test_related_key_formula_matches_two_schedules():
    p = CipherParams.full()
    rng = np.random.default_rng(3)
    for _ in range(50):
        kh = int(rng.integers(1, 1 << 63))
        kl = int(rng.integers(0, 1 << 63))
        dh = int(rng.integers(1, 1 << 63))
        dl = int(rng.integers(0, 1 << 63))
        if kh ^ dh == 0:
            continue
        a = derive_round_keys(MasterKey(kh, kl), p)
        b = derive_round_keys(MasterKey(kh ^ dh, kl ^ dl), p)
        direct = [x ^ y for x, y in zip(a, b)]
        assert direct == round_key_difference(dh, dl)


def test_round_key_difference_steps_word_arrays():
    rng = np.random.default_rng(5)
    high = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    low = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    high[:3] = 0, 1, (1 << 64) - 1
    rounds = round_key_difference(high, low)
    assert len(rounds) == 20 and all(d.dtype == np.uint64 for d in rounds)
    for j in range(300):
        assert [int(d[j]) for d in rounds] == round_key_difference(int(high[j]), int(low[j]))


def test_lfsr_nonzero_preservation():
    rng = np.random.default_rng(4)
    p = CipherParams.full()
    for _ in range(10**4):
        d = int(rng.integers(1, 1 << 63)) << 1 | 1
        for _ in range(20):
            d = lfsr_step(d, p)
            assert d != 0


def test_related_key_scan_small():
    rep = related_key_scan(500, CFG)
    assert rep.total_zero_count == 0
    assert abs(rep.overall_mean - 32.0) < 1.0
    assert rep.case1_count + rep.case2_count == 500
    assert len(rep.per_round) == 20
    assert all(s.zero_count == 0 for s in rep.per_round)


# --- invariant subspaces ----------------------------------------------------------

def test_subspace_search_none_found_small():
    rep = invariant_subspace_search((2, 4, 6), 30, CFG)
    assert rep.invariants_found == 0
    assert rep.total_evaluations == 30 * (4 + 16 + 64)


def test_subspace_identity_positive_control():
    rep = invariant_subspace_search((2, 4), 10, CFG, map_fn=lambda a: a)
    assert rep.invariants_found == 20


def test_subspace_xor_constant_positive_control():
    # x -> x ^ c maps every affine subspace to a coset of itself.
    c = np.uint64(0x0123456789ABCDEF)
    rep = invariant_subspace_search((3,), 10, CFG, map_fn=lambda a: a ^ c)
    assert rep.invariants_found == 10


@pytest.mark.parametrize("dims", [(13,), (16,), (13, 16)])
def test_subspace_search_samples_large_cosets(dims):
    # Above SUBSPACE_MAX_POINTS points a coset is sampled; the controls
    # still find every trial and the interaction layer none.
    trials = 3
    for map_fn, want in ((None, 0), (lambda a: a, trials * len(dims)),
                         (lambda a: a ^ np.uint64(0x0123456789ABCDEF), trials * len(dims))):
        rep = invariant_subspace_search(dims, trials, CFG, map_fn=map_fn)
        assert rep.invariants_found == want
        assert rep.total_evaluations == trials * len(dims) * 4096


def test_subspace_dimension_validation():
    with pytest.raises(ValueError):
        invariant_subspace_search((17,), 1, CFG)
    with pytest.raises(ValueError):
        invariant_subspace_search((), 1, CFG)


@pytest.mark.parametrize("trials", [0, -3])
def test_subspace_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        invariant_subspace_search((2, 4), trials, CFG)


def test_subspace_rejects_repeated_dims():
    # A repeated dimension would rerun the same substreams and count them twice.
    with pytest.raises(ValueError, match="repeat"):
        invariant_subspace_search((2, 2), 5, CFG)
    with pytest.raises(ValueError, match="repeat"):
        invariant_subspace_search((4, 2, 4), 5, CFG)


@pytest.mark.parametrize("spent", [0, 1])
def test_draw_u64s_matches_two_scalar_draws_per_word(spent):
    # After one 32-bit draw a generator holds the other half of a 64-bit
    # output; the helper must use it as a scalar draw would.
    a, b = np.random.default_rng(99), np.random.default_rng(99)
    for _ in range(spent):
        assert a.integers(0, 2**32) == b.integers(0, 2**32)
    got = harness._draw_u64s(a, 5)
    want = [int(b.integers(0, 2**32)) << 32 | int(b.integers(0, 2**32)) for _ in range(5)]
    assert got.dtype == np.uint64 and got.tolist() == want
    assert a.integers(0, 2**32) == b.integers(0, 2**32)


@pytest.mark.parametrize("n", [1, 2, 13, 1000])
def test_draw_u64s_is_raw_words_with_halves_swapped(n):
    # With no buffered half, the words are the next n raw outputs with
    # their halves swapped, and every later draw of either generator
    # agrees with one that drew the words as 2n 32-bit integers.
    for seed in range(300):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = harness._draw_u64s(a, n)
        halves = b.integers(0, 2**32, 2 * n, dtype=np.uint64)
        assert np.array_equal(got, halves[0::2] << np.uint64(32) | halves[1::2]), seed
        assert a.integers(0, 2**32, 3).tolist() == b.integers(0, 2**32, 3).tolist()
        assert np.array_equal(harness._draw_u64s(a, n), harness._draw_u64s(b, n))
        assert np.array_equal(a.bit_generator.random_raw(n), b.bit_generator.random_raw(n))


def test_random_basis_skips_dependent_words():
    # 0b110 = 0b011 ^ 0b101 and 0 add nothing; the word after the basis is left.
    words = iter([0, 0b011, 0b101, 0b110, 0b1000, 7])
    basis = harness._random_basis(words, 3)
    assert list(basis.items()) == [(1, 0b011), (2, 0b101), (3, 0b1000)]
    assert next(words) == 7
    # Each word is stored reduced by the ones before it, keyed by its one
    # leading bit, ascending.
    basis = harness._random_basis(iter([0b110, 0b101]), 2)
    assert list(basis.items()) == [(1, 0b011), (2, 0b110)]


def _period_basis(p: int) -> list[int]:
    """Echelon basis of V_p, the 64-bit words of period p: vector j has
    bits j, j + p, j + 2p, ... (leading bit 64 - p + j)."""
    return [sum(1 << i for i in range(j, 64, p)) for j in range(p)]


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_coset_check_accepts_period_subspaces(p):
    # F_core commutes with every rotation, so it maps V_p into V_p (the
    # all-ones word of its constant term lies in every V_p).  Flipping bit 0
    # of the last vector breaks that for p >= 2; both trials share a batch.
    bases = [_period_basis(p)]
    if p >= 2:
        bases.append(bases[0][:-1] + [bases[0][-1] ^ 1])
    pivots = np.array([[64 - p + j for j in range(p)]] * len(bases), dtype=np.uint64)
    bases = np.array(bases, dtype=np.uint64)
    offsets = np.zeros(len(bases), dtype=np.uint64)
    picks = None
    if 1 << p > SUBSPACE_MAX_POINTS:
        picks = np.random.default_rng(p).integers(0, 1 << p, (len(bases), SUBSPACE_MAX_POINTS))
    passed = harness._coset_check(pivots, bases, offsets,
                                  lambda x: f_core(x, CipherParams.full()), picks)
    assert passed.tolist() == [True, False][:len(bases)]


def test_subspace_search_matches_per_trial_loop():
    # x -> x ^ bit63(x) * C is linear and fixes every word below 2^63, so a
    # trial passes exactly when none of its basis vectors has its pivot at
    # bit 63 (C lies in none of these spans).  The loop redraws every trial
    # with scalar draws and rebuilds its points in the order the map sees them.
    c = 0x0123456789ABCDEF
    dims, trials = (3, 12, 13), 24
    seen = []

    def map_fn(a):
        seen.append(a.copy())
        return a ^ (a >> np.uint64(63)) * np.uint64(c)

    rep = invariant_subspace_search(dims, trials, CFG, map_fn=map_fn)
    found, examples, points = 0, [], []
    for k in dims:
        for t in range(trials):
            rng = CFG.generator("subspace", k, t)
            draw = lambda: int(rng.integers(0, 2**32)) << 32 | int(rng.integers(0, 2**32))
            echelon = {}
            while len(echelon) < k:
                w = draw()
                while w and w.bit_length() - 1 in echelon:
                    w ^= echelon[w.bit_length() - 1]
                if w:
                    echelon[w.bit_length() - 1] = w
            basis = sorted(echelon.values())
            coset = [draw()]
            for v in basis:
                coset += [x ^ v for x in coset]
            if len(coset) > SUBSPACE_MAX_POINTS:
                coset = [coset[i] for i in rng.integers(0, len(coset), SUBSPACE_MAX_POINTS)]
            points += coset
            if max(basis) < 1 << 63:
                found += 1
                examples.append(tuple(basis))
    assert 0 < found < trials
    assert rep.invariants_found == found
    assert rep.invariant_examples == tuple(examples[:8])
    assert rep.total_evaluations == len(points) == trials * (8 + 4096 + 4096)
    assert np.concatenate(seen).tolist() == points


# --- reduced zero-differential scan ------------------------------------------------

def test_zero_diff_standard_combos():
    combos = standard_zero_diff_combos()
    assert len(combos) == 36
    assert all(d.to_int().bit_count() <= 2 for d, _ in combos)
    assert {r for _, r in combos} == {2, 3, 4}


def test_zero_diff_round0_self_check():
    delta = Block.from_int(1, 16)
    rep = reduced_zero_diff_scan(delta, 0, samples=1 << 12, cfg=CFG)
    assert rep.zero_output_hits == 0
    assert rep.single_bit_output_hits == 1 << 12   # output diff equals input diff
    two = Block.from_int(3, 16)
    rep2 = reduced_zero_diff_scan(two, 0, samples=1 << 12, cfg=CFG)
    assert rep2.single_bit_output_hits == 0


def test_zero_diff_no_zero_output_hits():
    # Zero output difference is impossible outright: the fixed-key map
    # is a permutation, so distinct plaintexts keep distinct outputs.
    delta = Block.from_int(1, 16)
    for rounds in (2, 3, 4):
        rep = reduced_zero_diff_scan(delta, rounds, samples=1 << 18, cfg=CFG)
        assert rep.zero_output_hits == 0


def test_zero_diff_single_bit_outputs_are_reachable():
    # Concrete cancellation paths make single-bit output differences
    # common at 2-3 rounds (exactly 115/1024 per pair at 2 rounds for a
    # single-bit right-branch input difference), unlike in activation
    # models that forbid active vertices from cancelling.
    delta = Block.from_int(1, 16)
    rep = reduced_zero_diff_scan(delta, 2, samples=1 << 16, cfg=CFG)
    exact = exact_single_bit_output_count(delta, 2, MasterKey.from_hex(rep.key, 16))
    assert exact == 115 << 22
    p = exact / (1 << 32)
    sigma = math.sqrt(rep.samples * p * (1 - p))
    assert abs(rep.single_bit_output_hits - rep.samples * p) <= 5 * sigma


@pytest.mark.slow
def test_exhaustive_zero_scan_matches_exact_count():
    # All 2^32 plaintexts (about 30 s on a 2-core host): the single-bit
    # count is the exact count itself, 115 * 2^22, not a sample of it.
    delta = Block.from_int(1, 16)
    rep = reduced_zero_diff_scan(delta, 2, cfg=RngConfig(0), exhaustive=True)
    assert rep.mode == "exhaustive" and rep.samples == 1 << 32
    assert rep.zero_output_hits == 0
    assert rep.single_bit_output_hits == exact_single_bit_output_count(
        delta, 2, MasterKey.from_hex(rep.key, 16))


@pytest.mark.parametrize("tile_bytes, chunk", [
    pytest.param(bitslice._TILE_BYTES, harness.ZERO_SCAN_CHUNK, id=str(bitslice._TILE_BYTES)),
    pytest.param(8 * 16 * 5, harness.ZERO_SCAN_CHUNK, id=str(8 * 16 * 5)),
    pytest.param(8 * 16 * 3, 64 * 40, id=f"{8 * 16 * 3}-chunk{64 * 40}"),
])
@pytest.mark.parametrize("delta, rounds", [(0x00000001, 0), (0x00018000, 0), (0x00000001, 2),
                                           (0x00010000, 3), (0x80000001, 4)])
def test_zero_diff_counts_match_per_sample_recount(delta, rounds, tile_bytes, chunk):
    # The in-tile tree counts against a recount from the two encryptions
    # of each chunk's two 16-row draws and a per-sample popcount.  5-word
    # tiles make 40-word lane blocks and leave a ragged last tile; 3-word
    # tiles and 40-word chunks give two chunks of 24-word blocks, each
    # chunk ending on a short block and the last on a partial word.
    n = (1 << 12) + 77
    d = Block.from_int(delta, 16)
    with mock.patch.object(bitslice, "_TILE_BYTES", tile_bytes), \
            mock.patch.object(harness, "ZERO_SCAN_CHUNK", chunk):
        rep = reduced_zero_diff_scan(d, rounds, samples=n, cfg=CFG)
    engine = BitslicedCipher(REDUCED_SCAN_PARAMS)
    key = MasterKey.from_hex(rep.key, 16)
    flip = broadcast_columns([d.left, d.right], 16)
    weights = []
    for index, first in enumerate(range(0, n, chunk)):
        m = min(chunk, n - first)
        rng = CFG.generator("zero_diff", delta, rounds, index)
        words = (m + 63) // 64
        L, R = random_lanes(rng, 16, words), random_lanes(rng, 16, words)
        bL, bR = engine.encrypt(L, R, key, rounds=rounds)
        qL, qR = engine.encrypt(L ^ flip[0], R ^ flip[1], key, rounds=rounds)
        weights.append(np.bitwise_count(
            unpack_words(bL ^ qL, m) << np.uint64(16) | unpack_words(bR ^ qR, m)))
    weight = np.concatenate(weights)
    assert rep.samples == n == len(weight)
    assert rep.zero_output_hits == int((weight == 0).sum())
    want_hw1 = int((weight == 1).sum()) if rounds < 4 else None
    assert rep.single_bit_output_hits == want_hw1
    if rounds == 0:
        assert rep.single_bit_output_hits == (n if d.to_int().bit_count() == 1 else 0)


def test_zero_diff_scan_streams_its_lanes():
    # One 2^22-sample chunk drawn block by block: two full-size 16-lane
    # arrays alone would take 16 MB.
    tracemalloc.start()
    try:
        reduced_zero_diff_scan(Block.from_int(1, 16), 2, samples=1 << 22, cfg=CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


@pytest.mark.parametrize("width", (1, 3, 5, 16))
def test_saturating_count_matches_popcount(width):
    rng = np.random.default_rng(width)
    # Sparse lanes, so counts of 0, 1 and 2 all occur.
    D = (rng.integers(0, 1 << 64, (2 * width, 9), dtype=np.uint64)
         & rng.integers(0, 1 << 64, (2 * width, 9), dtype=np.uint64)
         & rng.integers(0, 1 << 64, (2 * width, 9), dtype=np.uint64))
    count = np.zeros(64 * 9, dtype=np.int64)
    for lane in D:
        count += lanes_to_bits(lane[None])[0]
    some, many = _saturating_count(D.copy())
    assert np.array_equal(lanes_to_bits(some[None])[0], count >= 1)
    assert np.array_equal(lanes_to_bits(many[None])[0], count >= 2)
    # A rounds-4 scan reads only the OR plane, which is the tree's `some`.
    assert np.array_equal(np.bitwise_or.reduce(D, axis=0), some)


def test_zero_diff_witness_pair():
    # One explicit witness, checked with the scalar cipher.
    c = Cipher(CipherParams(16, (-1, 1, 4), rounds=2))
    key = MasterKey(0x1234, 0xABCD, 16)
    pt = Block.from_hex("17156075", 16)
    d = c.encrypt_block(key, pt) ^ c.encrypt_block(key, pt ^ Block.from_int(1, 16))
    assert d.to_int().bit_count() == 1


def test_zero_diff_validation():
    with pytest.raises(ValueError):
        reduced_zero_diff_scan(Block.from_int(0, 16), 2, samples=64, cfg=CFG)
    with pytest.raises(ValueError):
        reduced_zero_diff_scan(Block.from_int(1, 16), 5, samples=64, cfg=CFG)
    with pytest.raises(ValueError):
        reduced_zero_diff_scan(Block.from_int(1), 2, samples=64, cfg=CFG)
    # Sampled mode on no samples would report a vacuous "0 hits".
    for samples in (0, -5):
        with pytest.raises(ValueError):
            reduced_zero_diff_scan(Block.from_int(1, 16), 2, samples=samples, cfg=CFG)
    with pytest.raises(TypeError):
        reduced_zero_diff_scan(Block.from_int(1, 16), 2, samples=None, cfg=CFG)


def _random_key(width):
    high, low = np.random.default_rng(width).integers(0, 1 << width, 2)
    return MasterKey(int(high), int(low), width)


def _single_and_adjacent_bits(bits):
    # Every single bit, and every pair of cyclically adjacent bits.
    return [1 << i for i in range(bits)] + [1 << i | 1 << (i + 1) % bits for i in range(bits)]


@pytest.mark.parametrize("width, key, deltas", [
    (8, MasterKey(0x5A, 0xC3, 8), (0x0001, 0x0100, 0x0180)),    # right bit, left bit, both
    *((w, _random_key(w), _single_and_adjacent_bits(2 * w)) for w in (4, 5, 6)),
], ids=("w8", "w4", "w5", "w6"))
def test_exact_single_bit_count_matches_exhaustive_scalar(width, key, deltas):
    # Second route: every one of the 2^(2w) plaintexts, encrypted with
    # the scalar cipher.
    n = 1 << 2 * width
    for rounds in (2, 3):
        c = Cipher(CipherParams(width, rounds=rounds))
        enc = [c.encrypt_block(key, Block.from_int(v, width)).to_int() for v in range(n)]
        for d in deltas:
            scalar = sum((enc[v] ^ enc[v ^ d]).bit_count() == 1 for v in range(n))
            exact = exact_single_bit_output_count(Block.from_int(d, width), rounds, key)
            assert exact == scalar, (rounds, hex(d))


def test_fcore_table_is_built_once_and_read_only():
    # The exact counts of one width share one table; a caller that wrote
    # to it would change every later count.
    table = harness._fcore_table(CipherParams(8))
    assert harness._fcore_table(CipherParams(8)) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


def test_exact_single_bit_count_validation():
    key = MasterKey(1, 2, 16)
    with pytest.raises(ValueError):
        exact_single_bit_output_count(Block.from_int(0, 16), 2, key)
    with pytest.raises(ValueError):
        exact_single_bit_output_count(Block.from_int(1, 16), 4, key)
    with pytest.raises(ValueError):
        exact_single_bit_output_count(Block.from_int(1, 8), 2, key)
    with pytest.raises(ValueError, match="branch width <= 20"):
        exact_single_bit_output_count(Block.from_int(1, 21), 2, MasterKey(1, 2, 21))


def test_zero_diff_deterministic_and_threaded():
    a = zero_diff_scan_all(samples=1 << 14, cfg=CFG, threads=1)
    b = zero_diff_scan_all(samples=1 << 14, cfg=CFG, threads=3)
    assert a == b
    assert len(a) == 36


def test_zero_diff_threaded_multi_tile():
    # 2,048 words per lane: two engine tiles at width 16.
    a = zero_diff_scan_all(samples=1 << 17, cfg=CFG, threads=1)
    b = zero_diff_scan_all(samples=1 << 17, cfg=CFG, threads=2)
    assert a == b
    assert all(r.zero_output_hits == 0 for r in a)


# --- truncated coverage -------------------------------------------------------------

def test_coverage_small_run():
    rep = truncated_coverage_scan(2000, (5, 10, 20), CFG)
    assert rep.checkpoints == (5, 10, 20)
    assert rep.never_active_counts[-1] == 0
    assert all(c is None or c >= 1 for c in rep.trials_to_full_coverage)
    # coverage accelerates with depth
    assert rep.trials_to_full_coverage[0] >= rep.trials_to_full_coverage[-1]


def test_coverage_keeps_repeated_checkpoints():
    # Checkpoints are sorted but not deduplicated: each entry is reported.
    rep = truncated_coverage_scan(100, (3, 0, 3), CFG)
    assert rep == CoverageReport(100, (0, 3, 3), (57, 0, 0), (None, 96, 96))


def _coverage_reference(pairs, checkpoints):
    """CoverageReport from the (128, pairs) bit matrices of two encryptions
    and a running OR over the pairs."""
    checkpoints = tuple(sorted(checkpoints))
    base, delta, key = harness._single_bit_pairs(CFG.generator("coverage", pairs, checkpoints),
                                                 pairs)
    snaps = _two_call_pair(FULL_ENGINE, *base, delta, key, checkpoints)
    never, cover = [], []
    for r in checkpoints:
        bits = lanes_to_bits(snaps[r])[:, :pairs].astype(bool)
        never.append(int((~bits.any(axis=1)).sum()))
        complete = np.logical_or.accumulate(bits, axis=1).all(axis=0)
        idx = np.nonzero(complete)[0]
        cover.append(int(idx[0]) + 1 if len(idx) else None)
    return CoverageReport(pairs, checkpoints, tuple(never), tuple(cover))


@pytest.mark.parametrize("tile_bytes", (bitslice._TILE_BYTES, 8 * 64 * 3))
@pytest.mark.parametrize("pairs, checkpoints", [(100, (0,)), (100, (3, 0, 3)), (130, (2, 4, 20)),
                                                (1000, (1, 5, 20)), (2000, (4,))])
def test_coverage_matches_running_or(pairs, checkpoints, tile_bytes):
    # Pair counts off a multiple of 64 (tail bits must not count), and
    # 3-word tiles so a first set bit can lie in any tile.
    with mock.patch.object(bitslice, "_TILE_BYTES", tile_bytes):
        rep = truncated_coverage_scan(pairs, checkpoints, CFG)
    assert rep == _coverage_reference(pairs, checkpoints)
    if checkpoints == (0,):
        assert rep.never_active_counts[0] > 0 and rep.trials_to_full_coverage == (None,)


def test_coverage_validates_args():
    with pytest.raises(ValueError):
        truncated_coverage_scan(50, (5,), CFG)
    for checkpoints in ((), (5, 25), (-1,)):
        with pytest.raises(ValueError, match="checkpoints"):
            truncated_coverage_scan(500, checkpoints, CFG)


# --- report serialisability ----------------------------------------------------------

def test_reports_are_dataclasses():
    for rep in (avalanche_profile(2, 4, CFG), bic_correlations(1000, CFG),
                related_key_scan(10, CFG)):
        assert dataclasses.is_dataclass(rep)
