"""Statistical harness: determinism, self-checks, cross-validation.

Full-size runs at the reference sample counts live in the acceptance
suite; these tests use smaller batches."""

import dataclasses
import math

import numpy as np
import pytest

from egc128.cipher import Cipher, derive_round_keys
from egc128.harness import (
    RngConfig,
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

CFG = RngConfig(12345)


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


def test_avalanche_validates_args():
    with pytest.raises(ValueError):
        avalanche_profile(0, 20, CFG)


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


def test_sac_thread_count_does_not_change_result_multi_tile():
    # 313 words per lane: two engine tiles at width 64, on a shared engine.
    a = sac_matrix(20000, CFG, threads=1)
    b = sac_matrix(20000, CFG, threads=2)
    assert (a.matrix == b.matrix).all()


def test_sac_agrees_with_avalanche():
    # mean flip probability x 128 ~ final-round mean Hamming distance
    sac = sac_matrix(256, CFG)
    av = avalanche_profile(16, 20, CFG)
    assert abs(sac.mean * 128 - av.mean_hd[20]) < 1.5


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


# --- empirical DP ----------------------------------------------------------------

def test_empirical_dp_zero_rounds_identity():
    delta = Block.from_int(1)
    rep = empirical_max_dp(delta, 0, 512, CFG)
    assert rep.max_count == 512
    assert rep.weight_bits == 0.0
    assert rep.distinct_output_diffs == 1


def test_empirical_dp_rejects_zero_delta():
    with pytest.raises(ValueError):
        empirical_max_dp(Block.from_int(0), 6, 100, CFG)


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
    rounds = round_key_difference(high, low, 20)
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


def test_subspace_dimension_validation():
    with pytest.raises(ValueError):
        invariant_subspace_search((17,), 1, CFG)
    with pytest.raises(ValueError):
        invariant_subspace_search((), 1, CFG)


@pytest.mark.parametrize("trials", [0, -3])
def test_subspace_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        invariant_subspace_search((2, 4), trials, CFG)


# --- reduced zero-differential scan ------------------------------------------------

def test_zero_diff_standard_combos():
    combos = standard_zero_diff_combos()
    assert len(combos) == 36
    assert all(d.hamming_weight() <= 2 for d, _ in combos)
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
    # All 2^32 plaintexts (about 5 minutes): the single-bit count is the
    # exact count itself, 115 * 2^22, not a sample of it.
    delta = Block.from_int(1, 16)
    rep = reduced_zero_diff_scan(delta, 2, cfg=RngConfig(0), exhaustive=True)
    assert rep.mode == "exhaustive" and rep.samples == 1 << 32
    assert rep.zero_output_hits == 0
    assert rep.single_bit_output_hits == exact_single_bit_output_count(
        delta, 2, MasterKey.from_hex(rep.key, 16))


def test_zero_diff_witness_pair():
    # One explicit witness, checked with the scalar cipher.
    p = CipherParams.reduced(16, (-1, 1, 4))
    c = Cipher(p)
    key = MasterKey(0x1234, 0xABCD, 16)
    pt = Block.from_hex("17156075", 16)
    d = c.encrypt_block(key, pt, rounds=2) ^ \
        c.encrypt_block(key, pt ^ Block.from_int(1, 16), rounds=2)
    assert d.hamming_weight() == 1


def test_zero_diff_validation():
    with pytest.raises(ValueError):
        reduced_zero_diff_scan(Block.from_int(0, 16), 2, samples=64, cfg=CFG)
    with pytest.raises(ValueError):
        reduced_zero_diff_scan(Block.from_int(1, 16), 5, samples=64, cfg=CFG)
    with pytest.raises(ValueError):
        reduced_zero_diff_scan(Block.from_int(1), 2, samples=64, cfg=CFG)
    # Sampled mode on no samples would report a vacuous "0 hits".
    for samples in (0, -5, None):
        with pytest.raises(ValueError):
            reduced_zero_diff_scan(Block.from_int(1, 16), 2, samples=samples, cfg=CFG)


def test_exact_single_bit_count_matches_exhaustive_scalar():
    # Second route: every one of the 2^16 plaintexts of the width-8
    # instance, encrypted with the scalar cipher.
    p = CipherParams.reduced(8)
    c = Cipher(p)
    key = MasterKey(0x5A, 0xC3, 8)
    deltas = (0x0001, 0x0100, 0x0180)        # right bit, left bit, both
    for rounds in (2, 3):
        enc = [c.encrypt_block(key, Block.from_int(v, 8), rounds=rounds).to_int()
               for v in range(1 << 16)]
        for d in deltas:
            scalar = sum((enc[v] ^ enc[v ^ d]).bit_count() == 1
                         for v in range(1 << 16))
            exact = exact_single_bit_output_count(Block.from_int(d, 8), rounds, key, p)
            assert exact == scalar, (rounds, hex(d))


def test_exact_single_bit_count_validation():
    key = MasterKey(1, 2, 16)
    with pytest.raises(ValueError):
        exact_single_bit_output_count(Block.from_int(0, 16), 2, key)
    with pytest.raises(ValueError):
        exact_single_bit_output_count(Block.from_int(1, 16), 4, key)
    with pytest.raises(ValueError):
        exact_single_bit_output_count(Block.from_int(1, 8), 2, key)


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
