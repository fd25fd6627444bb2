#!/usr/bin/env python3
"""Randomised analyses at demo scale: avalanche, SAC, bit independence,
empirical differentials, related keys, and bitstream generation.

The acceptance suite runs the same operations at full reference sizes;
everything here is seed-reproducible."""

from egc128.harness import (
    RngConfig,
    avalanche_profile,
    bic_correlations,
    empirical_max_dp,
    invariant_subspace_search,
    reduced_zero_diff_scan,
    related_key_scan,
    sac_matrix,
    truncated_coverage_scan,
)
from egc128.nist import generate_nist_bitstream
from egc128.params import Block, MasterKey

cfg = RngConfig(2024)

print("=" * 70)
print("Avalanche: mean Hamming distance after each round (16 pairs)")
print("=" * 70)
av = avalanche_profile(16, 20, cfg)
for r in (0, 1, 2, 5, 10, 15, 18, 20):
    bar = "#" * int(av.mean_hd[r] / 2)
    print(f"  round {r:>2}: {av.mean_hd[r]:6.2f} bits  {bar}")

print("\nStrict avalanche matrix (500 samples per input bit):")
sac = sac_matrix(500, cfg)
print(f"  mean flip probability {sac.mean:.4f}, spread "
      f"[{sac.minimum:.3f}, {sac.maximum:.3f}]")
print(f"  entries within [0.45, 0.55]: {100 * sac.fraction_tight:.1f}%")

print("\nBit independence (2,000 samples):")
bic = bic_correlations(2000, cfg)
print(f"  max |pairwise correlation| {bic.max_abs_correlation:.4f}, "
      f"mean {bic.mean_abs_correlation:.4f}")

print("\nEmpirical maximum differential probability (4,000 samples):")
for hexdelta, rounds in (("00000000000000000000000000000001", 3),
                         ("00000000000000000000000000000001", 6),
                         ("00000000000000000000000000000003", 6)):
    rep = empirical_max_dp(Block.from_hex(hexdelta), rounds, 4000, cfg)
    print(f"  delta ...{hexdelta[-4:]}, {rounds} rounds: "
          f"max DP {rep.max_probability:.2e} ({rep.weight_bits:.2f} bits)")

print("\nRelated keys (1,000 random nonzero key differences):")
rk = related_key_scan(1000, cfg)
print(f"  round-key difference mean weight {rk.overall_mean:.2f}/64, "
      f"zero differences observed: {rk.total_zero_count}")

print("\nInvariant affine subspaces (dimensions 2/4/6, 50 trials each):")
sub = invariant_subspace_search((2, 4, 6), 50, cfg)
print(f"  invariants found: {sub.invariants_found} "
      f"({sub.total_evaluations} coset points tested)")

print("\nReduced 32-bit instance, zero-differential scan (2^20 samples):")
zd = reduced_zero_diff_scan(Block.from_int(1, 16), 3, 1 << 20, cfg)
print(f"  zero-output pairs: {zd.zero_output_hits} "
      f"(impossible: the fixed-key map is a permutation)")
print(f"  weight-1-output pairs: {zd.single_bit_output_hits} "
      f"(cancellation paths make these common)")

print("\nCoverage of output-difference bits (2,000 single-bit pairs):")
cov = truncated_coverage_scan(2000, (5, 10, 20), cfg)
for r, never, trials in zip(cov.checkpoints, cov.never_active_counts,
                            cov.trials_to_full_coverage):
    print(f"  round {r:>2}: never-active bits {never}, "
          f"trials to see all 128 active: {trials}")

print("\nBitstream generation for external statistical suites:")
rep = generate_nist_bitstream("random_pt", 128 * 2048, MasterKey(0, 0),
                              "reports/demo_bits.txt", cfg)
print(f"  wrote {rep.n_bits} ASCII bits, ones {rep.ones_count} "
      f"({rep.monobit_sigma:+.2f} sigma)")
