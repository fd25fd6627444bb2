"""Acceptance suite: every headline quantitative result at full size.

One test per criterion; each appends a PASS/FAIL line to the summary
printed at the end of the run (see conftest).  All randomised criteria
run at the documented sample counts under master seed 0.
"""

import json
import math
import random
import time
import types
from unittest import mock

import conftest
from conftest import ACCEPTANCE_RESULTS
from lputil import solve_lp

from egc128 import boolfun, trails
from egc128.cipher import EGC128
from egc128.graphs import build_topology, spectral_report
from egc128.harness import (
    RngConfig,
    avalanche_profile,
    bic_correlations,
    empirical_max_dp,
    exact_single_bit_output_count,
    invariant_subspace_search,
    related_key_scan,
    sac_matrix,
    truncated_coverage_scan,
    zero_diff_scan_all,
)
from egc128.lpmodel import emit_lp_model
from egc128.nist import generate_nist_bitstream, monobit_sigma_bound
from egc128.params import RULE_A_TRUTH_TABLE, Block, MasterKey
from egc128.vectors import verify_vectors

CFG = RngConfig(0)
BASE = build_topology("baseline", 64)


def _finish(num, name, t0, budget, ok, detail=""):
    elapsed = time.time() - t0
    in_time = budget is None or elapsed < budget
    ACCEPTANCE_RESULTS.append((num, name, ok and in_time, elapsed, detail))
    assert in_time, f"criterion {num} exceeded {budget}s budget ({elapsed:.1f}s)"
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_test_vectors():
    t0 = time.time()
    results = verify_vectors()
    ok = len(results) == 10 and all(r.ok for r in results)
    _finish(1, "test vectors bit-exact", t0, 1.0, ok,
            f"{sum(r.ok for r in results)}/10 encrypt+decrypt")


def test_criterion_02_random_roundtrip():
    t0 = time.time()
    rnd = random.Random(0)
    ok = True
    for _ in range(100):
        key = MasterKey(rnd.getrandbits(64), rnd.getrandbits(64))
        pt = Block(rnd.getrandbits(64), rnd.getrandbits(64))
        ok &= EGC128.decrypt_block(key, EGC128.encrypt_block(key, pt)) == pt
    _finish(2, "100 random round-trips", t0, 1.0, ok)


def test_criterion_03_rule_a_properties():
    t0 = time.time()
    spec = boolfun.walsh_spectrum(RULE_A_TRUTH_TABLE)
    du, _ = boolfun.differential_uniformity(RULE_A_TRUTH_TABLE)
    anf = boolfun.anf_monomials(RULE_A_TRUTH_TABLE)
    ok = (bin(RULE_A_TRUTH_TABLE).count("1") == 8
          and boolfun.nonlinearity(RULE_A_TRUTH_TABLE) == 4
          and du == 12
          and boolfun.algebraic_degree(
              boolfun.truth_table_bits(RULE_A_TRUTH_TABLE)) == 3
          and int(abs(spec).max()) == 8
          and anf == [0b0000, 0b0100, 0b0101, 0b0110, 0b1010, 0b1101])
    _finish(3, "Rule-A: balance/NL/DU/degree/Walsh/ANF", t0, 1.0, ok)


def test_criterion_04_candidate_search():
    t0 = time.time()
    rep = boolfun.search_rule_candidates()
    ok = rep.count_satisfying == 4158 and rep.rule_a_selected and rep.du_min == 12
    _finish(4, "candidate search count and minimisers", t0, 10.0, ok,
            f"count={rep.count_satisfying} (unrestricted {rep.count_unrestricted})")


def test_criterion_05_differential_bounds():
    t0 = time.time()
    series = trails.bound_series("differential", 10, BASE)
    w10 = trails.differential_weight(series.min_active[-1])
    extr = trails.extrapolate_full(w10, "differential")
    ok = (series.min_active == (4, 13, 29, 53, 85, 125, 173, 229, 291, 355)
          and round(w10, 1) == 147.3
          and abs(extr - 413) < 1.0)
    _finish(5, "differential bounds rounds 1-10", t0, 10.0, ok,
            f"W(10)={w10:.1f}, extrapolated {extr:.0f}")


def test_criterion_06_linear_bounds():
    t0 = time.time()
    lin = trails.bound_series("linear", 6, BASE)
    poor = trails.bound_series("linear", 4, build_topology("poor_expander", 64))
    ok = (lin.min_active == (0, 4, 13, 29, 53, 85)
          and trails.extrapolate_full(lin.min_active[3], "linear") == 145
          and poor.min_active == (0, 4, 11, 21))
    _finish(6, "linear bounds and extrapolation", t0, 10.0, ok,
            f"baseline {list(lin.min_active)}, poor {list(poor.min_active)}")


def test_criterion_07_per_round_increments():
    t0 = time.time()
    rep = trails.min_active("differential", 10, BASE)
    ok = rep.round_counts == (4, 9, 16, 24, 32, 40, 48, 56, 62, 64)
    _finish(7, "per-round activation increments", t0, 10.0, ok,
            str(list(rep.round_counts)))


def test_criterion_08_single_layer_weight():
    t0 = time.time()
    w16 = trails.single_layer_min_weight(16)
    w32 = trails.single_layer_min_weight(32)
    ok = (abs(w16.min_weight_bits - 3.415) < 1e-3
          and abs(w32.min_weight_bits - 3.415) < 1e-3
          and w32.restricted_to_hamming == 4)
    _finish(8, "single-layer minimum weight", t0, 60.0, ok,
            f"w16={w16.min_weight_bits:.4f}, w32={w32.min_weight_bits:.4f}")


def test_criterion_09_spectral():
    t0 = time.time()
    base = spectral_report(BASE)
    poor = spectral_report(build_topology("poor_expander", 64))
    ok = (abs(base.spectral_gap - 0.152) < 1e-3
          and abs(poor.spectral_gap - 0.048) < 1e-3)
    detail = (f"gaps {base.spectral_gap:.4f}/{poor.spectral_gap:.4f}, "
              f"diameters {base.diameter}/{poor.diameter} "
              f"(computed exactly; a shorter baseline figure of 8 is "
              f"sometimes quoted, shortest paths give {base.diameter})")
    ok = ok and base.diameter == 9 and poor.diameter == 16
    _finish(9, "spectral gaps and diameters", t0, 10.0, ok, detail)


def test_criterion_10_degree_growth():
    t0 = time.time()
    degs = boolfun.degree_series(16, 4, (-1, 1, 4))
    ok = degs == [3, 7, 13, 15]
    _finish(10, "width-16 degree growth", t0, 120.0, ok, str(degs))


def test_criterion_11_avalanche():
    t0 = time.time()
    rep = avalanche_profile(64, 20, CFG)
    ok = (rep.mean_hd[0] == 1.0
          and abs(rep.mean_hd[20] - 62.64) < 0.5
          and abs(rep.mean_hd[10] - 32.54) < 1.0)
    _finish(11, "avalanche profile", t0, 300.0, ok,
            f"r0={rep.mean_hd[0]:.2f}, r10={rep.mean_hd[10]:.2f}, "
            f"r20={rep.mean_hd[20]:.2f}")


def test_criterion_12_sac():
    t0 = time.time()
    rep = sac_matrix(2000, CFG, threads=2)
    ok = (abs(rep.mean - 0.49) < 0.01
          and rep.fraction_loose == 1.0
          and rep.fraction_tight >= 0.95)
    _finish(12, "SAC matrix", t0, 600.0, ok,
            f"mean={rep.mean:.4f}, tight={100 * rep.fraction_tight:.1f}%, "
            f"loose={100 * rep.fraction_loose:.1f}%, "
            f"min/max={rep.minimum:.3f}/{rep.maximum:.3f}")


def test_criterion_13_bic():
    t0 = time.time()
    rep = bic_correlations(5000, CFG)
    ok = rep.max_abs_correlation < 0.08
    _finish(13, "BIC pairwise correlations", t0, 120.0, ok,
            f"max|r|={rep.max_abs_correlation:.4f}, "
            f"mean|r|={rep.mean_abs_correlation:.4f}")


def test_criterion_14_related_key():
    t0 = time.time()
    rep = related_key_scan(5000, CFG)
    ok = rep.total_zero_count == 0 and abs(rep.overall_mean - 32.0) < 0.3
    _finish(14, "related-key round-key differences", t0, 60.0, ok,
            f"mean HW={rep.overall_mean:.2f}, zeros={rep.total_zero_count}")


def test_criterion_15_invariant_subspaces():
    t0 = time.time()
    rep = invariant_subspace_search((2, 4, 6, 8, 10, 12), 300, CFG)
    control = invariant_subspace_search((2, 4), 5, CFG, map_fn=lambda a: a)
    ok = rep.invariants_found == 0 and control.invariants_found == 10
    _finish(15, "invariant subspace search", t0, 300.0, ok,
            f"1800 trials, found {rep.invariants_found}, "
            f"{rep.total_evaluations} evaluations, positive control OK")


def test_criterion_16_zero_differential_scan():
    t0 = time.time()
    reports = zero_diff_scan_all(samples=1 << 24, cfg=CFG, threads=2)
    zero = sum(r.zero_output_hits for r in reports)
    hw1 = sum(r.single_bit_output_hits or 0 for r in reports)
    ok = (len(reports) == 36 and all(r.samples == 1 << 24 for r in reports)
          and zero == 0)
    # The zero-output clause holds outright (the fixed-key map is a
    # permutation).  Single-bit output differences are not forbidden:
    # F_core is not injective and the round key enters after it, so a
    # difference that F_core cancels leaves weight 1 at rounds 2-3 (see
    # the harness tests for an explicit witness pair).  Each rounds-2/3
    # count must instead match the exact count over all 2^32
    # plaintexts, derived independently from per-vertex F_core tables,
    # within a 5-sigma binomial band, and be 0 where the exact count is.
    expected = 0.0
    worst_z = 0.0
    for r in reports:
        if r.rounds not in (2, 3):
            continue
        exact = exact_single_bit_output_count(
            Block.from_hex(r.delta, 16), r.rounds, MasterKey.from_hex(r.key, 16))
        p = exact / (1 << 32)
        mean = r.samples * p
        expected += mean
        if exact == 0:
            ok &= r.single_bit_output_hits == 0
            continue
        z = (r.single_bit_output_hits - mean) / math.sqrt(mean * (1 - p))
        worst_z = max(worst_z, abs(z))
        ok &= abs(z) <= 5
    _finish(16, "reduced-cipher zero-differential scan", t0, 1800.0, ok,
            f"36 combos x 2^24: zero-output={zero}, single-bit-output={hw1} "
            f"(exact expectation {expected:.1f}, worst |z|={worst_z:.2f})")


TABLE_ROWS = [
    # (delta left, delta right, rounds, reference weight)
    (0, 1, 3, 5.89),
    (0, 1, 6, 8.11),
    (0, 1 << 63, 6, 9.38),
    (1, 0, 6, 8.44),
    (1 << 63, 0, 6, 8.51),
    (0, 3, 6, 11.97),
    (1, 1 << 63, 6, 9.51),
]


def test_criterion_17_empirical_dp():
    t0 = time.time()
    details = []
    ok = True
    for dl, dr, rounds, ref in TABLE_ROWS:
        rep = empirical_max_dp(Block(dl, dr), rounds, 8000, CFG)
        details.append(f"{rep.weight_bits:.2f}/{ref}")
        ok &= abs(rep.weight_bits - ref) <= 1.5
    _finish(17, "empirical max differential probability", t0, 300.0, ok,
            "weights got/ref: " + ", ".join(details))


def test_criterion_18_truncated_coverage():
    t0 = time.time()
    rep = truncated_coverage_scan(10000, (5, 10, 15, 18, 20), CFG)
    ok = all(c == 0 for c in rep.never_active_counts)
    _finish(18, "truncated coverage scan", t0, 300.0, ok,
            f"never-active={list(rep.never_active_counts)}, "
            f"trials-to-cover={list(rep.trials_to_full_coverage)}")


def test_criterion_19_nist_bitstream(tmp_path):
    t0 = time.time()
    path = tmp_path / "stream.txt"
    rep = generate_nist_bitstream("random_pt", 10**8, MasterKey(0, 0), path, CFG)
    size_ok = path.stat().st_size == 10**8
    with path.open() as fh:
        sample = fh.read(4096)
    fmt_ok = set(sample) <= {"0", "1"}
    mono_ok = abs(rep.ones_count - 10**8 / 2) < monobit_sigma_bound(10**8, 3)
    path.unlink()
    ok = size_ok and fmt_ok and mono_ok
    _finish(19, "statistical-suite input stream", t0, None, ok,
            f"10^8 symbols, ones={rep.ones_count} ({rep.monobit_sigma:+.2f} sigma)")


def test_criterion_20_lp_cross_check(tmp_path):
    t0 = time.time()
    ok = True
    details = []
    for rounds in (1, 2, 3):
        path = tmp_path / f"d{rounds}.lp"
        emit_lp_model("differential", rounds, BASE, path)
        external = round(solve_lp(path))
        internal = trails.min_active("differential", rounds, BASE).min_active
        details.append(f"r{rounds}: {external}={internal}")
        ok &= external == internal
    _finish(20, "LP emission vs independent solver", t0, 120.0, ok,
            ", ".join(details))


def test_acceptance_summary_is_cached_as_json():
    # The terminal summary also stores its rows, in criterion order, as
    # JSON under a pytest cache key.
    stored = {}
    config = types.SimpleNamespace(cache=types.SimpleNamespace(set=stored.__setitem__))
    rows = [(18, "coverage", True, 0.5, "never-active=[0]"), (1, "vectors", False, 0.1, "")]
    with mock.patch.object(conftest, "ACCEPTANCE_RESULTS", rows):
        conftest.pytest_terminal_summary(mock.Mock(), config)
    got = json.loads(json.dumps(stored[conftest.ACCEPTANCE_CACHE_KEY]))
    assert got == [
        {"criterion": 1, "name": "vectors", "passed": False, "seconds": 0.1, "detail": ""},
        {"criterion": 18, "name": "coverage", "passed": True, "seconds": 0.5,
         "detail": "never-active=[0]"},
    ]
