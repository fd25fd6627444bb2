"""Trail bounds: OR-propagation, minimisation, weights, single layer."""

import random
from itertools import combinations
from math import isclose, log2
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egc128 import trails
from egc128.boolfun import ddt
from egc128.graphs import build_topology
from egc128.params import RULE_A_TRUTH_TABLE, CipherParams
from egc128.trails import (
    SingleLayerReport,
    W_NODE,
    bound_series,
    differential_weight,
    extrapolate_full,
    min_active,
    propagate_activation,
    single_layer_min_weight,
)

BASE = build_topology("baseline", 64)
POOR = build_topology("poor_expander", 64)
IRR = build_topology("irregular34", 64)


# --- independent reference propagation (sets instead of bitmasks) -----------

def _propagate_sets(l0, r0, rounds, g):
    L = {i for i in range(g.n) if (l0 >> i) & 1}
    R = {i for i in range(g.n) if (r0 >> i) & 1}
    counts = []
    for _ in range(rounds):
        sf = {i for i in range(g.n)
              if i in R or any(j in R for j in g.read_sets[i])}
        counts.append(len(sf))
        L, R = R, L | sf
    return counts


def test_propagation_matches_set_reference():
    rnd = random.Random(0)
    for g in (BASE, POOR, build_topology("random3regular", 16, seed=3)):
        for _ in range(50):
            l0 = rnd.getrandbits(g.n)
            r0 = rnd.getrandbits(g.n)
            trace = propagate_activation(l0, r0, 4, g)
            assert list(trace.round_counts) == _propagate_sets(l0, r0, 4, g)


def test_single_bit_pair_first_round():
    trace = propagate_activation(1, 1, 1, BASE)
    assert trace.total_active == 4


def test_empty_right_branch_first_round():
    trace = propagate_activation(1, 0, 1, BASE)
    assert trace.round_counts[0] == 0


def test_optimal_start_per_round_increments():
    rep = min_active("differential", 10, BASE)
    assert rep.round_counts == (4, 9, 16, 24, 32, 40, 48, 56, 62, 64)


def test_differential_bounds_rounds_1_to_10():
    series = bound_series("differential", 10, BASE)
    assert series.min_active == (4, 13, 29, 53, 85, 125, 173, 229, 291, 355)


def test_growth_rates():
    series = bound_series("differential", 10, BASE)
    rounded = tuple(round(g, 2) for g in series.growth_rates)
    assert rounded == (3.25, 2.23, 1.83, 1.6, 1.47, 1.38, 1.32, 1.27, 1.22)


def test_linear_bounds_rounds_1_to_6():
    series = bound_series("linear", 6, BASE)
    assert series.min_active == (0, 4, 13, 29, 53, 85)


def test_linear_equals_differential_offset_by_one():
    lin = bound_series("linear", 6, BASE).min_active
    diff = bound_series("differential", 5, BASE).min_active
    assert lin[1:] == diff


def test_poor_expander_linear_bounds():
    assert bound_series("linear", 4, POOR).min_active == (0, 4, 11, 21)


def test_irregular34_linear_bounds():
    assert bound_series("linear", 4, IRR).min_active == (0, 5, 17, 37)


def test_transposed_baseline_same_bounds():
    fwd = bound_series("linear", 4, BASE).min_active
    rev = bound_series("linear", 4, BASE.transposed()).min_active
    assert fwd == rev


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("mode", trails.MODES)
@pytest.mark.parametrize("g", [BASE, POOR, IRR, build_topology("random3regular", 16, 3)],
                         ids=["baseline", "poor_expander", "irregular34", "random3regular"])
def test_bound_series_is_min_active_per_round(g, mode, transpose):
    # The series reads every round count off one propagation per start;
    # min_active propagates each round count separately.
    if transpose:
        g = g.transposed()
    series = bound_series(mode, 8, g)
    assert series.min_active == tuple(min_active(mode, r, g).min_active
                                      for r in range(1, 9))


def test_monotonicity_of_or_propagation():
    rnd = random.Random(1)
    for g in (build_topology("baseline", 16), BASE):
        for _ in range(1000):
            la = rnd.getrandbits(g.n)
            ra = rnd.getrandbits(g.n)
            lb = la | rnd.getrandbits(g.n)
            rb = ra | rnd.getrandbits(g.n)
            ta = propagate_activation(la, ra, 3, g)
            tb = propagate_activation(lb, rb, 3, g)
            for r in range(3):
                assert ta.sf_activity[r] & ~tb.sf_activity[r] == 0
                assert ta.l_activity[r] & ~tb.l_activity[r] == 0
                assert ta.r_activity[r] & ~tb.r_activity[r] == 0


def test_trace_is_unique_solution_of_constraint_system():
    # At n = 8, for random starts, enumerate all candidate (s_F, R_next)
    # pairs per round and check exactly one satisfies the constraints.
    g = build_topology("baseline", 8)
    rnd = random.Random(2)
    full = (1 << 8) - 1
    for _ in range(20):
        l0, r0 = rnd.getrandbits(8), rnd.getrandbits(8)
        trace = propagate_activation(l0, r0, 3, g)
        L, R = l0, r0
        for r in range(3):
            feasible = []
            for sf in range(256):
                ok = True
                for i in range(8):
                    reads = [(R >> i) & 1] + [(R >> j) & 1 for j in g.read_sets[i]]
                    s = (sf >> i) & 1
                    if any(s < b for b in reads) or s > sum(reads):
                        ok = False
                        break
                if not ok:
                    continue
                for rn in range(256):
                    good = True
                    for i in range(8):
                        li, si, ri = (L >> i) & 1, (sf >> i) & 1, (rn >> i) & 1
                        if ri < li or ri < si or ri > li + si:
                            good = False
                            break
                    if good:
                        feasible.append((sf, rn))
            assert feasible == [(trace.sf_activity[r],
                                 trace.r_activity[r + 1] & full)]
            L, R = R, trace.r_activity[r + 1]


def test_bruteforce_low_weight_starts_width16():
    # All one- and two-bit-per-branch starts, independent set propagation.
    g = build_topology("baseline", 16)
    patterns = [1 << a for a in range(16)]
    patterns += [(1 << a) | (1 << b) for a in range(16) for b in range(a + 1, 16)]
    for rounds in (1, 2, 3, 4):
        brute = min(sum(_propagate_sets(l0, r0, rounds, g))
                    for l0 in patterns for r0 in patterns)
        assert brute == min_active("differential", rounds, g).min_active
    lin_patterns = [(p, 0) for p in patterns] + [(0, p) for p in patterns]
    for rounds in (1, 2, 3):
        brute = min(sum(_propagate_sets(l0, r0, rounds, g))
                    for l0, r0 in lin_patterns)
        assert brute == min_active("linear", rounds, g).min_active


def test_min_active_noncirculant_graph():
    g = build_topology("random3regular", 16, seed=9)
    rep = min_active("differential", 2, g)
    assert rep.min_active >= 1
    assert rep.start_left and rep.start_right


# --- weights and extrapolation ----------------------------------------------

def test_differential_weight_values():
    assert differential_weight(0) == 0
    assert round(differential_weight(4), 1) == 1.7
    assert round(differential_weight(355), 1) == 147.3
    assert isclose(W_NODE, -log2(3 / 4))
    with pytest.raises(ValueError):
        differential_weight(-1)


def test_extrapolations():
    w10 = differential_weight(355)
    assert abs(extrapolate_full(w10, "differential") - 413) < 1.0
    assert extrapolate_full(29, "linear") == 145
    assert abs(extrapolate_full(0.0, "differential") - 265.6) < 0.1


# --- single layer -----------------------------------------------------------

def test_single_layer_width16():
    rep = single_layer_min_weight(16)
    assert abs(rep.min_weight_bits - 3.415) < 1e-3
    assert rep.restricted_to_hamming is None
    assert rep.n_deltas_examined == (1 << 16) - 1
    assert bin(rep.optimal_delta).count("1") == 1


def test_single_layer_width32_restricted():
    rep = single_layer_min_weight(32)
    assert abs(rep.min_weight_bits - 3.415) < 1e-3
    assert rep.restricted_to_hamming == 4


def test_single_layer_width_equivalence():
    w16 = single_layer_min_weight(16).min_weight_bits
    w32 = single_layer_min_weight(32).min_weight_bits
    assert isclose(w16, w32, abs_tol=1e-9)


def test_single_layer_small_width_independent_check():
    # Width 8: recompute by brute force over every nonzero difference with
    # a directly-built DDT cost model.
    from egc128.boolfun import ddt
    from egc128.params import RULE_A_TRUTH_TABLE

    table = ddt(RULE_A_TRUTH_TABLE)
    offs = [o % 8 for o in (-1, 1, 2)]
    best = None
    for delta in range(1, 256):
        total, flip = 0.0, None
        for i in range(8):
            a = ((delta >> i) & 1)
            a |= ((delta >> ((i + offs[0]) % 8)) & 1) << 1
            a |= ((delta >> ((i + offs[1]) % 8)) & 1) << 2
            a |= ((delta >> ((i + offs[2]) % 8)) & 1) << 3
            costs = {b: -log2(table[a][b] / 16) for b in range(2) if table[a][b]}
            total += min(costs.values())
            if 1 in costs:
                extra = costs[1] - min(costs.values())
                flip = extra if flip is None else min(flip, extra)
        if flip is None:
            continue
        best = total + flip if best is None else min(best, total + flip)
    rep = single_layer_min_weight(8, (-1, 1, 2))
    assert isclose(rep.min_weight_bits, best, abs_tol=1e-12)


def _single_layer_loop(width, offsets, exhaustive_limit, max_hamming):
    # The per-difference loop that the array search replaced, kept as the
    # reference it must match bit for bit.
    table = ddt(RULE_A_TRUTH_TABLE)
    offsets = CipherParams(width, offsets).offsets
    base_cost = [0.0] * 16
    one_cost = [None] * 16
    for a in range(16):
        costs = {b: -log2(table[a][b] / 16) for b in range(2) if table[a][b]}
        base_cost[a] = min(costs.values())
        one_cost[a] = costs.get(1)
    if (1 << width) - 1 <= exhaustive_limit:
        deltas, restricted = range(1, 1 << width), None
    else:
        deltas = (sum(1 << b for b in bits) for hw in range(1, max_hamming + 1)
                  for bits in combinations(range(width), hw))
        restricted = max_hamming
    offs = [o % width for o in offsets]
    best, best_delta, examined = None, 0, 0
    for delta in deltas:
        examined += 1
        total, flip_penalty = 0.0, None
        d2 = delta | (delta << width)
        for i in range(width):
            a = ((delta >> i) & 1) \
                | (((d2 >> (i + offs[0])) & 1) << 1) \
                | (((d2 >> (i + offs[1])) & 1) << 2) \
                | (((d2 >> (i + offs[2])) & 1) << 3)
            total += base_cost[a]
            if one_cost[a] is not None:
                extra = one_cost[a] - base_cost[a]
                if flip_penalty is None or extra < flip_penalty:
                    flip_penalty = extra
        if flip_penalty is None:
            continue
        total += flip_penalty
        if best is None or total < best:
            best, best_delta = total, delta
    return SingleLayerReport(width, tuple(offsets), best, best_delta, restricted, examined)


@st.composite
def _layer_cases(draw):
    width = draw(st.integers(4, 17))
    residues = draw(st.lists(st.integers(1, width - 1), min_size=3, max_size=3, unique=True))
    offsets = tuple(k - width if draw(st.booleans()) else k for k in residues)
    # Exhaustive up to width 13; a limit of 16 restricts from width 5 on.
    limit = draw(st.sampled_from([1 << 13, 16]))
    return width, offsets, limit, draw(st.integers(1, 3)), draw(st.sampled_from([None, 1, 7, 100]))


@settings(max_examples=80, deadline=None, database=None)
@given(_layer_cases())
@example((17, (-1, 1, 4), 1 << 20, 4, None))      # exhaustive over two full chunks and a tail
@example((16, (-1, 1, 4), 1 << 20, 4, None))      # the criterion-8 instance
@example((12, (-1, 1, 3), 1, 3, 5))               # restricted, chunks straddle the weights
@example((8, (1, 2, 3), 1 << 13, 1, None))        # summing in another vertex order moves an ulp
def test_single_layer_matches_per_difference_loop(case):
    width, offsets, limit, max_hamming, chunk = case
    with mock.patch.object(trails, "_CHUNK", chunk or trails._CHUNK):
        got = single_layer_min_weight(width, offsets, limit, max_hamming)
    want = _single_layer_loop(width, offsets, limit, max_hamming)
    assert got == want
    assert type(got.min_weight_bits) is float and type(got.optimal_delta) is int


def test_single_layer_errors():
    with pytest.raises(ValueError):
        single_layer_min_weight(33)
