"""Boolean-function analysis: ANF, Walsh, DDT, the candidate search,
and iterated-layer degrees."""

import functools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from egc128 import boolfun
from egc128.boolfun import (
    REFERENCE_DEGREE_ROWS,
    _walsh_butterflies,
    algebraic_degree,
    anf_monomials,
    ddt,
    degree_growth_report,
    degree_series,
    differential_uniformity,
    moebius_transform,
    nonlinearity,
    search_rule_candidates,
    truth_table_bits,
    walsh_spectrum,
)
from egc128.harness import _fcore_table
from egc128.params import RULE_A_TRUTH_TABLE, CipherParams
from egc128.trails import W_NODE


# --- Moebius / ANF ----------------------------------------------------------

def test_moebius_zero_table():
    assert not moebius_transform([0] * 16).any()


def test_rule_a_anf_monomials():
    # 1, x2, x0x2, x1x2, x1x3, x0x2x3 as index masks
    assert anf_monomials(RULE_A_TRUTH_TABLE) == [0b0000, 0b0100, 0b0101,
                                                 0b0110, 0b1010, 0b1101]
    assert algebraic_degree(truth_table_bits(RULE_A_TRUTH_TABLE)) == 3


def test_moebius_involution():
    rnd = random.Random(0)
    for _ in range(1000):
        table = [rnd.randrange(2) for _ in range(16)]
        twice = moebius_transform(moebius_transform(table))
        assert list(twice) == table


def test_moebius_wider_and_errors():
    rnd = random.Random(1)
    table = [rnd.randrange(2) for _ in range(256)]
    assert list(moebius_transform(moebius_transform(table))) == table
    with pytest.raises(ValueError):
        moebius_transform([0, 1, 1])


# --- Walsh spectrum ---------------------------------------------------------

def test_walsh_rule_a():
    spec = walsh_spectrum(RULE_A_TRUTH_TABLE)
    assert np.abs(spec).max() == 8
    assert nonlinearity(RULE_A_TRUTH_TABLE) == 4


def test_walsh_constant_and_linear():
    assert walsh_spectrum(0x0000)[0] == 16
    assert nonlinearity(0x0000) == 0
    # f(x) = x0:  truth table bit k = k & 1
    linear = sum(((k & 1) << k) for k in range(16))
    spec = walsh_spectrum(linear)
    assert sorted(np.abs(spec))[-1] == 16
    assert (np.abs(spec) == 16).sum() == 1
    assert (spec == 0).sum() == 15


def test_parseval_random_tables():
    rnd = random.Random(2)
    for _ in range(200):
        t = rnd.getrandbits(16)
        spec = walsh_spectrum(t)
        assert int((spec.astype(np.int64) ** 2).sum()) == 256


def test_walsh_butterflies_match_definition():
    rng = np.random.default_rng(5)
    for k in range(7):
        x = np.arange(1 << k)
        # signs[u, x] = (-1)^(u.x)
        signs = 1 - 2 * (np.bitwise_count(x[:, None] & x[None, :]) & 1).astype(np.int64)
        for m in (1, 5):
            v = rng.integers(-1000, 1000, (1 << k, m), dtype=np.int64)
            want = signs @ v
            got = v.copy()
            assert _walsh_butterflies(got) is got
            assert (got == want).all(), (k, m)


# --- DDT --------------------------------------------------------------------

def test_rule_a_du():
    du, table = differential_uniformity(RULE_A_TRUTH_TABLE)
    assert du == 12
    assert (table.sum(axis=1) == 16).all()
    assert tuple(table[0]) == (16, 0)
    assert abs(W_NODE - 0.4150374992788438) < 1e-12


def test_constant_function_du():
    du, _ = differential_uniformity(0x0000)
    assert du == 16


def test_ddt_row_structure_random():
    rnd = random.Random(3)
    for _ in range(50):
        table = ddt(rnd.getrandbits(16))
        assert (table.sum(axis=1) == 16).all()


# --- candidate search -------------------------------------------------------

def test_search_counts_and_rule_a():
    rep = search_rule_candidates()
    assert rep.count_satisfying == 4158
    assert rep.count_unrestricted == 10080
    assert rep.max_balanced_nonlinearity == 4
    assert rep.du_min == 12
    assert rep.rule_a_selected
    assert RULE_A_TRUTH_TABLE in rep.minimizers


def test_search_deterministic():
    a = search_rule_candidates()
    b = search_rule_candidates()
    assert a == b


def test_search_all_selected_have_claimed_properties():
    rep = search_rule_candidates()
    rnd = random.Random(4)
    for t in rnd.sample(rep.minimizers, 50):
        assert bin(t).count("1") == 8
        assert nonlinearity(t) == 4
        assert algebraic_degree(truth_table_bits(t)) == 3
        assert differential_uniformity(t)[0] == 12
        assert len(anf_monomials(t)) <= 7


# --- iterated degrees -------------------------------------------------------

def test_degree_series_width16():
    assert degree_series(16, 4, (-1, 1, 4)) == [3, 7, 13, 15]


def test_degree_round1_is_cubic_any_width():
    for width in (8, 10, 12, 16):
        assert degree_series(width, 1)[-1] == 3


def test_degree_width8_round1():
    assert degree_series(8, 1, (-1, 1, 2)) == [3]
    # Offsets given as a list come back as the tuple CipherParams stores.
    assert degree_growth_report(8, 1, [-1, 1, 2]).offsets == (-1, 1, 2)


def test_degree_width12_matches_reference():
    rep = degree_growth_report(12, 5)
    assert rep.degrees == (3, 7, 10, 11, 11)
    assert rep.matches_reference is True


def test_degree_width8_exact_exceeds_reference_row():
    # Exact enumeration reaches the full width at rounds 3-4; the
    # reference row caps at width-1, so the report must flag it.
    rep = degree_growth_report(8, 5)
    assert rep.degrees == (3, 5, 8, 8, 7)
    assert rep.matches_reference is False
    assert REFERENCE_DEGREE_ROWS[8] == (3, 5, 7, 7, 7)


def test_degree_monotone_on_published_instances():
    for width in (12, 16):
        degs = degree_series(width, 5)
        assert all(a <= b for a, b in zip(degs, degs[1:]))
        assert max(degs) <= width - 1


def test_degree_errors():
    with pytest.raises(ValueError):
        degree_series(17, 2)
    with pytest.raises(ValueError):
        degree_series(16, 0)


# --- brute-force reference over every 4-input function ------------------------

ALL_TABLES = np.arange(1 << 16)


def _mask(points) -> int:
    """16-bit table with ones at `points`."""
    return sum(1 << x for x in points)


@functools.cache
def _brute_force_properties():
    """Per table: NL, ANF degree, ANF term count and DU from their
    definitions, with no Walsh or Moebius transform."""
    t = ALL_TABLES.astype(np.uint64)
    # NL: Hamming distance to the nearest of the 32 affine tables a.x ^ c.
    linear = [_mask(x for x in range(16) if (a & x).bit_count() & 1) for a in range(16)]
    affine = np.array(linear + [lin ^ 0xFFFF for lin in linear], dtype=np.uint64)
    nl = np.bitwise_count(t[:, None] ^ affine).min(axis=1)
    # ANF coefficient u: the parity of f over the points x within u.
    within = [np.uint64(_mask(x for x in range(16) if x & ~u == 0)) for u in range(16)]
    coeff = np.array([np.bitwise_count(t & m) & 1 for m in within])
    weight = np.array([u.bit_count() for u in range(16)])[:, None]
    degree = (coeff * weight).max(axis=0)
    terms = coeff.sum(axis=0)
    # DDT[a][1] counts the x with f(x) != f(x ^ a): the weight of t ^ (t
    # with its points permuted by x -> x ^ a).
    ddt_ones = []
    for a in range(16):
        shifted = sum((t >> np.uint64(x ^ a) & np.uint64(1)) << np.uint64(x) for x in range(16))
        ddt_ones.append(np.bitwise_count(t ^ shifted).astype(np.int64))
    ddt_ones = np.array(ddt_ones)
    du = np.maximum(ddt_ones[1:], 16 - ddt_ones[1:]).max(axis=0)
    return nl, degree, terms, ddt_ones, du


def test_array_properties_match_brute_force_definitions():
    nl, degree, terms, ddt_ones, du = _brute_force_properties()
    bits = truth_table_bits(ALL_TABLES)
    assert bits.shape == (16, 1 << 16)
    assert np.array_equal(nonlinearity(ALL_TABLES), nl)
    assert np.array_equal(algebraic_degree(bits), degree)
    assert np.array_equal(moebius_transform(bits).sum(axis=0), terms)
    got_du, got_ddt = differential_uniformity(ALL_TABLES)
    assert got_ddt.shape == (16, 2, 1 << 16)
    assert np.array_equal(got_ddt[:, 1], ddt_ones)
    assert np.array_equal(got_ddt[:, 0], 16 - ddt_ones)
    assert np.array_equal(got_du, du)
    # Tables along several trailing axes keep their shape.
    grid = ALL_TABLES[:600].reshape(20, 30)
    assert np.array_equal(nonlinearity(grid), nl[:600].reshape(20, 30))
    assert np.array_equal(walsh_spectrum(grid)[:, 3, 7], walsh_spectrum(int(grid[3, 7])))


def _outer_product_bits(table) -> np.ndarray:
    """Truth-table bits as the AND of every point's bit with the tables."""
    bit = 1 << np.arange(16, dtype=np.uint16)
    return (np.bitwise_and.outer(bit, table) != 0).astype(np.uint8)


def test_single_table_properties_are_python_ints():
    nl, degree, _, _, du = _brute_force_properties()
    for t in (0x0000, 0xFFFF, 0x00FF, RULE_A_TRUTH_TABLE, 0x6996, 0x1234):
        got = (nonlinearity(t), algebraic_degree(truth_table_bits(t)),
               differential_uniformity(t)[0])
        assert got == (nl[t], degree[t], du[t])
        assert all(type(v) is int for v in got)
        assert truth_table_bits(t).shape == (16,) and ddt(t).shape == (16, 2)
        assert np.array_equal(truth_table_bits(t), _outer_product_bits(t))
    rng = np.random.default_rng(22)
    for dtype in (np.uint16, np.int32, np.uint32, np.uint64):
        assert np.array_equal(nonlinearity(ALL_TABLES[:300].astype(dtype)), nl[:300])
        # Bits above 15, and the sign, do not reach the 16 points.
        info = np.iinfo(dtype)
        tables = rng.integers(info.min, info.max, 300, dtype=dtype, endpoint=True)
        got = truth_table_bits(tables)
        assert got.dtype == np.uint8 and np.array_equal(got, _outer_product_bits(tables))
    grid = ALL_TABLES[:600].reshape(20, 30)
    assert truth_table_bits(grid).shape == (16, 20, 30)
    assert np.array_equal(truth_table_bits(grid), _outer_product_bits(grid))


def test_search_matches_brute_force_selection():
    # One pass over all 65,536 tables, from the definitions, against the
    # search in its own blocks, in blocks that leave a tail, and in one.
    nl, degree, terms, _, du = _brute_force_properties()
    balanced = np.bitwise_count(ALL_TABLES) == 8
    base = balanced & (nl == 4) & (degree == 3)
    for max_anf_terms in (5, 6, 7, 8):
        selected = base & (terms <= max_anf_terms)
        minimizers = tuple(np.flatnonzero(selected & (du == du[selected].min())).tolist())
        for block in (boolfun.SCAN_BLOCK, 5000, 1 << 16):
            with mock.patch.object(boolfun, "SCAN_BLOCK", block):
                rep = search_rule_candidates(max_anf_terms)
            assert rep.count_satisfying == selected.sum()
            assert rep.count_unrestricted == base.sum() == 10080
            assert rep.max_balanced_nonlinearity == nl[balanced].max()
            assert rep.du_min == du[selected].min()
            assert rep.minimizers == minimizers
    assert search_rule_candidates().count_satisfying == 4158


def test_search_memory_is_one_block():
    # A one-pass search holds (16, 65536) point arrays, and an int64 one
    # for the truth-table bits alone took its peak to 10.6 MB.
    tracemalloc.start()
    try:
        search_rule_candidates()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def test_word_degree_is_the_largest_coordinate_degree():
    # Width 8: each output coordinate of F_core^r gets its ANF from subset
    # parities over all 256 points.
    params = CipherParams(8)
    x = np.arange(256)
    within = (x[:, None] & ~x[None, :]) == 0              # [x, u]: x lies within u
    table, vals, want = _fcore_table(params), x, []
    for _ in range(5):
        vals = table[vals]
        coords = (vals[:, None] >> np.arange(8)) & 1           # (point, coordinate)
        coeff = (within.T.astype(np.int64) @ coords) & 1       # (monomial, coordinate)
        want.append(max((u.bit_count() for u in range(256) if coeff[u].any()), default=0))
    assert degree_series(8, 5, params.offsets) == want
    # F_core's coordinates are rotations of one another, so they share a
    # degree; random words over 16 points do not.
    rng = np.random.default_rng(6)
    within16 = within[:16, :16].T.astype(np.int64)
    for _ in range(200):
        words = rng.integers(0, 256, 16) & rng.integers(0, 256, 16)
        coeff = (within16 @ ((words[:, None] >> np.arange(8)) & 1)) & 1
        per_coord = [max((u.bit_count() for u in range(16) if coeff[u, i]), default=0)
                     for i in range(8)]
        assert algebraic_degree(words) == max(per_coord)
