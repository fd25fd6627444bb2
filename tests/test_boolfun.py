"""Boolean-function analysis: ANF, Walsh, DDT, the candidate search,
and iterated-layer degrees."""

import random

import numpy as np
import pytest

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
from egc128.params import RULE_A_TRUTH_TABLE
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
