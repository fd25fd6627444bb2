"""Exhaustive analysis of 4-input Boolean functions and iterated F_core.

Covers the algebraic normal form (binary Moebius transform), Walsh
spectrum and nonlinearity, difference distribution table, the full
65,536-function search behind the Rule-A selection, and exact algebraic
degree measurement of iterated F_core on reduced widths.

Each property is defined once for an int truth table (bit k = f(k)) or
an array of them: points or masks run along the first axis and tables
along the trailing ones, and one int table gives Python int results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cipher import f_core
from .params import RULE_A_TRUTH_TABLE, CipherParams

N_VARS = 4
TT_SIZE = 1 << N_VARS

#: Entries per array pass of the exhaustive scans: truth tables in
#: `search_rule_candidates`, input differences in
#: `trails.single_layer_min_weight`.
SCAN_BLOCK = 1 << 14


def truth_table_bits(table) -> np.ndarray:
    """(16,) + shape uint8 points f(k) of int truth tables, bit k = f(k)."""
    t = np.asarray(table).astype(np.uint16)    # the low 16 bits, of any integer dtype
    bits = t >> np.arange(TT_SIZE, dtype=np.uint16).reshape((-1,) + (1,) * t.ndim)
    bits &= 1
    return bits.astype(np.uint8)


def _per_table(values: np.ndarray):
    """A Python int for a 0-d result (one table), else the array."""
    return values if values.ndim else int(values)


def _butterfly_halves(a: np.ndarray):
    """The (lower, upper) halves of every block of each radix-2 stage
    along the first axis of a contiguous array whose length is a power
    of two, as views into it."""
    step = 1
    while step < a.shape[0]:
        # Entry i is in half (i & step) != 0 of its block of 2 * step.
        halves = a.reshape((-1, 2, step) + a.shape[1:])
        yield halves[:, 0], halves[:, 1]
        step <<= 1


def _xor_butterflies(a: np.ndarray) -> np.ndarray:
    """In-place binary Moebius transform along the first axis; on integer
    words it acts on every bit at once."""
    for lo, hi in _butterfly_halves(a):
        hi ^= lo
    return a


def _walsh_butterflies(a: np.ndarray) -> np.ndarray:
    """In-place unnormalised Walsh-Hadamard transform along the first
    axis of a signed integer array: entry u becomes
    sum_x a[x] * (-1)^(u.x)."""
    for lo, hi in _butterfly_halves(a):
        s = lo - hi
        lo += hi
        hi[...] = s
    return a


def moebius_transform(values) -> np.ndarray:
    """Binary Moebius transform along the first axis (one entry per
    point/monomial, a power-of-two length), mapping truth tables to ANF
    coefficients and back (an involution); on words it acts on every bit."""
    vals = np.array(values, order="C")          # a private copy, transformed in place
    n = vals.shape[0] if vals.ndim else 0
    if n == 0 or n & (n - 1):
        raise ValueError("table length must be a power of two")
    return _xor_butterflies(vals)


def anf_monomials(table: int) -> list[int]:
    """Masks of the monomials present in the ANF of a 16-entry table."""
    return np.flatnonzero(moebius_transform(truth_table_bits(table))).tolist()


def algebraic_degree(values):
    """Largest weight of a monomial in the ANF of the point values along
    the first axis, per table along the trailing axes.  Values are 0/1 or
    words whose bits are coordinate functions; the degree is then the
    maximum over the coordinates."""
    coeffs = moebius_transform(values)
    weight = np.bitwise_count(np.arange(len(coeffs))).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return _per_table(((coeffs != 0) * weight).max(axis=0))


def walsh_spectrum(table) -> np.ndarray:
    """W_f(a) = sum_x (-1)^(f(x) xor a.x) for all 16 masks a, along the
    first axis."""
    return _walsh_butterflies(1 - 2 * truth_table_bits(table).astype(np.int32))


def nonlinearity(table):
    """Distance to the nearest affine function: 8 - max|W_f|/2."""
    return _per_table(8 - np.abs(walsh_spectrum(table)).max(axis=0) // 2)


def ddt(table) -> np.ndarray:
    """(16, 2) + shape difference distribution table of single-output
    functions: entry [a, b] counts the x with f(x) xor f(x xor a) = b."""
    bits = truth_table_bits(table)
    x = np.arange(TT_SIZE)
    ones = (bits[x[:, None] ^ x] ^ bits).sum(axis=1, dtype=np.int64)
    return np.stack([TT_SIZE - ones, ones], axis=1)


def differential_uniformity(table):
    """Largest DDT entry over nonzero input differences, plus the DDT."""
    t = ddt(table)
    return _per_table(t[1:].max(axis=(0, 1))), t


@dataclass(frozen=True)
class CandidateSearchReport:
    """Outcome of the exhaustive 4-input function search.

    The selection keeps balanced functions of maximal nonlinearity 4 and
    algebraic degree 3 whose ANF stays within the gate budget
    (`max_anf_terms` monomials); `count_unrestricted` drops the gate
    budget.  `minimizers` is the full set achieving the minimum
    differential uniformity within the selection.
    """

    count_satisfying: int
    count_unrestricted: int
    max_balanced_nonlinearity: int
    du_min: int
    minimizers: tuple[int, ...]
    max_anf_terms: int

    @property
    def rule_a_selected(self) -> bool:
        return RULE_A_TRUTH_TABLE in self.minimizers


def search_rule_candidates(max_anf_terms: int = 7) -> CandidateSearchReport:
    """Enumerate all 65,536 truth tables and filter on balance,
    nonlinearity 4, degree 3 and ANF size.

    The property helpers run over `SCAN_BLOCK` tables at a time; the
    counts are summed, the selected tables kept in order, and the
    differential uniformity taken over the whole selection, so the
    result does not depend on the block size.
    """
    count_satisfying = count_unrestricted = max_nl = 0
    picks = []
    for lo in range(0, 1 << TT_SIZE, SCAN_BLOCK):
        tables = np.arange(lo, min(lo + SCAN_BLOCK, 1 << TT_SIZE))
        bits = truth_table_bits(tables)          # (point, table)
        balanced = bits.sum(axis=0) == 8
        nl = nonlinearity(tables)
        n_terms = moebius_transform(bits).sum(axis=0)
        base = balanced & (nl == 4) & (algebraic_degree(bits) == 3)
        selected = base & (n_terms <= max_anf_terms)
        count_satisfying += int(selected.sum())
        count_unrestricted += int(base.sum())
        max_nl = max(max_nl, int(nl.max(initial=0, where=balanced)))
        picks.append(tables[selected])

    sel = np.concatenate(picks)
    if not len(sel):
        raise ValueError(f"no balanced, nonlinearity-4, degree-3 function has at most "
                         f"{max_anf_terms} ANF terms")
    du = differential_uniformity(sel)[0]
    du_min = int(du.min())
    minimizers = tuple(int(t) for t in sel[du == du_min])

    return CandidateSearchReport(
        count_satisfying=count_satisfying,
        count_unrestricted=count_unrestricted,
        max_balanced_nonlinearity=max_nl,
        du_min=du_min,
        minimizers=minimizers,
        max_anf_terms=max_anf_terms,
    )


# Reference degree rows for the scaled instances (long-range offset
# width/4).  The 8-bit row is known not to match exact enumeration: the
# true degrees reach the full width 8 at rounds 3-4, while the reference
# row caps at width-1.  Reports carry a per-row match flag.
REFERENCE_DEGREE_ROWS = {
    8: (3, 5, 7, 7, 7),
    12: (3, 7, 10, 11, 11),
    16: (3, 7, 13, 15, 15),
}

MAX_EXHAUSTIVE_DEGREE_WIDTH = 16


def degree_series(width: int, rounds: int,
                  offsets: tuple[int, int, int] | None = None) -> list[int]:
    """Degrees of F_core^r for r = 1..rounds via exhaustive Moebius
    transform over all 2^width inputs: the largest degree of any output
    coordinate, all transformed at once as the bits of one word."""
    if width > MAX_EXHAUSTIVE_DEGREE_WIDTH:
        raise ValueError(f"width {width} too large for exhaustive transform")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    params = CipherParams(width, offsets)  # validates width and offsets
    vals = np.arange(1 << width, dtype=np.uint32)
    lut = f_core(vals, params)
    out = []
    for _ in range(rounds):
        vals = lut[vals]
        # The word's bits are the output coordinates.
        out.append(algebraic_degree(vals))
    return out


@dataclass(frozen=True)
class DegreeGrowthReport:
    width: int
    offsets: tuple[int, int, int]
    degrees: tuple[int, ...]
    reference: tuple[int, ...] | None
    matches_reference: bool | None


def degree_growth_report(width: int, rounds: int,
                         offsets: tuple[int, int, int] | None = None) -> DegreeGrowthReport:
    offsets = CipherParams(width, offsets).offsets
    degrees = tuple(degree_series(width, rounds, offsets))
    ref = REFERENCE_DEGREE_ROWS.get(width)
    match = None
    if ref is not None:
        match = degrees == ref[: len(degrees)]
    return DegreeGrowthReport(width, offsets, degrees, ref, match)
