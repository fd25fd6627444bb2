"""Exhaustive analysis of 4-input Boolean functions and iterated F_core.

Covers the algebraic normal form (binary Moebius transform), Walsh
spectrum and nonlinearity, difference distribution table, the full
65,536-function search behind the Rule-A selection, and exact algebraic
degree measurement of iterated F_core on reduced widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cipher import f_core
from .params import RULE_A_TRUTH_TABLE, CipherParams, scaled_offsets

N_VARS = 4
TT_SIZE = 1 << N_VARS


def truth_table_bits(table: int) -> np.ndarray:
    """0/1 vector of a truth table given as an integer, bit k = f(k)."""
    return ((table >> np.arange(TT_SIZE)) & 1).astype(np.uint8)


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
    """Binary Moebius transform mapping a truth table to its ANF
    coefficient vector (and back: the transform is an involution).

    Input length must be a power of two; one entry per point/monomial.
    """
    vals = np.array(values, dtype=np.uint8, copy=True) & 1
    n = vals.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError("table length must be a power of two")
    return _xor_butterflies(vals)


def anf_monomials(table: int) -> list[int]:
    """Masks of the monomials present in the ANF of a 16-entry table."""
    coeffs = moebius_transform(truth_table_bits(table))
    return [m for m in range(TT_SIZE) if coeffs[m]]


def algebraic_degree(values) -> int:
    coeffs = moebius_transform(values)
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return 0
    return int(max(int(m).bit_count() for m in nz))


def walsh_spectrum(table: int) -> np.ndarray:
    """W_f(a) = sum_x (-1)^(f(x) xor a.x) for all 16 masks a."""
    return _walsh_butterflies(1 - 2 * truth_table_bits(table).astype(np.int32))


def nonlinearity(table: int) -> int:
    """Distance to the nearest affine function: 8 - max|W_f|/2."""
    return int(8 - np.abs(walsh_spectrum(table)).max() // 2)


def ddt(table: int) -> np.ndarray:
    """16x2 difference distribution table of a single-output function."""
    bits = truth_table_bits(table)
    out = np.zeros((TT_SIZE, 2), dtype=np.int64)
    x = np.arange(TT_SIZE)
    for a in range(TT_SIZE):
        d = bits ^ bits[x ^ a]
        out[a, 1] = int(d.sum())
        out[a, 0] = TT_SIZE - out[a, 1]
    return out


def differential_uniformity(table: int) -> tuple[int, np.ndarray]:
    """Largest DDT entry over nonzero input differences, plus the DDT."""
    t = ddt(table)
    return int(t[1:].max()), t


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

    Fully vectorised single pass; the result is deterministic and
    independent of any partitioning of the table space.
    """
    tables = np.arange(1 << TT_SIZE, dtype=np.uint32)
    bits = ((tables[:, None] >> np.arange(TT_SIZE)[None, :]) & 1).astype(np.int8)
    balanced = bits.sum(axis=1) == 8

    cols = bits.T.copy()                         # (point, table)
    walsh = _walsh_butterflies(1 - 2 * cols.astype(np.int32))
    nl = 8 - np.abs(walsh).max(axis=0) // 2

    anf = _xor_butterflies(cols)                 # (monomial, table)
    mono_deg = np.array([m.bit_count() for m in range(TT_SIZE)])
    deg = (anf * mono_deg[:, None]).max(axis=0)
    n_terms = anf.sum(axis=0)

    base = balanced & (nl == 4) & (deg == 3)
    selected = base & (n_terms <= max_anf_terms)

    sel_idx = np.nonzero(selected)[0]
    if not len(sel_idx):
        raise ValueError(f"no balanced, nonlinearity-4, degree-3 function has at most "
                         f"{max_anf_terms} ANF terms")
    idx = np.arange(TT_SIZE)
    du = np.zeros(len(sel_idx), dtype=np.int64)
    sel_bits = bits[sel_idx]
    for a in range(1, TT_SIZE):
        d1 = (sel_bits ^ sel_bits[:, idx ^ a]).sum(axis=1)
        du = np.maximum(du, np.maximum(d1, TT_SIZE - d1))
    du_min = int(du.min())
    minimizers = tuple(int(t) for t in sel_idx[du == du_min])

    return CandidateSearchReport(
        count_satisfying=int(selected.sum()),
        count_unrestricted=int(base.sum()),
        max_balanced_nonlinearity=int(nl[balanced].max()),
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
    transform over all 2^width inputs."""
    if width > MAX_EXHAUSTIVE_DEGREE_WIDTH:
        raise ValueError(f"width {width} too large for exhaustive transform")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    params = CipherParams.reduced(width, offsets)  # validates width and offsets
    size = 1 << width
    lut = f_core(np.arange(size, dtype=np.uint32), params)
    vals = np.arange(size, dtype=np.uint32)
    pc = np.bitwise_count(np.arange(size, dtype=np.uint32)).astype(np.uint8)
    out = []
    for _ in range(rounds):
        vals = lut[vals]
        # The butterflies act on all output coordinates at once.
        nz = np.nonzero(_xor_butterflies(vals.copy()))[0]
        out.append(int(pc[nz].max()) if len(nz) else 0)
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
    if offsets is None:
        offsets = scaled_offsets(width)
    degrees = tuple(degree_series(width, rounds, offsets))
    ref = REFERENCE_DEGREE_ROWS.get(width)
    match = None
    if ref is not None:
        match = degrees == ref[: len(degrees)]
    return DegreeGrowthReport(width, offsets, degrees, ref, match)
