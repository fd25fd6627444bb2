"""Truncated differential/linear trail activity over the Feistel structure.

The counts here are active-vertex counts in a model where a vertex's
output difference can never cancel, so they do not bound the
probability of a characteristic: a single-bit input difference leaves
F_core's output unchanged with probability 3/32.  At seed 0, criterion
17 measures 6-round differentials of 8.57-11.97 bits, where the model's
6-round count of 125 active vertices gives 125 x 0.415 = 51.9 bits.

In the truncated model a bit position is only "active" or "inactive".
A vertex of the interaction layer activates when any bit of its
read-set (itself plus its graph inputs) is active, active vertices
always emit an active output, and the Feistel coupling ORs the branch
activity together:

    s_F(r, i) = OR of R_r over read-set(i)
    L_{r+1}   = R_r
    R_{r+1}   = L_r OR s_F(r, .)

On binary activity variables these rules make the whole trace a
deterministic function of the starting pattern, and OR-propagation is
monotone in the start, so the minimum total activation over admissible
starts is attained on single-bit-per-branch patterns.  That turns the
minimum-activity search into a small enumeration whose optima match an exact
integer-programming solve of the same constraint system (the LP file
writer in :mod:`egc128.lpmodel` emits that system for third-party
verification).

Boundary conditions: differential trails need at least one active bit
in each input branch; linear trails need at least one active input bit
overall plus a nontrivial output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations, islice
from math import log2

import numpy as np

from .boolfun import TT_SIZE, differential_uniformity
from .graphs import GraphTopology
from .params import RULE_A_TRUTH_TABLE, CipherParams

_RULE_A_DU, _RULE_A_DDT = differential_uniformity(RULE_A_TRUTH_TABLE)

#: Worst-case differential weight contributed by one active vertex,
#: -log2(DU/16) bits for Rule-A's differential uniformity DU = 12.
W_NODE = -log2(_RULE_A_DU / TT_SIZE)

MODES = ("differential", "linear")


@dataclass(frozen=True)
class ActivationTrace:
    """Full OR-propagation trace from one starting pattern."""

    n: int
    l_activity: tuple[int, ...]      # L_0 .. L_R as bitmasks
    r_activity: tuple[int, ...]      # R_0 .. R_R
    sf_activity: tuple[int, ...]     # s_F(0,.) .. s_F(R-1,.)
    round_counts: tuple[int, ...]
    total_active: int


def propagate_activation(l0: int, r0: int, rounds: int, g: GraphTopology) -> ActivationTrace:
    """Deterministic OR-propagation of (L_0, R_0) activity."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    masks = g.reader_masks
    full = (1 << g.n) - 1
    L, R = l0 & full, r0 & full
    ls, rs, sfs, counts = [L], [R], [], []
    for _ in range(rounds):
        sf = 0
        rem = R
        while rem:
            j = (rem & -rem).bit_length() - 1
            sf |= masks[j]
            rem &= rem - 1
        sfs.append(sf)
        counts.append(sf.bit_count())
        L, R = R, L | sf
        ls.append(L)
        rs.append(R)
    return ActivationTrace(g.n, tuple(ls), tuple(rs), tuple(sfs),
                           tuple(counts), sum(counts))


@dataclass(frozen=True)
class TrailBoundReport:
    mode: str
    rounds: int
    min_active: int
    weight_bits: float | None           # differential mode only
    start_left: int
    start_right: int
    round_counts: tuple[int, ...]


def _candidate_starts(mode: str, g: GraphTopology) -> list[tuple[int, int]]:
    # Monotonicity reduces the search to single-bit-per-branch starts;
    # vertex transitivity of circulant graphs then fixes one bit at
    # position 0.
    circulant = g.circulant_offsets is not None
    if mode == "differential":
        if circulant:
            return [(1, 1 << b) for b in range(g.n)]
        return [(1 << a, 1 << b) for a in range(g.n) for b in range(g.n)]
    if mode == "linear":
        if circulant:
            return [(1, 0), (0, 1)]
        return [(1 << a, 0) for a in range(g.n)] + [(0, 1 << b) for b in range(g.n)]
    raise ValueError(f"unknown mode {mode!r}")


def _start_key(l0: int, r0: int) -> tuple:
    # Tie-break among equally optimal starts: lexicographically smallest
    # (branch, bit offset), i.e. prefer a left-branch bit, then low bits.
    return (0 if l0 else 1, l0.bit_length(), r0.bit_length())


def _start_traces(mode: str, rounds: int, g: GraphTopology):
    """((l0, r0), trace) of every admissible start, propagated `rounds`
    rounds; the r-round trace of a start is a prefix of its trace."""
    return [((l0, r0), propagate_activation(l0, r0, rounds, g))
            for l0, r0 in _candidate_starts(mode, g)]


def min_active(mode: str, rounds: int, g: GraphTopology) -> TrailBoundReport:
    """Minimum cumulative active-vertex count over admissible starts."""
    (l0, r0), best = min(_start_traces(mode, rounds, g),
                         key=lambda st: (st[1].total_active, *_start_key(*st[0])))
    weight = differential_weight(best.total_active) if mode == "differential" else None
    return TrailBoundReport(mode, rounds, best.total_active, weight, l0, r0,
                            best.round_counts)


@dataclass(frozen=True)
class BoundSeries:
    mode: str
    rounds: tuple[int, ...]
    min_active: tuple[int, ...]
    growth_rates: tuple[float, ...]     # ratio of consecutive minima (inf after 0)
    weights_bits: tuple[float, ...] | None


def bound_series(mode: str, max_rounds: int, g: GraphTopology) -> BoundSeries:
    """`min_active` at 1..max_rounds rounds, from one propagation per
    start: the r-round totals are prefix sums of its round counts."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    totals = [accumulate(trace.round_counts)
              for _, trace in _start_traces(mode, max_rounds, g)]
    counts = [min(per_round) for per_round in zip(*totals)]
    growth = tuple(counts[i] / counts[i - 1] if counts[i - 1] else float("inf")
                   for i in range(1, len(counts)))
    weights = None
    if mode == "differential":
        weights = tuple(differential_weight(c) for c in counts)
    return BoundSeries(mode, tuple(range(1, max_rounds + 1)), tuple(counts),
                       growth, weights)


def differential_weight(count: int) -> float:
    """Total weight in bits of `count` active vertices at worst-case
    per-vertex probability DU/16 = 3/4."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return count * W_NODE


def extrapolate_full(value: float, mode: str) -> float:
    """Extend a proven half-depth bound to the full 20-round cipher.

    Differential mode: the proven 10-round weight plus ten fully
    saturated rounds of n = 64 active vertices each.  Linear mode: five
    independent 4-round segments, each contributing the proven 4-round
    active count (pass that count as `value`).
    """
    full = CipherParams.full()
    if mode == "differential":
        return value + differential_weight(full.rounds // 2 * full.branch_width)
    if mode == "linear":
        return 5 * value
    raise ValueError(f"unknown mode {mode!r}")


#: Differences scored per array pass in `single_layer_min_weight`.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SingleLayerReport:
    width: int
    offsets: tuple[int, int, int]
    min_weight_bits: float
    optimal_delta: int
    restricted_to_hamming: int | None
    n_deltas_examined: int


def single_layer_min_weight(width: int,
                            offsets: tuple[int, int, int] | None = None,
                            exhaustive_limit: int = 1 << 20,
                            max_hamming: int = 4) -> SingleLayerReport:
    """Exact minimum differential weight of one interaction layer.

    Every nonzero input difference fixes a 4-bit local difference at
    each vertex; the vertex then picks the cheapest admissible output
    difference from the Rule-A DDT, subject to the global output
    difference being nonzero.  Widths whose difference space exceeds
    `exhaustive_limit` are scanned over differences of Hamming weight
    at most `max_hamming` (the optimum sits at single-bit differences,
    and the restriction is recorded in the report).

    Differences are scored as `uint64` arrays of at most `_CHUNK`
    entries.  Vertex costs are added in vertex order from 0.0, as a
    per-difference loop would, so the weights are the same floats; ties
    go to the first difference in enumeration order.
    """
    if width > 32:
        raise ValueError("single-layer search supports widths up to 32")
    if max_hamming < 1:
        raise ValueError("max_hamming must be >= 1")
    offsets = CipherParams(width, offsets).offsets   # validates both
    # base_cost[a]: cheapest output difference of a vertex with local input
    # difference a; flip_cost[a]: the extra cost of forcing output 1 (inf
    # where the DDT has no such transition).
    with np.errstate(divide="ignore"):
        cost = -np.log2(_RULE_A_DDT / TT_SIZE)
    base_cost = cost.min(axis=1)
    flip_cost = cost[:, 1] - base_cost

    if (1 << width) - 1 <= exhaustive_limit:
        chunks = (np.arange(lo, min(lo + _CHUNK, 1 << width), dtype=np.uint64)
                  for lo in range(1, 1 << width, _CHUNK))
        restricted = None
    else:
        chunks = _bounded_weight_chunks(width, max_hamming)
        restricted = max_hamming

    graph = GraphTopology.from_offsets(width, offsets)
    reads = [(i, *r) for i, r in enumerate(graph.read_sets)]
    best = None
    best_delta = 0
    examined = 0
    for deltas in chunks:
        examined += len(deltas)
        bits = np.empty((width, len(deltas)), dtype=np.uint8)
        for j in range(width):
            bits[j] = deltas >> j & 1
        total = np.zeros(len(deltas))
        penalty = np.full(len(deltas), np.inf)
        for i, j1, j2, j3 in reads:
            a = bits[i] | bits[j1] << 1 | bits[j2] << 2 | bits[j3] << 3
            total += np.take(base_cost, a)
            np.minimum(penalty, np.take(flip_cost, a), out=penalty)
        total += penalty           # inf: no nonzero output reachable
        k = int(np.argmin(total))
        if np.isfinite(total[k]) and (best is None or total[k] < best):
            best, best_delta = float(total[k]), int(deltas[k])
    return SingleLayerReport(width, tuple(offsets), best, best_delta,
                             restricted, examined)


def _bounded_weight_chunks(width: int, max_hamming: int):
    """The differences of Hamming weight 1..max_hamming, by weight and
    then in lexicographic order of their bit positions, as `uint64`
    arrays of at most `_CHUNK` entries."""
    for hw in range(1, max_hamming + 1):
        positions = combinations(range(width), hw)
        while True:
            flat = np.fromiter(chain.from_iterable(islice(positions, _CHUNK)), dtype=np.uint64)
            if not len(flat):
                break
            yield np.bitwise_or.reduce(np.uint64(1) << flat.reshape(-1, hw), axis=1)
