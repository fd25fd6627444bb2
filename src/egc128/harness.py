"""Randomised empirical analyses of the full and reduced ciphers.

Every operation takes an :class:`RngConfig`; a given master seed fully
determines the report, independent of worker count, because each unit
of work draws from its own derived substream and results merge through
associative reductions (sums, maxima, counts).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import log2

import numpy as np

from .bitslice import (
    BitslicedCipher,
    collect_tiles,
    column_slices,
    counter_lanes,
    lanes_to_bits,
    pack_words,
    random_lane_blocks,
    random_lanes,
    tail_mask,
    tile_words,
    unpack_words,
)
from .boolfun import _walsh_butterflies
from .cipher import derive_round_keys, f_core, lfsr_step
from .params import RULE_A_TRUTH_TABLE, Block, CipherParams, MasterKey

_FULL_PARAMS = CipherParams.full()
# The engine keeps no per-call state, so threads may share it.
_FULL_ENGINE = BitslicedCipher(_FULL_PARAMS)
_U1 = np.uint64(1)
_U32 = np.uint64(32)


@dataclass(frozen=True)
class RngConfig:
    """Master seed plus the substream-splitting rule.

    Substreams are derived from SHA-256 of the master seed and a tag
    tuple, so any unit of work can be computed in isolation and in any
    order without changing its random draws.
    """

    master_seed: int = 0

    def generator(self, *tags) -> np.random.Generator:
        text = repr((self.master_seed,) + tags).encode()
        digest = hashlib.sha256(text).digest()
        return np.random.default_rng(int.from_bytes(digest[:16], "little"))


def _draw_u64s(rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` uniform 64-bit words from 2n 32-bit draws, high half first: the
    words that n pairs of scalar `rng.integers(0, 2**32)` draws give.

    A 32-bit draw is the low half of a raw 64-bit output and the next one
    its buffered high half, so with no half buffered the words are the
    next `n` raw outputs with their halves swapped, and the generator
    ends in the same state; that skips the fixed cost of `integers`."""
    bg = rng.bit_generator
    if bg.state["has_uint32"]:               # the buffered half comes first
        halves = rng.integers(0, 1 << 32, 2 * n, dtype=np.uint64)
        return halves[0::2] << _U32 | halves[1::2]
    raw = bg.random_raw(n)
    return raw << _U32 | raw >> _U32


def _pad64(n: int) -> int:
    return (n + 63) // 64 * 64


def _batches(total: int, size: int):
    """(index, first sample, count, 64-sample words) of each batch of at
    most `size` samples, in order, covering `total` samples."""
    for index, first in enumerate(range(0, total, size)):
        count = min(size, total - first)
        yield index, first, count, _pad64(count) // 64


def _run_units(worker, units, threads: int):
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [worker(u) for u in units]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, units))


def _random_pairs(rng: np.random.Generator, n: int, repeat: int = 1):
    """(L, R) plaintext and (KH, KL) key lanes of `n` random samples, each
    repeated `repeat` times; drawn key high, key low, left, right.

    The four arrays are packed side by side with one :func:`pack_words`
    call, so each is a column block of one (64, 4 * words) array."""
    lanes = pack_words(np.repeat(random_lanes(rng, 4, n), repeat, axis=1).reshape(-1), 64)
    q = lanes.shape[1] // 4
    kh, kl, lw, rw = (lanes[:, i * q : (i + 1) * q] for i in range(4))
    return (lw, rw), (kh, kl)


def _bit_lanes(bitpos: np.ndarray) -> np.ndarray:
    """(128, N/64) difference lanes in block-bit order (rows 64..127 are
    the left branch) in which sample j has only block bit bitpos[j] set."""
    lanes = np.zeros((128, len(bitpos) // 64), dtype=np.uint64)
    j = np.arange(len(bitpos))
    np.bitwise_or.at(lanes, (bitpos, j // 64), _U1 << (j % 64).astype(np.uint64))
    return lanes


def _single_bit_pairs(rng: np.random.Generator, n: int):
    """(L, R) plaintext lanes, difference lanes and (KH, KL) key lanes of
    `n` random (key, plaintext) samples, padded to whole words, each under
    a random single-bit input difference."""
    pad = _pad64(n)
    base, key = _random_pairs(rng, pad)
    return base, _bit_lanes(rng.integers(0, 128, pad)), key


# ---------------------------------------------------------------------------
# Avalanche
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvalancheReport:
    pairs: int
    samples_per_round: int
    mean_hd: tuple[float, ...]        # index r = state after round r
    fraction: tuple[float, ...]


def avalanche_profile(pairs: int, rounds: int = 20,
                      cfg: RngConfig = RngConfig()) -> AvalancheReport:
    """Mean Hamming distance between the states of P and P xor e_i,
    over `pairs` random (key, plaintext) pairs and all 128 bit flips."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    _FULL_PARAMS.round_count(rounds)                # raises outside 0..20
    # n = 128 * pairs samples, a whole number of 64-sample words.
    block = 2 * _FULL_PARAMS.branch_width
    n = pairs * block
    base, key = _random_pairs(cfg.generator("avalanche", pairs, rounds), pairs, block)
    bitpos = np.tile(np.arange(block), pairs)
    weight = [0] * (rounds + 1)
    for _, r, D in _FULL_ENGINE.pair_differences(*base, _bit_lanes(bitpos), key,
                                                 range(rounds + 1)):
        weight[r] += int(np.bitwise_count(D).sum())
    means = [w / n for w in weight]
    return AvalancheReport(pairs, n, tuple(means),
                           tuple(m / block for m in means))


# ---------------------------------------------------------------------------
# Strict avalanche criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SacReport:
    samples_per_bit: int
    matrix: np.ndarray                # (input bit, output bit) flip rates
    mean: float
    std: float
    minimum: float
    maximum: float
    fraction_tight: float             # entries in [0.45, 0.55]
    fraction_loose: float             # entries in [0.40, 0.60]
    per_input_bit_means: tuple[float, ...]
    per_input_mean_std: float


def _sac_group(words: int) -> int:
    """Input bits per SAC unit: as many `words`-word batches as fill,
    with both members of every pair, one width-64 engine tile
    (:func:`tile_words`).  Units twice as wide measured slower (8
    against 4 bits at 2,000 samples, 2 against 1 at 8,000), so 8,000
    samples (125 words) keep one bit per unit."""
    return max(1, tile_words(64) // (2 * words))


def sac_matrix(samples_per_bit: int, cfg: RngConfig = RngConfig(),
               threads: int = 1) -> SacReport:
    """Empirical flip probability of every output bit for every single
    input-bit flip, fresh random (key, plaintext) samples per input bit."""
    if samples_per_bit < 100:
        raise ValueError("need at least 100 samples per bit")
    n = samples_per_bit
    words = _pad64(n) // 64
    group = _sac_group(words)
    # Row i: the flip counts of the 128 output bits, in block-bit order,
    # under input bit i; one C-contiguous block, so the float reductions
    # below see the same memory order for every grouping.
    counts = np.zeros((128, 128), dtype=np.int64)

    def unit(first: int) -> None:
        bits = range(first, min(first + group, 128))
        # Bit i draws (KH, KL, L, R) from its own substream, as the row
        # blocks of one 256-lane draw, and the j-th bit of the unit takes
        # words j*words.. of each lane array.
        lanes = np.concatenate([random_lanes(cfg.generator("sac", samples_per_bit, i), 256, words)
                                for i in bits], axis=1)
        KH, KL, L, R = (lanes[b : b + 64] for b in range(0, 256, 64))
        # Lane i of the difference flips bit i in the first n samples of
        # bit i's columns; the padding pairs differ nowhere, so flip nothing.
        delta = np.zeros((128, len(bits) * words), dtype=np.uint64)
        for j, i in enumerate(bits):
            delta[i, j * words : (j + 1) * words] = tail_mask(n, words)
        # Column c: the flips of the 128 output bits in word c.
        flips = np.empty((128, len(bits) * words), dtype=np.uint8)
        for cs, _, D in _FULL_ENGINE.pair_differences(L, R, delta, (KH, KL)):
            np.bitwise_count(D, out=flips[:, cs])
        counts[first : bits.stop] = flips.reshape(128, len(bits), words).sum(axis=2).T

    _run_units(unit, range(0, 128, group), threads)
    P = counts / n
    per_input = P.mean(axis=1)
    return SacReport(
        samples_per_bit=n,
        matrix=P,
        mean=float(P.mean()),
        std=float(P.std()),
        minimum=float(P.min()),
        maximum=float(P.max()),
        fraction_tight=float(((P >= 0.45) & (P <= 0.55)).mean()),
        fraction_loose=float(((P >= 0.40) & (P <= 0.60)).mean()),
        per_input_bit_means=tuple(float(v) for v in per_input),
        per_input_mean_std=float(per_input.std()),
    )


# ---------------------------------------------------------------------------
# Bit independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BicReport:
    samples: int
    max_abs_correlation: float
    mean_abs_correlation: float
    fraction_above_0p05: float


def bic_correlations(samples: int, cfg: RngConfig = RngConfig()) -> BicReport:
    """Pairwise correlations among output-difference bits under random
    single-bit input differences."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    n = samples
    (L, R), delta, key = _single_bit_pairs(cfg.generator("bic", samples), n)
    D, = collect_tiles(_FULL_ENGINE.pair_differences(L, R, delta, key), L.shape[1])
    bits = lanes_to_bits(D)[:, :n]
    Xc = bits.astype(np.float64).T                          # (samples, 128)
    Xc -= Xc.mean(axis=0)
    # One 16-column block at a time: a whole-matrix std allocates a
    # second (samples, 128) float64 array, the peak of this function.
    sd = np.concatenate([Xc[:, j : j + 16].std(axis=0) for j in range(0, 128, 16)])
    sd[sd == 0] = 1.0
    C = (Xc.T @ Xc) / (n * np.outer(sd, sd))
    off = C[np.triu_indices(128, 1)]
    return BicReport(
        samples=n,
        max_abs_correlation=float(np.abs(off).max()),
        mean_abs_correlation=float(np.abs(off).mean()),
        fraction_above_0p05=float((np.abs(off) > 0.05).mean()),
    )


# ---------------------------------------------------------------------------
# Empirical maximum differential probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DpReport:
    delta: str
    rounds: int
    samples: int
    max_count: int
    max_probability: float
    weight_bits: float
    distinct_output_diffs: int


def empirical_max_dp(delta: Block, rounds: int, samples: int,
                     cfg: RngConfig = RngConfig()) -> DpReport:
    """Most frequent output difference over random plaintext pairs with
    fixed input difference, fresh random key per sample."""
    if delta.to_int() == 0:
        raise ValueError("input difference must be nonzero")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = cfg.generator("empirical_dp", delta.to_int(), rounds, samples)
    n = samples
    (L, R), key = _random_pairs(rng, _pad64(n))
    words = L.shape[1]
    D, = collect_tiles(_FULL_ENGINE.pair_differences(L, R, delta, key, rounds), words)
    # One unpack of the dR lanes and the dL lanes side by side.
    diffs = unpack_words(np.concatenate((D[:64], D[64:]), axis=1))
    max_count, distinct = _difference_runs(diffs[64 * words : 64 * words + n], diffs[:n])
    return DpReport(
        delta=delta.hex(),
        rounds=rounds,
        samples=n,
        max_count=max_count,
        max_probability=max_count / n,
        weight_bits=0.0 - log2(max_count / n),   # -x, but 0.0 (not -0.0) at x = 0
        distinct_output_diffs=distinct,
    )


def _difference_runs(dL: np.ndarray, dR: np.ndarray) -> tuple[int, int]:
    """(largest count, number of distinct pairs) of the pairs (dL[j], dR[j]).

    Sorting dL settles every sample whose dL occurs once: its pair does
    too.  Only the samples whose dL repeats are ordered by (dL, dR), where
    equal pairs form runs."""
    order = np.argsort(dL)
    same = dL[order[1:]] == dL[order[:-1]]
    repeated = np.zeros(len(dL), dtype=bool)
    repeated[1:] = same
    repeated[:-1] |= same
    sub = order[repeated]
    if not len(sub):
        return 1, len(dL)
    sub = sub[np.lexsort((dR[sub], dL[sub]))]
    l, r = dL[sub], dR[sub]
    starts = np.flatnonzero(np.concatenate([[True], (l[1:] != l[:-1]) | (r[1:] != r[:-1])]))
    runs = np.diff(starts, append=len(sub))
    return int(runs.max()), len(dL) - len(sub) + len(runs)


# ---------------------------------------------------------------------------
# Related-key round-key differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundHwStats:
    round: int
    mean: float
    std: float
    minimum: int
    maximum: int
    zero_count: int


@dataclass(frozen=True)
class RelatedKeyReport:
    n_diffs: int
    rounds: int
    per_round: tuple[RoundHwStats, ...]
    overall_mean: float
    total_zero_count: int
    case1_count: int                   # high-half difference nonzero
    case2_count: int                   # difference confined to low half


def related_key_scan(n_diffs: int, cfg: RngConfig = RngConfig()) -> RelatedKeyReport:
    """Round-key differences for random nonzero master-key differences.

    The round constants cancel, so the difference at round r is the low
    key-half difference XOR the r-step LFSR image of the high half (the
    step map is linear and fixes 0, which covers the case of a
    difference confined to the low half).
    """
    if n_diffs < 1:
        raise ValueError("n_diffs must be >= 1")
    rounds = _FULL_PARAMS.rounds
    rng = cfg.generator("related_key", n_diffs, rounds)
    dk_high, dk_low = _draw_u64s(rng, 2 * n_diffs).reshape(n_diffs, 2).T
    dk_low[(dk_high == 0) & (dk_low == 0)] = 1
    case1 = int(np.count_nonzero(dk_high))
    hw = np.empty((n_diffs, rounds), dtype=np.int64)
    for r, d in enumerate(round_key_difference(dk_high, dk_low)):
        hw[:, r] = np.bitwise_count(d)
    per_round = tuple(
        RoundHwStats(
            round=r,
            mean=float(hw[:, r].mean()),
            std=float(hw[:, r].std()),
            minimum=int(hw[:, r].min()),
            maximum=int(hw[:, r].max()),
            zero_count=int((hw[:, r] == 0).sum()),
        )
        for r in range(rounds)
    )
    return RelatedKeyReport(
        n_diffs=n_diffs,
        rounds=rounds,
        per_round=per_round,
        overall_mean=float(hw.mean()),
        total_zero_count=int((hw == 0).sum()),
        case1_count=case1,
        case2_count=n_diffs - case1,
    )


def round_key_difference(dk_high, dk_low) -> list:
    """Exact per-round round-key differences for the master-key difference
    (dk_high, dk_low): Python ints, or `uint64` arrays of differences
    that are stepped together (one array per round)."""
    d = dk_high
    out = []
    for _ in range(_FULL_PARAMS.rounds):
        out.append(dk_low ^ d)
        d = lfsr_step(d, _FULL_PARAMS)
    return out


# ---------------------------------------------------------------------------
# Invariant affine subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceTestReport:
    dims: tuple[int, ...]
    trials_per_dim: int
    invariants_found: int
    invariant_examples: tuple[tuple[int, ...], ...]
    total_evaluations: int


#: Coset points tested per subspace; larger subspaces are sampled.
SUBSPACE_MAX_POINTS = 4096
#: Coset points checked together.  At 64 KiB per uint64 array the map's
#: temporaries stay below malloc's 128 KiB mmap threshold, so they are
#: reused from the heap instead of being page-faulted in on every batch.
_SUBSPACE_BATCH_POINTS = 1 << 13


def invariant_subspace_search(dims, trials_per_dim: int,
                              cfg: RngConfig = RngConfig(),
                              map_fn=None) -> SubspaceTestReport:
    """Test random affine subspaces V + c of the 64-bit branch for
    invariance under the interaction layer: the subspace passes only if
    every sampled coset point maps into a single coset of V.

    Each trial draws from its own substream, and trials are checked in
    batches of at most `_SUBSPACE_BATCH_POINTS` points, so the report does
    not depend on the batch size.  `map_fn` substitutes another vectorised
    map over uint64 arrays (the identity map serves as the positive
    control)."""
    dims = tuple(sorted(dims))
    if not dims or any(d < 1 or d > 16 for d in dims):
        raise ValueError("dims must list one or more subspace dimensions in 1..16")
    if len(set(dims)) < len(dims):
        raise ValueError(f"dims must not repeat a dimension, got {dims}")
    if trials_per_dim < 1:
        raise ValueError("trials_per_dim must be >= 1")
    fn = map_fn if map_fn is not None else lambda pts: f_core(pts, _FULL_PARAMS)
    found = 0
    examples = []
    evals = 0
    for k in dims:
        points = min(1 << k, SUBSPACE_MAX_POINTS)
        per_batch = max(1, _SUBSPACE_BATCH_POINTS // points)
        for first in range(0, trials_per_dim, per_batch):
            pivots, bases, offsets, picks = [], [], [], []
            for trial in range(first, min(first + per_batch, trials_per_dim)):
                rng = cfg.generator("subspace", k, trial)
                words = _u64_stream(rng, k + 1)
                basis = _random_basis(words, k)
                pivots.append(list(basis))
                bases.append(list(basis.values()))
                offsets.append(next(words))
                if points < 1 << k:
                    picks.append(rng.integers(0, 1 << k, points))
            passed = _coset_check(np.array(pivots, dtype=np.uint64),
                                  np.array(bases, dtype=np.uint64),
                                  np.array(offsets, dtype=np.uint64), fn,
                                  np.array(picks) if picks else None)
            evals += len(bases) * points
            found += int(passed.sum())
            examples += [tuple(bases[t]) for t in np.flatnonzero(passed)[:8 - len(examples)]]
    return SubspaceTestReport(dims, trials_per_dim, found, tuple(examples), evals)


def _coset_check(pivots: np.ndarray, bases: np.ndarray, offsets: np.ndarray, fn,
                 picks=None) -> np.ndarray:
    """For each trial t, whether `fn` maps the coset offsets[t] + span(bases[t])
    into a single coset of that span.

    `bases` is (trials, k) in row-echelon form, ascending, and `pivots`
    holds each vector's leading bit, as `_random_basis` keys them.  Point
    i of a coset is its offset XOR the basis vectors at the set bits of
    i; all 2^k points are checked, or only those at the (trials, points)
    indices `picks`."""
    trials, k = bases.shape
    # Doubling: points m..2m-1 are points 0..m-1 XOR the next vector.
    pts = np.empty((trials, 1 << k), dtype=np.uint64)
    pts[:, 0] = offsets
    for j in range(k):
        np.bitwise_xor(pts[:, :1 << j], bases[:, j:j + 1], out=pts[:, 1 << j:2 << j])
    if picks is not None:
        pts = np.take_along_axis(pts, picks, 1)
    images = fn(pts.reshape(-1)).reshape(pts.shape)
    diffs = images ^ images[:, :1]
    # A trial that fails nearly always fails within its first points, so
    # every trial reduces its first 64 and only the ones left reduce the rest.
    passed = np.ones(trials, dtype=bool)
    for cols in (slice(0, 64), slice(64, None)):
        d = diffs[passed, cols]
        # Reduce from the highest pivot down: clearing a high pivot may set
        # lower bits, which later steps then absorb.
        bit = np.empty_like(d)
        for j in reversed(range(k)):
            np.right_shift(d, pivots[passed, j:j + 1], out=bit)
            bit &= _U1
            bit *= bases[passed, j:j + 1]
            d ^= bit
        passed[passed] = ~d.any(axis=1)
    return passed


def _u64_stream(rng: np.random.Generator, n: int):
    """Uniform 64-bit words as Python ints: `n` drawn at once, then one at a
    time, in the order of single `_draw_u64s` draws."""
    yield from _draw_u64s(rng, n).tolist()
    while True:
        yield int(_draw_u64s(rng, 1)[0])


def _random_basis(words, k: int) -> dict[int, int]:
    """The first k linearly independent 64-bit words of the iterator
    `words` (dependent ones are skipped), kept in row-echelon form (each
    has a unique leading bit), which makes coset-membership reduction
    cheap; keyed by that leading bit, ascending."""
    echelon: dict[int, int] = {}
    for w in words:
        while w:
            top = w.bit_length() - 1
            if top in echelon:
                w ^= echelon[top]
            else:
                break
        if w:
            echelon[w.bit_length() - 1] = w
            if len(echelon) == k:
                break
    return dict(sorted(echelon.items()))


# ---------------------------------------------------------------------------
# Reduced-cipher zero-differential scan
# ---------------------------------------------------------------------------

REDUCED_SCAN_PARAMS = CipherParams(16)

#: Input differences of the standard scan: single bits at the branch
#: boundaries and interior, plus adjacent pairs within and across the
#: branch boundary and around the block wraparound (12 differences,
#: Hamming weight <= 2, on the 32-bit reduced block).
STANDARD_SCAN_DELTAS = (
    0x00000001, 0x00000002, 0x00000100, 0x00008000,
    0x00010000, 0x00020000, 0x01000000, 0x80000000,
    0x00000003, 0x00018000, 0x00030000, 0x80000001,
)
STANDARD_SCAN_ROUNDS = (2, 3, 4)
#: Samples per zero-scan batch; each sampled batch has its own substream.
#: A chunk is streamed: drawn and encrypted in blocks of engine tiles, so
#: no lane array of a whole chunk exists.
ZERO_SCAN_CHUNK = 1 << 22
# Engine tiles per block (8,192 words, 2 MB of input lanes at width 16).
# Over the 36 standard combinations at 2^22 samples, four tiles took
# about 23,000 minor page faults per pass against 1,700 (first pass) and
# 18 (later passes) for eight; sixteen peaked 2 MB higher, no faster.
_ZERO_SCAN_BLOCK_TILES = 8


def standard_zero_diff_combos() -> list[tuple[Block, int]]:
    return [(Block.from_int(d, 16), r)
            for d in STANDARD_SCAN_DELTAS for r in STANDARD_SCAN_ROUNDS]


@dataclass(frozen=True)
class ZeroDiffReport:
    delta: str
    rounds: int
    samples: int
    mode: str
    zero_output_hits: int
    single_bit_output_hits: int | None   # only checked at rounds 2 and 3
    key: str


def reduced_zero_diff_scan(delta: Block, rounds: int,
                           samples: int = 1 << 24,
                           cfg: RngConfig = RngConfig(),
                           exhaustive: bool = False) -> ZeroDiffReport:
    """Count plaintext pairs with zero (and, at rounds 0, 2 and 3,
    single-bit) output difference on the reduced 32-bit cipher under a
    fixed key drawn from `cfg`.  A rounds-4 scan counts only zero
    outputs, so it reduces each tile to the OR of its difference lanes
    instead of counting to two.

    Sampled mode draws `samples` random plaintexts; exhaustive mode
    sweeps all 2^32 plaintexts in counter order.  Either way L is lanes
    0..15 of a 32-lane batch and R lanes 16..31.  `rounds=0` is a
    harness self-check: the output difference then equals the input
    difference on every pair."""
    p = REDUCED_SCAN_PARAMS
    if delta.width != p.branch_width:
        raise ValueError("difference must be a 16-bit-branch block")
    if delta.to_int() == 0:
        raise ValueError("input difference must be nonzero")
    if rounds not in (0, 2, 3, 4):
        raise ValueError("supported round counts are 0 (self-check), 2, 3, 4")
    if not exhaustive and samples < 1:
        raise ValueError("samples must be >= 1 in sampled mode")
    krng = cfg.generator("zero_diff_key")
    key = MasterKey(int(krng.integers(1, 1 << 16)), int(krng.integers(0, 1 << 16)), 16)
    engine = BitslicedCipher(p)
    check_hw1 = rounds in (0, 2, 3)
    total = 1 << 32 if exhaustive else samples
    zero_hits = 0
    hw1_hits = 0
    block = _ZERO_SCAN_BLOCK_TILES * tile_words(p.branch_width)
    for chunk_idx, done, m, words in _batches(total, ZERO_SCAN_CHUNK):
        if exhaustive:
            blocks = ((bs, counter_lanes(done + 64 * bs.start, bs.stop - bs.start, 32))
                      for bs in column_slices(words, block))
        else:
            rng = cfg.generator("zero_diff", delta.to_int(), rounds, chunk_idx)
            blocks = random_lane_blocks(rng, 32, words, block)
        for bs, lanes in blocks:
            L, R = lanes[:16], lanes[16:]
            valid = tail_mask(m - 64 * bs.start, bs.stop - bs.start)
            for cs, _, D in engine.pair_differences(L, R, delta, key, rounds):
                v = valid[cs]
                if check_hw1:
                    some, many = _saturating_count(D)
                    hw1_hits += int(np.bitwise_count(some & ~many & v).sum())
                else:                          # only zero outputs count
                    some = np.bitwise_or.reduce(D, axis=0)
                zero_hits += int(np.bitwise_count(~some & v).sum())
    return ZeroDiffReport(
        delta=delta.hex(),
        rounds=rounds,
        samples=total,
        mode="exhaustive" if exhaustive else "sampled",
        zero_output_hits=zero_hits,
        single_bit_output_hits=hw1_hits if check_hw1 else None,
        key=key.hex(),
    )


def _saturating_count(D: np.ndarray):
    """Per sample, whether the 2w difference lanes D (2w, m) hold at least
    one and at least two set bits: a halving OR/AND tree over the lane
    axis, run in place on D.  Returns the (m,) words (some, many)."""
    dR, dL = D[: len(D) // 2], D[len(D) // 2 :]
    dR ^= dL
    dL |= dR                                  # dR | dL of the inputs
    dR ^= dL                                  # dR & dL of the inputs
    some, many = dL, dR
    n = len(some)
    while n > 1:
        h = (n + 1) // 2                      # an odd middle row waits a level
        lo, hi = slice(0, n - h), slice(h, n)
        many[lo] |= many[hi]
        np.bitwise_and(some[lo], some[hi], out=many[hi])
        many[lo] |= many[hi]
        some[lo] |= some[hi]
        n = h
    return some[0], many[0]


def zero_diff_scan_all(samples: int = 1 << 24, cfg: RngConfig = RngConfig(),
                       threads: int = 1) -> list[ZeroDiffReport]:
    """The standard 36-combination scan (12 differences x rounds 2-4)."""
    combos = standard_zero_diff_combos()
    worker = lambda c: reduced_zero_diff_scan(c[0], c[1], samples, cfg)
    return _run_units(worker, combos, threads)


# ---------------------------------------------------------------------------
# Exact single-bit output counts (second route for the zero-differential scan)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _fcore_table(params: CipherParams) -> np.ndarray:
    """F_core of every branch value, evaluated vertex by vertex from
    RULE_A_TRUTH_TABLE (independent of the word-level Rule-A formula).

    Built once per parameter set and shared, so the array is read-only;
    a few widths stay cached (a width-20 table is 8 MB)."""
    w = params.branch_width
    x = np.arange(1 << w, dtype=np.int64)
    out = np.zeros_like(x)
    reads = (0,) + params.offsets
    for i in range(w):
        idx = sum(((x >> ((i + o) % w)) & 1) << j for j, o in enumerate(reads))
        out |= ((RULE_A_TRUTH_TABLE >> idx) & 1) << i
    out.flags.writeable = False
    return out


def exact_single_bit_output_count(delta: Block, rounds: int, key: MasterKey) -> int:
    """Number of the 2^(2w) plaintexts P whose output difference
    E(P) xor E(P xor delta) has Hamming weight 1 after 2 or 3 rounds
    under `key`, computed exactly from 2^w-point F_core tables of the
    cipher ``CipherParams(w)``, w = ``delta.width``.

    With (a, b) = delta, the map (L0, R0) -> (R0, R1) is a bijection for
    a fixed key, so R0 and R1 are independent and uniform.  The
    differences are c = a xor dF(R0; b) into R1 and e = b xor dF(R1; c)
    into R2, where dF(x; d) = F(x) xor F(x xor d).  After 2 rounds the output
    difference is (c, e); after 3 it is (e, c xor dF(R2; e)) with
    R2 = R0 xor F(R1) xor RK_1, whose sum over (R0, R1) is an XOR
    correlation that the Walsh-Hadamard transform evaluates exactly.
    Divided by 2^(2w), the count is the Markov-cipher (uniform
    plaintext) probability of Lai, Massey and Murphy (EUROCRYPT 1991).
    """
    w = delta.width
    if key.width != w:
        raise ValueError(f"key width {key.width} does not match difference width {w}")
    if delta.to_int() == 0:
        raise ValueError("input difference must be nonzero")
    if rounds not in (2, 3):
        raise ValueError("exact counts are available at rounds 2 and 3")
    if w > 20:
        raise ValueError("exact counts need branch width <= 20")
    params = CipherParams(w)
    n = 1 << w
    F = _fcore_table(params)
    x = np.arange(n, dtype=np.int64)
    dF = lambda d: F ^ F[x ^ d]
    singles = [1 << i for i in range(w)]
    a, b = delta.left, delta.right
    c_of_r0 = a ^ dF(b)
    cs, n_c = np.unique(c_of_r0, return_counts=True)
    dF_c = {int(c): dF(int(c)) for c in cs}

    # Single-bit c with dF(R1; c) = b, i.e. e = 0: the output difference
    # is (c, 0) after 2 rounds and (0, c) after 3.
    total = sum(int(nc) * int((dF_c[int(c)] == b).sum())
                for c, nc in zip(cs, n_c) if int(c).bit_count() == 1)
    if rounds == 2:
        if b.bit_count() == 1 and cs[0] == 0:    # c = 0: output (0, b)
            total += int(n_c[0]) * n
        return total

    # Rounds 3, single-bit e: count (R0, R1) with c(R0) = c,
    # dF(R1; c) = b xor e and dF(R0 xor F(R1) xor RK_1; e) = c.
    rk1 = derive_round_keys(key, params)[1]
    dF_e = {e: dF(e) for e in singles}
    g_hat = {}
    for c in dF_c:
        for e in singles:
            t = dF_c[c] == b ^ e
            q = dF_e[e] == c
            if not t.any() or not q.any():
                continue
            if c not in g_hat:
                g_hat[c] = _walsh_butterflies((c_of_r0 == c).astype(np.int64))
            corr = _walsh_butterflies(g_hat[c] * _walsh_butterflies(q.astype(np.int64))) // n
            h = np.bincount(F[t] ^ rk1, minlength=n)
            total += int(h @ corr)
    return total


# ---------------------------------------------------------------------------
# Truncated coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    pairs: int
    checkpoints: tuple[int, ...]
    never_active_counts: tuple[int, ...]
    trials_to_full_coverage: tuple[int | None, ...]


def truncated_coverage_scan(pairs: int, checkpoints=(5, 10, 15, 18, 20),
                            cfg: RngConfig = RngConfig()) -> CoverageReport:
    """Which state-difference bits ever activate at the checkpoint
    rounds across random single-bit differential pairs, and how many
    trials it takes to see every bit active at least once."""
    if pairs < 100:
        raise ValueError("need at least 100 pairs")
    checkpoints = tuple(sorted(checkpoints))
    rounds = _FULL_PARAMS.rounds
    if not checkpoints or not all(0 <= c <= rounds for c in checkpoints):
        raise ValueError(f"checkpoints must be one or more rounds in 0..{rounds}")
    rng = cfg.generator("coverage", pairs, checkpoints)
    (L, R), delta, key = _single_bit_pairs(rng, pairs)
    # Per checkpoint round and block bit (rows 64.. the left branch), the
    # index of the first sample whose difference sets it.  It stays
    # `pairs` where no pair does: the padding samples past `pairs` cannot
    # lower it.
    first = {r: np.full(128, pairs) for r in checkpoints}
    for cs, r, D in _FULL_ENGINE.pair_differences(L, R, delta, key, checkpoints):
        nonzero = D != 0
        word = nonzero.argmax(axis=1)
        lowest = D[np.arange(128), word]
        ctz = np.bitwise_count(~lowest & (lowest - _U1))   # trailing zeros
        found = np.where(nonzero.any(axis=1), 64 * (cs.start + word) + ctz, pairs)
        np.minimum(first[r], found, out=first[r])
    never = tuple(int((first[r] == pairs).sum()) for r in checkpoints)
    cover = tuple(None if k else int(first[r].max()) + 1 for r, k in zip(checkpoints, never))
    return CoverageReport(pairs, checkpoints, never, cover)
