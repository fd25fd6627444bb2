"""Bitsliced batch evaluation of the cipher for the statistical harness.

Layout: a batch of N samples is stored as one uint64 "lane" array per
state bit, shape (width, N/64); bit j of word w in lane b is bit b of
sample 64*w + j.  Every cipher operation (Rule-A, branch XOR, LFSR
update, round-constant injection) is bit-local, so the whole cipher
runs as vectorised word operations, 64 samples per machine word
(the layout of Biham, "A fast new DES implementation in software",
FSE 1997).

Layout conversion: the 64 samples of one word column, read as 64-bit
words, and their 64 lanes are the two orientations of one 64x64 bit
matrix.  :func:`pack_words` and :func:`unpack_words` therefore convert
a whole batch with one word-level transpose, :func:`_transpose64`: six
masked-swap stages of in-place ufuncs over every column at once, with
no per-bit intermediate.  :func:`lanes_to_bits` builds the uint8 bit
matrix for the analyses that need single bits.

Cache tiling: :meth:`BitslicedCipher.encrypt` walks the word axis in
column tiles of ``_TILE_BYTES`` per lane array (1,024 words at width
16, 256 at width 64) and runs every round on one tile before moving to
the next, so the working set stays in L2 instead of streaming each
round's temporaries through memory.  Each call allocates its tile
buffers once, and a round is a fixed sequence of in-place ufuncs on
them:

* the circulant reads of F_core are slice rotations: a tile of R
  carries copies of its wraparound lanes (``_Padding``), so the lanes
  read at each neighbour offset form one contiguous row range;
* the round key enters as one XOR with a precomputed ``(width, 1)``
  broadcast column, which also carries F_core's final NOT;
* with one key per sample, the key-schedule LFSR is unrolled into rows
  (state r is rows r..r+width-1), so a step appends one lane instead of
  shifting all of them.

Snapshot rounds are written tile by tile into preallocated outputs.
The engine keeps no scratch on the instance, so one engine may serve
several threads at once.

Results are bit-identical to the scalar implementation in
:mod:`egc128.cipher`; the test suite cross-checks the two routes.
"""

from __future__ import annotations

import numpy as np

from .cipher import derive_round_keys
from .params import CipherParams, MasterKey

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Bytes of one lane array of a tile (the word count follows from the width).
_TILE_BYTES = 1 << 17

#: (shift, mask) of the six stages of :func:`_transpose64`; the mask keeps
#: the low half of every 2s-bit block.
_SWAP_STAGES = tuple((np.uint64(s), np.uint64(m)) for s, m in (
    (32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333), (1, 0x5555555555555555),
))


def _transpose64(A: np.ndarray) -> None:
    """Transpose in place the 64x64 bit matrix of every word column of A.

    A is a C-contiguous (64, words) uint64 array; afterwards bit j of
    A[i, w] is what bit i of A[j, w] was.  Each of the six masked-swap
    stages of Hacker's Delight, section 7-3, swaps the high s-bit half
    of every s-bit block of row k with the low half of row k + s (k with
    bit s clear), over views of all row pairs at once.
    """
    words = A.shape[1]
    t = np.empty((32, words), dtype=np.uint64)
    for s, m in _SWAP_STAGES:
        pairs = A.reshape(32 // s, 2, s, words)
        lo, hi = pairs[:, 0], pairs[:, 1]
        ts = t.reshape(32 // s, s, words)
        np.right_shift(lo, s, out=ts)
        ts ^= hi
        ts &= m
        hi ^= ts
        ts <<= s
        lo ^= ts


def pack_words(values: np.ndarray, width: int) -> np.ndarray:
    """Pack per-sample integers (N,) into bit lanes (width, N/64); bits
    of a value above `width` are ignored.  N must be a multiple of 64."""
    values = np.asarray(values, dtype=np.uint64)
    if not 1 <= width <= 64:
        raise ValueError(f"lane width {width} outside 1..64")
    if values.ndim != 1:
        raise ValueError("values must be a 1-D array")
    n = values.shape[0]
    if n % 64:
        raise ValueError("sample count must be a multiple of 64")
    # Row j, column w of the copy is sample 64*w + j; the copy is always
    # private, since the transpose writes to it.
    A = values.reshape(n // 64, 64).T.copy()
    _transpose64(A)
    return A[:width]


def counter_lanes(start: int, words: int, width: int) -> np.ndarray:
    """(width, words) lanes of the 64 * words counters from `start` (low `width` bits)."""
    return pack_words(np.arange(start, start + 64 * words, dtype=np.uint64), width)


def lanes_to_bits(lanes: np.ndarray) -> np.ndarray:
    """(width, N) uint8 bit matrix of lanes (width, N/64): entry [b, j]
    is bit b of sample j."""
    width, words = lanes.shape
    return np.unpackbits(
        np.ascontiguousarray(lanes).view(np.uint8).reshape(width, words * 8),
        axis=1, bitorder="little",
    )


def unpack_words(lanes: np.ndarray, count: int | None = None) -> np.ndarray:
    """Inverse of :func:`pack_words`; returns the first `count` (default
    all N) sample values, (count,) uint64, from lanes (width, N/64)."""
    width, words = lanes.shape
    if width > 64:
        raise ValueError(f"{width} lanes do not fit in 64-bit samples")
    A = np.zeros((64, words), dtype=np.uint64)
    A[:width] = lanes
    _transpose64(A)
    return A.T.reshape(-1)[:count]


def random_lanes(rng: np.random.Generator, width: int, words: int) -> np.ndarray:
    """Uniform random lanes; equivalent to packing uniform random samples.

    The draw is the byte stream of ``rng.bytes(8 * width * words)``
    (which numpy builds from the same uint32 draws), read as uint64.
    """
    raw = rng.integers(0, 1 << 32, 2 * width * words, dtype=np.uint32)
    return raw.view(np.uint64).reshape(width, words)


def broadcast_columns(values, width: int) -> np.ndarray:
    """(len(values), width, 1) lanes: column i gives every sample the
    width-bit value values[i], broadcasting against any word count."""
    v = np.array(values, dtype=np.uint64).reshape(-1, 1, 1)
    return ((v >> np.arange(width, dtype=np.uint64)[:, None]) & _ONE) * _FULL


def popcount_lanes(lanes: np.ndarray) -> int:
    return int(np.bitwise_count(lanes).sum())


def tail_mask(count: int, words: int) -> np.ndarray:
    """Per-word mask selecting the first `count` samples of a batch."""
    mask = np.full(words, _FULL, dtype=np.uint64)
    full_words, rem = divmod(count, 64)
    if full_words < words:
        mask[full_words] = np.uint64((1 << rem) - 1)
        mask[full_words + 1 :] = 0
    return mask


def _signed(offset: int, width: int) -> int:
    """The neighbour offset as a lane shift in (-width/2, width/2]."""
    k = offset % width
    return k if k <= width // 2 else k - width


class _Padding:
    """Row layout of a tile padded with copies of its wraparound lanes.

    Lane i of a width-w state sits in row ``lo + i``; rows ``0..lo-1``
    repeat lanes ``w-lo..w-1`` and the last ``hi`` rows repeat lanes
    ``0..hi-1``, so the lanes read at neighbour shift s form the
    contiguous rows ``lo+s .. lo+s+w-1`` for every shift in [-lo, hi].
    """

    def __init__(self, params: CipherParams):
        w = params.branch_width
        self.width = w
        self.shifts = tuple(_signed(o, w) for o in params.offsets)
        self.lo = max(0, -min(self.shifts))
        self.hi = max(0, *self.shifts)
        self.rows = self.lo + w + self.hi

    def at(self, P: np.ndarray, shift: int = 0) -> np.ndarray:
        return P[self.lo + shift : self.lo + shift + self.width]

    def wrap(self, P: np.ndarray) -> None:
        """Refresh the padding rows of P from its lanes (slice rotation)."""
        lo, w = self.lo, self.width
        np.copyto(P[:lo], P[w : w + lo])
        np.copyto(P[lo + w :], P[lo : lo + self.hi])


def _not_f_core(pad: _Padding, Rp, Np, A, B):
    """A <- NOT F_core(R) for R held in the padded rows Rp; Np and B are
    scratch of the shapes of Rp and A.

    Rule-A at vertex i reads x0 = R[i], x1 = R[i+s1], x2 = R[i+s2] and
    x3 = R[i+s3] and equals NOT((x2 & ~g) ^ (x1 & x3)) with
    g = x0 ^ x1 ^ (x0 & x3), that is ~g = (x0 & ~x3) ^ ~x1.  The final
    NOT is left to the caller, which folds it into the round-key column.
    """
    s1, s2, s3 = pad.shifts
    np.invert(Rp, out=Np)
    np.bitwise_and(pad.at(Rp), pad.at(Np, s3), out=A)          # x0 & ~x3
    np.bitwise_xor(A, pad.at(Np, s1), out=A)                   # ~g
    np.bitwise_and(A, pad.at(Rp, s2), out=A)                   # x2 & ~g
    np.bitwise_and(pad.at(Rp, s1), pad.at(Rp, s3), out=B)      # x1 & x3
    A ^= B


class BitslicedCipher:
    """Batch encryption engine for one parameter set."""

    def __init__(self, params: CipherParams | None = None):
        self.params = params or CipherParams.full()
        self._pad = _Padding(self.params)

    def f_core(self, R: np.ndarray) -> np.ndarray:
        """F_core of every sample of lanes R (width along axis 0)."""
        pad = self._pad
        Rp = np.empty((pad.rows,) + R.shape[1:], dtype=np.uint64)
        np.copyto(pad.at(Rp), R)
        pad.wrap(Rp)
        A = np.empty_like(R)
        _not_f_core(pad, Rp, np.empty_like(Rp), A, np.empty_like(R))
        return np.invert(A, out=A)

    def encrypt(
        self,
        L: np.ndarray,
        R: np.ndarray,
        key: MasterKey | tuple[np.ndarray, np.ndarray],
        rounds: int | None = None,
        snapshot_rounds=None,
    ):
        """Encrypt a batch of (L, R) lanes; the inputs are not modified.

        `key` is either a scalar :class:`MasterKey` shared by every
        sample (the schedule is then precomputed once) or a pair of
        (high, low) lane arrays holding one key per sample.

        Returns (L, R) lanes, or a dict {round: (L, R)} when
        `snapshot_rounds` is given (round 0 is the input state).
        """
        p, pad = self.params, self._pad
        w = p.branch_width
        nr = p.round_count(rounds)
        want = None if snapshot_rounds is None else sorted(set(snapshot_rounds))
        if want is not None and any(not 0 <= r <= nr for r in want):
            raise ValueError(f"snapshot rounds {want} outside 0..{nr}")
        if L.shape != R.shape or L.ndim != 2 or L.shape[0] != w:
            raise ValueError(f"L and R must both be ({w}, words) lane arrays")
        words = L.shape[1]

        # Column r is NOT(RK_r), or NOT(RC_r) with one key per sample;
        # the NOT is F_core's final one.
        per_sample = not isinstance(key, MasterKey)
        if per_sample:
            KH, KL = key
            consts = p.round_constants
        else:
            consts = derive_round_keys(key, p)
        cols = broadcast_columns([consts[r] ^ p.branch_mask for r in range(nr)], w)
        # Every lane of a column is all zeros or all ones, so its first byte
        # serves as the column of a uint8 view: numpy XORs a broadcast uint8
        # column about twice as fast as a broadcast uint64 one.
        col_bytes = cols.view(np.uint8)[:, :, :1]

        if want is None:
            outputs = {nr: (np.empty_like(L), np.empty_like(R))}
        else:
            outputs = {r: (np.empty_like(L), np.empty_like(R)) for r in want}

        taps = p.lfsr_taps[1:]
        tile = min(words, max(1, _TILE_BYTES // (8 * w)))
        padded = np.empty((3, pad.rows, tile), dtype=np.uint64)
        scratch = np.empty((2, w, tile), dtype=np.uint64)
        if per_sample:
            # Unrolled key-schedule LFSR: state S_r is rows r..r+w-1, and
            # each step appends the feedback as row w+r.
            lfsr = np.empty((w + nr, tile), dtype=np.uint64)
            klow = np.empty((w, tile), dtype=np.uint64)
        for c0 in range(0, words, tile):
            cs = slice(c0, min(c0 + tile, words))
            m = cs.stop - c0
            Lp, Rp, Np = padded[:, :, :m]
            A, B = scratch[:, :, :m]
            np.copyto(pad.at(Rp), R[:, cs])
            pad.wrap(Rp)
            if per_sample:
                S, KLt = lfsr[:, :m], klow[:, :m]
                np.copyto(S[:w], KH[:, cs])
                np.copyto(KLt, KL[:, cs])
                # A zero high key half starts the LFSR at 1 (A[0] is scratch).
                np.bitwise_or.reduce(S[:w], axis=0, out=A[0])
                np.invert(A[0], out=A[0])
                S[0] |= A[0]
            if 0 in outputs:
                np.copyto(outputs[0][0][:, cs], L[:, cs])
                np.copyto(outputs[0][1][:, cs], R[:, cs])
            for r in range(nr):
                _not_f_core(pad, Rp, Np, A, B)
                newR = pad.at(Lp)
                # Round 1 reads L from the input, saving a copy-in.
                np.bitwise_xor(newR if r else L[:, cs], A, out=newR)
                np.bitwise_xor(newR.view(np.uint8), col_bytes[r], out=newR.view(np.uint8))
                if per_sample:
                    newR ^= KLt
                    newR ^= S[r : r + w]
                    feedback = S[w + r]
                    np.copyto(feedback, S[r])            # tap 0
                    for t in taps:
                        feedback ^= S[r + t]
                pad.wrap(Lp)
                Lp, Rp = Rp, Lp
                if r + 1 in outputs:
                    np.copyto(outputs[r + 1][0][:, cs], pad.at(Lp))
                    np.copyto(outputs[r + 1][1][:, cs], pad.at(Rp))
        return outputs[nr] if want is None else outputs
