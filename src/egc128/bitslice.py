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
matrix for the analyses that need single bits.  :func:`counter_lanes`
builds the lanes of a counter run straight from its word index; its
callers start on a multiple of 64, so it takes no other start.

Cache tiling: one round loop (``BitslicedCipher._tiles``) walks the
word axis in column tiles of ``_TILE_BYTES`` per lane array (1,024
words at width 16, 256 at width 64) and runs every round on one tile
before moving to the next, so the working set stays in L2 instead of
streaming each round's temporaries through memory.  It runs k stacked
members per tile: :meth:`BitslicedCipher.encrypt` runs k = 1, and
:meth:`BitslicedCipher.pair_differences` runs k = 2, the tile of P in
tile columns 0..m-1 and the tile of P XOR delta in columns m..2m-1 of
the same buffers.  Every member's L and R tiles are copied into the
padded buffers before round 1, so every round reads and writes only
those buffers.  A round is then one ufunc sequence over 2m words, a
round key broadcasts over both members, and a per-sample key tile is
copied into both halves.  At each wanted round the pair path XORs the
two halves and hands that tile's difference, in block-bit order, to its
caller, so no full-size output or flipped batch exists.  Each call
allocates its tile buffers once, and a round is a fixed sequence of
in-place ufuncs on them:

* the circulant reads of F_core are slice rotations: a tile of R
  carries copies of its wraparound lanes (``_Padding``), so the lanes
  read at each neighbour offset form one contiguous row range;
* NOT Rule-A is five gates on those rows with no complemented input
  (:func:`_xor_not_f_core`), XORed straight into the L tile that becomes
  the new R, so no complemented copy of R and no F_core output exist;
* the round key enters as one XOR with a precomputed ``(width, 1)``
  broadcast column, which also carries F_core's final NOT;
* with one key per sample, the key-schedule LFSR is unrolled into rows
  (state r is rows r..r+width-1).  Every feedback row is built before
  round 1, in slices of width - max(tap) rows that each read only rows
  already written, so a round adds just its two key XORs.

:func:`collect_tiles` writes the final-round tiles, whatever arrays
they carry, into full-size outputs.  The pair path takes a round count
or a collection of them as its one ``rounds`` argument and yields each
listed round.  The engine keeps no scratch on the instance, so one
engine may serve several threads at once.

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


#: Lanes 0..5 of 64 consecutive counters from a multiple of 64: bit j of
#: word b is bit b of j (0xAAAA..., 0xCCCC..., ..., 0xFFFFFFFF00000000).
_COUNTER_PATTERNS = np.array(
    [sum(1 << j for j in range(64) if j >> b & 1) for b in range(6)], dtype=np.uint64)


def counter_lanes(start: int, words: int, width: int) -> np.ndarray:
    """(width, words) lanes of the 64 * words counters from `start` (low `width` bits).

    `start` must be a multiple of 64, so word w of the batch holds the
    counters 64 * (q + w) + j with q = start // 64: lanes 0..5 are the
    fixed patterns of j, and lane b >= 6 is all ones exactly where bit
    b - 6 of q + w is set.
    """
    if start % 64:
        raise ValueError(f"counter start {start} is not a multiple of 64")
    index = np.arange(start // 64, start // 64 + words, dtype=np.uint64)
    lanes = np.empty((width, words), dtype=np.uint64)
    lanes[:6] = _COUNTER_PATTERNS[:width, None]
    for b, lane in enumerate(lanes[6:], 6):
        np.right_shift(index, np.uint64(b - 6), out=lane)
        lane &= _ONE
        np.negative(lane, out=lane)
    return lanes


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

    The words are the generator's next ``width * words`` raw 64-bit
    outputs.  For a PCG64 generator with no buffered 32-bit half (every
    generator the package passes here) they are the byte stream of
    ``rng.bytes(8 * width * words)`` read as uint64, and the generator
    is left in the same state as after that call.
    """
    return rng.bit_generator.random_raw(width * words).reshape(width, words)


def broadcast_columns(values, width: int) -> np.ndarray:
    """(len(values), width, 1) lanes: column i gives every sample the
    width-bit value values[i], broadcasting against any word count."""
    v = np.array(values, dtype=np.uint64).reshape(-1, 1, 1)
    return ((v >> np.arange(width, dtype=np.uint64)[:, None]) & _ONE) * _FULL


def tail_mask(count: int, words: int) -> np.ndarray:
    """Per-word mask selecting the first `count` samples of a batch."""
    mask = np.full(words, _FULL, dtype=np.uint64)
    full_words, rem = divmod(count, 64)
    if full_words < words:
        mask[full_words] = np.uint64((1 << rem) - 1)
        mask[full_words + 1 :] = 0
    return mask


def collect_tiles(tiles, words: int):
    """Gather the (cols, r, *arrays) tiles of one batch, all of its final
    round, into one full-size array of `words` columns per tile array."""
    out = None
    for cs, _, *parts in tiles:
        if out is None:
            out = tuple(np.empty((len(a), words), dtype=a.dtype) for a in parts)
        for full, part in zip(out, parts):
            np.copyto(full[:, cs], part)
    return out


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
        self.shifts = params.shifts
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


def _xor_not_f_core(pad: _Padding, Rp, out, A, B):
    """out ^= NOT F_core(R) for R held in the padded rows Rp; A and B are
    scratch of the shape of out.

    Rule-A at vertex i reads x0 = R[i], x1 = R[i+s1], x2 = R[i+s2] and
    x3 = R[i+s3]; its complement is x2 ^ ((x1 ^ (x0 & x2)) & (x2 ^ x3)),
    five gates on uncomplemented inputs.  The final NOT is left to the
    caller, which folds it into the round-key column.
    """
    s1, s2, s3 = pad.shifts
    x2 = pad.at(Rp, s2)
    np.bitwise_and(pad.at(Rp), x2, out=A)                      # x0 & x2
    A ^= pad.at(Rp, s1)                                        # x1 ^ (x0 & x2)
    np.bitwise_xor(x2, pad.at(Rp, s3), out=B)                  # x2 ^ x3
    A &= B
    out ^= A
    out ^= x2


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
        out = np.full_like(R, _FULL)           # all ones: out ^ NOT F_core is F_core
        _xor_not_f_core(pad, Rp, out, np.empty_like(R), np.empty_like(R))
        return out

    def encrypt(
        self,
        L: np.ndarray,
        R: np.ndarray,
        key: MasterKey | tuple[np.ndarray, np.ndarray],
        rounds: int | None = None,
    ):
        """Encrypt a batch of (L, R) lanes; the inputs are not modified.

        `key` is either a scalar :class:`MasterKey` shared by every
        sample (the schedule is then precomputed once) or a pair of
        (high, low) lane arrays holding one key per sample.

        Returns the (L, R) lanes after `rounds` rounds (default: the
        full schedule; 0 gives a copy of the input).
        """
        return collect_tiles(self._tiles(L, R, key, rounds), L.shape[1])

    def pair_differences(
        self,
        L: np.ndarray,
        R: np.ndarray,
        delta: np.ndarray,
        key: MasterKey | tuple[np.ndarray, np.ndarray],
        rounds=None,
    ):
        """Yield the output differences of the pairs (P, P XOR delta), P
        from the (L, R) lanes, tile by tile.

        Differences are (2w, .) lanes in block-bit order (bit b of
        :meth:`Block.to_int` in row b: R, then L).  `delta` is such a lane
        array or a (2w, 1) broadcast column; `key` is as for
        :meth:`encrypt`.  `rounds` is a round count (default: the full
        schedule) or a collection of them.  Yields (cols, r, D): the
        difference at each listed round r of the word columns `cols`.  D
        is scratch of the generator, valid until the next step; the
        caller may overwrite it.
        """
        D = None
        for cs, r, Lt, Rt in self._tiles(L, R, key, rounds, delta):
            m, w = cs.stop - cs.start, len(Lt)
            if D is None:                      # the first tile is the widest
                D = np.empty((2 * w, m), dtype=np.uint64)
            np.bitwise_xor(Rt[:, :m], Rt[:, m:], out=D[:w, :m])
            np.bitwise_xor(Lt[:, :m], Lt[:, m:], out=D[w:, :m])
            yield cs, r, D[:, :m]

    def _tiles(self, L, R, key, rounds, delta=None):
        """The round loop: yield (cols, r, L, R) at each wanted round r of
        each column tile, in order; L and R are views valid until the next
        step.  With `delta`, each tile stacks two members, P and then
        P XOR delta, so L and R hold 2m words for a tile of m columns."""
        p, pad = self.params, self._pad
        w = p.branch_width
        wanted = {p.round_count(r) for r in ([rounds] if rounds is None or np.isscalar(rounds)
                                              else rounds)}
        if not wanted:
            raise ValueError("no rounds to run")
        nr = max(wanted)
        if L.shape != R.shape or L.ndim != 2 or L.shape[0] != w:
            raise ValueError(f"L and R must both be ({w}, words) lane arrays")
        words = L.shape[1]
        if not words:
            raise ValueError("empty batch: L and R have no words")
        k = 1 if delta is None else 2
        if delta is not None:
            dR, dL = np.split(np.broadcast_to(delta, (2 * w, words)), 2)

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

        tile = min(words, max(1, _TILE_BYTES // (8 * w)))
        padded = np.empty((2, pad.rows, k * tile), dtype=np.uint64)
        scratch = np.empty((2, w, k * tile), dtype=np.uint64)
        if per_sample:
            # Unrolled key-schedule LFSR: state S_r is rows r..r+w-1, and
            # each step appends the feedback as row w+r.  Feedback row j
            # reads rows j-w+t for the taps t, so a slice of w - max tap
            # rows reads only rows written before it.
            taps = p.lfsr_taps[1:]
            lfsr_slice = w - p.lfsr_taps[-1]
            lfsr = np.empty((w + nr, k * tile), dtype=np.uint64)
            klow = np.empty((w, k * tile), dtype=np.uint64)
        for c0 in range(0, words, tile):
            cs = slice(c0, min(c0 + tile, words))
            m = cs.stop - c0
            Lp, Rp = padded[:, :, : k * m]
            A, B = scratch[:, :, : k * m]
            np.copyto(pad.at(Lp)[:, :m], L[:, cs])
            np.copyto(pad.at(Rp)[:, :m], R[:, cs])
            if delta is not None:
                np.bitwise_xor(L[:, cs], dL[:, cs], out=pad.at(Lp)[:, m:])
                np.bitwise_xor(R[:, cs], dR[:, cs], out=pad.at(Rp)[:, m:])
            pad.wrap(Rp)
            if per_sample:
                S, KLt = lfsr[:, : k * m], klow[:, : k * m]
                for j in range(0, k * m, m):   # every member has the key
                    np.copyto(S[:w, j : j + m], KH[:, cs])
                    np.copyto(KLt[:, j : j + m], KL[:, cs])
                # A zero high key half starts the LFSR at 1 (A[0] is scratch).
                np.bitwise_or.reduce(S[:w], axis=0, out=A[0])
                np.invert(A[0], out=A[0])
                S[0] |= A[0]
                for a in range(0, nr, lfsr_slice):
                    b = min(a + lfsr_slice, nr)
                    feedback = S[w + a : w + b]
                    np.copyto(feedback, S[a:b])          # tap 0
                    for t in taps:
                        feedback ^= S[a + t : b + t]
            if 0 in wanted:
                yield cs, 0, pad.at(Lp), pad.at(Rp)
            for r in range(nr):
                newR = pad.at(Lp)
                _xor_not_f_core(pad, Rp, newR, A, B)
                np.bitwise_xor(newR.view(np.uint8), col_bytes[r], out=newR.view(np.uint8))
                if per_sample:
                    newR ^= KLt
                    newR ^= S[r : r + w]
                pad.wrap(Lp)
                Lp, Rp = Rp, Lp
                if r + 1 in wanted:
                    yield cs, r + 1, pad.at(Lp), pad.at(Rp)
