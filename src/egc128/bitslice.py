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
:func:`random_lane_blocks` gives the lanes of :func:`random_lanes` a
block of word columns at a time, the caller's one generator jumping
from row to row, so a caller can stream a random batch through the
engine without a full-size input array.

Cache tiling: one round loop (:meth:`BitslicedCipher.tiles`) walks the
word axis in column tiles of ``_TILE_BYTES`` per lane array (1,024
words at width 16, 256 at width 64) and runs every round on one tile
before moving to the next, so the working set stays in L2 instead of
streaming each round's temporaries through memory.  A caller that can
use the output a tile at a time (the NIST stream writer) reads the
tiles themselves.  The loop runs k stacked members per tile:
:meth:`BitslicedCipher.encrypt` runs k = 1 and collects the tiles, and
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
in-place ufuncs on them.  Every row view a round touches (the four
rows F_core reads, the output rows and their uint8 view, and the two
wraparound copies) is bound once per tile width, for each of the two
buffers a round can write, so a round makes no view of its own; only
a narrower last tile binds them again.

* the circulant reads of F_core are slice rotations: a tile of R
  carries copies of its wraparound lanes (a row layout each engine
  computes once, when it is created), so the lanes read at each
  neighbour offset form one contiguous row range;
* NOT Rule-A is five gates on those rows with no complemented input
  (:func:`_xor_not_f_core`), XORed straight into the L tile that becomes
  the new R, so no complemented copy of R and no F_core output exist;
* the round key enters as one XOR with a precomputed ``(width, 1)``
  broadcast column, which also carries F_core's final NOT; with one key
  per sample the column holds the round constant, and the engine builds
  those columns once, when it is created;
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


def random_lane_blocks(rng: np.random.Generator, width: int, words: int, block: int):
    """The lanes of ``random_lanes(rng, width, words)``, `block` columns at a time.

    Yields (cols, lanes): `lanes` holds the word columns `cols` of that
    array, in one reused (width, block) buffer valid until the next
    step, so no full-size array exists.  The caller's bit generator
    walks the rows with PCG64's O(log n) jump-ahead: it skips from each
    row's block to the next row's, and after a block it steps back,
    modulo 2^128, to row 0 at the next column.  It ends where
    :func:`random_lanes` leaves it, except that a jump drops a buffered
    32-bit half; no generator the package passes here holds one.
    """
    bg = rng.bit_generator
    back = -(width - 1) * words % 2**128
    lanes = np.empty((width, min(block, words)), dtype=np.uint64)
    for cs in column_slices(words, block):
        n = cs.stop - cs.start
        for b, lane in enumerate(lanes):
            if b:
                bg.advance(words - n)
            lane[:n] = bg.random_raw(n)
        if cs.stop < words:
            bg.advance(back)
        yield cs, lanes[:, :n]


def tile_words(width: int) -> int:
    """Words per lane array of an engine tile of `width` lanes: one
    ``_TILE_BYTES`` array, or one word if that is narrower."""
    return max(1, _TILE_BYTES // (8 * width))


def column_slices(words: int, size: int):
    """Slices of at most `size` of the `words` word columns, in order."""
    return (slice(c0, min(c0 + size, words)) for c0 in range(0, words, size))


def broadcast_columns(values, width: int) -> np.ndarray:
    """(len(values), width, 1) lanes: column i gives every sample the
    width-bit value values[i], broadcasting against any word count."""
    v = np.array(values, dtype=np.uint64).reshape(-1, 1, 1)
    return ((v >> np.arange(width, dtype=np.uint64)[:, None]) & _ONE) * _FULL


def _column_bytes(values, width: int) -> np.ndarray:
    """:func:`broadcast_columns` as read-only (len(values), width, 1) uint8
    columns for XORing into the uint8 view of lanes.  Every lane of a
    column is all zeros or all ones, so its first byte serves as the
    column: numpy XORs a broadcast uint8 column about twice as fast as a
    broadcast uint64 one."""
    cols = broadcast_columns(values, width).view(np.uint8)[:, :, :1]
    cols.flags.writeable = False
    return cols


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


def _xor_not_f_core(x0, x1, x2, x3, out, A, B):
    """out ^= NOT F_core(R), for x0..x3 the rows of padded R that Rule-A
    reads (the engine's read slices, see :class:`BitslicedCipher`); A and
    B are scratch of the shape of out.

    Rule-A at vertex i reads x0 = R[i], x1 = R[i+s1], x2 = R[i+s2] and
    x3 = R[i+s3]; its complement is x2 ^ ((x1 ^ (x0 & x2)) & (x2 ^ x3)),
    five gates on uncomplemented inputs.  The final NOT is left to the
    caller, which folds it into the round-key column.
    """
    np.bitwise_and(x0, x2, out=A)                              # x0 & x2
    A ^= x1                                                    # x1 ^ (x0 & x2)
    np.bitwise_xor(x2, x3, out=B)                              # x2 ^ x3
    A &= B
    out ^= A
    out ^= x2


class BitslicedCipher:
    """Batch encryption engine for one parameter set."""

    def __init__(self, params: CipherParams):
        p = self.params = params
        w, shifts = p.branch_width, p.shifts
        # Padded row layout of R: lane i sits in row lo + i; rows 0..lo-1
        # repeat lanes w-lo..w-1 and the last hi rows repeat lanes 0..hi-1,
        # so the lanes read at neighbour shift s form the contiguous rows
        # lo+s .. lo+s+w-1 for every shift in [-lo, hi].  Rule-A reads
        # rows x0..x3 at vertex shifts 0, s1, s2, s3, and copying each
        # (destination, source) wrap pair refreshes the padding rows from
        # the lanes (slice rotation).
        lo, hi = max(0, -min(shifts)), max(0, *shifts)
        self._rows = lo + w + hi
        self._lanes = slice(lo, lo + w)
        self._reads = tuple(slice(lo + s, lo + s + w) for s in (0,) + shifts)
        self._wraps = ((slice(0, lo), slice(w, w + lo)),
                       (slice(lo + w, self._rows), slice(lo, lo + hi)))
        # With one key per sample, column r is NOT(RC_r) (the NOT is
        # F_core's final one), as the uint8 view that the round loop XORs
        # (see `tiles`); read-only, since threads may share the engine.
        self._rc_bytes = _column_bytes([rc ^ p.branch_mask for rc in p.round_constants],
                                       p.branch_width)
        # The key-schedule LFSR's taps past tap 0, and the rows of one
        # feedback slice (see `tiles`).
        self._taps = p.lfsr_taps[1:]
        self._lfsr_slice = p.branch_width - p.lfsr_taps[-1]

    def f_core(self, R: np.ndarray) -> np.ndarray:
        """F_core of every sample of lanes R (width along axis 0)."""
        Rp = np.empty((self._rows,) + R.shape[1:], dtype=np.uint64)
        np.copyto(Rp[self._lanes], R)
        for dst, src in self._wraps:
            Rp[dst] = Rp[src]
        out = np.full_like(R, _FULL)           # all ones: out ^ NOT F_core is F_core
        _xor_not_f_core(*(Rp[x] for x in self._reads), out, np.empty_like(R),
                        np.empty_like(R))
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
        return collect_tiles(self.tiles(L, R, key, rounds), L.shape[1])

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
        for cs, r, Lt, Rt in self.tiles(L, R, key, rounds, delta):
            m, w = cs.stop - cs.start, len(Lt)
            if D is None:                      # the first tile is the widest
                D = np.empty((2 * w, m), dtype=np.uint64)
            np.bitwise_xor(Rt[:, :m], Rt[:, m:], out=D[:w, :m])
            np.bitwise_xor(Lt[:, :m], Lt[:, m:], out=D[w:, :m])
            yield cs, r, D[:, :m]

    def tiles(self, L, R, key, rounds=None, delta=None):
        """The round loop: yield (cols, r, L, R) at each wanted round r of
        each column tile, in order; L and R are views valid until the next
        step; the inputs are not modified.  `key` is as for
        :meth:`encrypt`, and `rounds` is a round count (default: the full
        schedule) or a collection of them.  With `delta`, each tile
        stacks two members, P and then P XOR delta, so L and R hold 2m
        words for a tile of m columns."""
        p = self.params
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
            delta = np.broadcast_to(delta, (2 * w, words))
            dR, dL = delta[:w], delta[w:]

        per_sample = not isinstance(key, MasterKey)
        if per_sample:
            KH, KL = key
            col_bytes = self._rc_bytes
        else:                                  # column r is NOT(RK_r)
            rks = derive_round_keys(key, p)
            col_bytes = _column_bytes([rks[r] ^ p.branch_mask for r in range(nr)], w)

        tile = min(words, tile_words(w))
        padded = np.empty((2, self._rows, k * tile), dtype=np.uint64)
        scratch = np.empty((2, w, k * tile), dtype=np.uint64)
        if per_sample:
            # Unrolled key-schedule LFSR: state S_r is rows r..r+w-1, and
            # each step appends the feedback as row w+r.  Feedback row j
            # reads rows j-w+t for the taps t, so a slice of w - max tap
            # rows reads only rows written before it.
            lfsr = np.empty((w + nr, k * tile), dtype=np.uint64)
            klow = np.empty((w, k * tile), dtype=np.uint64)
        bound = 0
        for cs in column_slices(words, tile):
            m = cs.stop - cs.start
            if k * m != bound:                 # the first tile, or a narrower last one
                # Every view a round touches, bound once per tile width.
                # Round r writes buffer r % 2 from the lanes of the other.
                bound = k * m
                Ps = padded[:, :, :bound]
                lanes = [P[self._lanes] for P in Ps]
                steps = [(tuple(Ps[1 - q][x] for x in self._reads), lanes[q],
                          lanes[q].view(np.uint8),
                          tuple((Ps[q][d], Ps[q][s]) for d, s in self._wraps))
                         for q in (0, 1)]
                A, B = scratch[:, :, :bound]
                if per_sample:
                    S, KLt = lfsr[:, :bound], klow[:, :bound]
                    key_rows = [S[r : r + w] for r in range(nr)]
            Lt, Rt = lanes
            np.copyto(Lt[:, :m], L[:, cs])
            np.copyto(Rt[:, :m], R[:, cs])
            if delta is not None:
                np.bitwise_xor(L[:, cs], dL[:, cs], out=Lt[:, m:])
                np.bitwise_xor(R[:, cs], dR[:, cs], out=Rt[:, m:])
            for dst, src in steps[1][3]:       # pad R, buffer 1, for round 1
                dst[...] = src
            if per_sample:
                for j in range(0, bound, m):   # every member has the key
                    np.copyto(S[:w, j : j + m], KH[:, cs])
                    np.copyto(KLt[:, j : j + m], KL[:, cs])
                # A zero high key half starts the LFSR at 1 (A[0] is scratch).
                np.bitwise_or.reduce(S[:w], axis=0, out=A[0])
                np.invert(A[0], out=A[0])
                S[0] |= A[0]
                for a in range(0, nr, self._lfsr_slice):
                    b = min(a + self._lfsr_slice, nr)
                    feedback = S[w + a : w + b]
                    np.copyto(feedback, S[a:b])          # tap 0
                    for t in self._taps:
                        feedback ^= S[a + t : b + t]
            if 0 in wanted:
                yield cs, 0, Lt, Rt
            for r in range(nr):
                x, out, out8, ((d0, s0), (d1, s1)) = steps[r & 1]
                _xor_not_f_core(*x, out, A, B)
                np.bitwise_xor(out8, col_bytes[r], out=out8)
                if per_sample:
                    out ^= KLt
                    out ^= key_rows[r]
                d0[...] = s0                   # item assignments dispatch faster
                d1[...] = s1                   # than np.copyto on tile-sized rows
                if r + 1 in wanted:
                    yield cs, r + 1, lanes[(r + 1) & 1], out
