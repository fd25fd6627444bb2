"""Bit-exact scalar implementation of the EGC128 block cipher family.

The nonlinear layer F_core evaluates Rule-A at every bit position of a
branch word.  Because the interaction graph is circulant, the whole
layer reduces to three word rotations plus five gates of Rule-A's
normal form, so one call transforms an entire branch (or an array of
branch words) at once while remaining bit-identical to a per-vertex
evaluation.  A Python int is rotated by shifting one doubled word
``x << w | x``; a numpy word array, whose shifts cannot reach past its
dtype, by two shifts per rotation.

Feistel update for round r (branches L, R; round key RK_r):

    L' = R
    R' = L xor F_core(R) xor RK_r

Round keys RK_r = K_low xor S_r xor RC_r come from a width-wide LFSR
seeded with the high key half (0 is mapped to 1, avoiding the all-zero
state), read from one int whose bits r..r+w-1 are state S_r
(:func:`_lfsr_stream`).  :class:`Cipher` runs each round as one inline
expression on Python ints, with no function call per round.

A :class:`CipherParams` (width, offsets, rounds) names every instance;
a reduced-round scalar cipher is ``Cipher(CipherParams(64, rounds=3))``.
"""

from __future__ import annotations

import numpy as np

from .params import Block, CipherParams, MasterKey


def rule_a_eval(x0: int, x1: int, x2: int, x3: int) -> int:
    """Evaluate Rule-A on four single bits.

    Algebraic normal form: 1 + x2 + x0*x2 + x1*x2 + x1*x3 + x0*x2*x3
    over GF(2).  The induced truth table is 0x036F.
    """
    return (1 ^ x2 ^ (x0 & x2) ^ (x1 & x2) ^ (x1 & x3) ^ (x0 & x2 & x3)) & 1


def _feistel(L: int, R: int, low: int, t: int, schedule, params: CipherParams):
    """Branches (L, R) after the rounds of `schedule`, pairs (r, RC_r xor
    mask), under K_low = `low` and the LFSR stream `t` (see
    :func:`_lfsr_stream`): round r's key is low xor S_r xor RC_r."""
    w, mask = params.branch_width, params.branch_mask
    k1, k2, k3 = params.rotations
    for r, c in schedule:
        # Bits 0..w-1 of xx >> k are R rotated right by k (bit i is bit
        # i + k of R): Rule-A's inputs x1..x3, with x0 = R.  NOT Rule-A is
        # x2 ^ ((x1 ^ x0x2) & (x2 ^ x3)), the engine's five gates; c holds
        # the final NOT, and bits above the width drop at the end.
        xx = R << w | R
        x2 = xx >> k2
        L, R = R, (L ^ low ^ (t >> r) ^ c ^ x2 ^ ((xx >> k1 ^ (R & x2)) & (x2 ^ xx >> k3))) & mask
    return L, R


def _xor_not_f_core(x0, x1, x2, x3, out, A, B):
    """out ^= NOT F_core, in place: x0..x3 are word arrays of each bit's
    Rule-A inputs, and A, B scratch of out's shape.  NOT Rule-A is
    x2 ^ ((x1 ^ (x0 & x2)) & (x2 ^ x3)), five gates on uncomplemented
    inputs; the caller supplies the final NOT (the word-array F_core
    starts `out` at all ones, the engine folds it into its key column).
    """
    np.bitwise_and(x0, x2, out=A)                              # x0 & x2
    A ^= x1                                                    # x1 ^ (x0 & x2)
    np.bitwise_xor(x2, x3, out=B)                              # x2 ^ x3
    A &= B
    out ^= A
    out ^= x2


def f_core(x, params: CipherParams):
    """Graph interaction layer: output bit i is Rule-A applied to
    (x_i, x_{i+o1}, x_{i+o2}, x_{i+o3}) with all indices mod width.

    `x` is one branch word as a Python int, or an array of branch words
    of an unsigned numpy dtype at least `branch_width` bits wide; every
    output bit is computed from the unmodified input word.  An int runs
    one round of :func:`_feistel` with L, K_low, the key stream and the
    round constant zero.  An array, which cannot hold the doubled word
    at width 64, is rotated by two shifts per rotation.
    """
    w, mask = params.branch_width, params.branch_mask
    if isinstance(x, int):
        if not 0 <= x <= mask:
            raise ValueError(f"branch value does not fit in {w} bits")
        return _feistel(0, x, 0, 0, ((0, mask),), params)[1]
    k1, k2, k3 = params.rotations
    out = np.full_like(x, mask)                # out ^ NOT F_core is F_core under the mask
    _xor_not_f_core(x, x >> k1 | x << (w - k1), x >> k2 | x << (w - k2),
                    x >> k3 | x << (w - k3), out, np.empty_like(x), np.empty_like(x))
    out &= mask                                # drop the rotations' bits above the width
    return out


def lfsr_init(k_high: int) -> int:
    """Initial LFSR state: the high key half, or 1 if that half is zero."""
    return k_high if k_high != 0 else 1


def _parity(x):
    """Bit parity of a Python int, or elementwise of an unsigned numpy
    word array (returned in the array's dtype)."""
    if isinstance(x, int):
        return x.bit_count() & 1
    return np.bitwise_count(x).astype(x.dtype) & 1


def lfsr_step(s, params: CipherParams):
    """One LFSR update: shift right, feedback bit enters at the top.

    The feedback is the XOR of tap bits {0, 1, 3, 4} of the input state
    (taps at or above the width are dropped).  `s` is one state as a
    Python int, or an array of states of an unsigned numpy dtype at
    least `branch_width` bits wide.
    """
    return (s >> 1) | (_parity(s & params.lfsr_tap_mask) << (params.branch_width - 1))


def lfsr_inverse_step(s, params: CipherParams):
    """Exact inverse of :func:`lfsr_step`."""
    # Output bit w-1 is the old feedback; the old bit 0 is recovered by
    # cancelling the taps t >= 1, which now sit at bits t - 1.
    b0 = _parity(s & (params.lfsr_tap_mask >> 1 | 1 << (params.branch_width - 1)))
    return ((s << 1) & params.branch_mask) | b0


def _lfsr_stream(k_high: int, params: CipherParams) -> int:
    """The key-schedule LFSR as one int: bits r..r+w-1 are state S_r for
    each round r of `params`, from S_0 = ``lfsr_init(k_high)``.

    Bit j >= w is the feedback of S_(j-w), the XOR of its bits j-w+t for
    the taps t, so a slice of w - max(tap) feedback bits reads only bits
    below it: one shifted XOR per tap, as in the engine's unrolled rows.
    """
    w, taps = params.branch_width, params.lfsr_taps
    step = w - taps[-1]
    t = lfsr_init(k_high)
    for a in range(0, params.rounds - 1, step):
        s = fb = t >> a
        for tap in taps[1:]:
            fb ^= s >> tap
        t |= (fb & ((1 << step) - 1)) << (a + w)
    return t


def derive_round_keys(key: MasterKey, params: CipherParams) -> tuple[int, ...]:
    """Round keys RK_r = K_low xor S_r xor RC_r, with S_r the LFSR state
    after r steps (read from :func:`_lfsr_stream`)."""
    if key.width != params.branch_width:
        raise ValueError("key width does not match cipher parameters")
    t, low, mask = _lfsr_stream(key.high, params), key.low, params.branch_mask
    return tuple([low ^ rc ^ (t >> r & mask) for r, rc in enumerate(params.round_constants)])


class Cipher:
    """An encrypt/decrypt pair for one parameter set; each call runs its whole schedule.

    Instances are immutable after construction and safe to share across
    threads; all methods are pure functions of their arguments.
    """

    def __init__(self, params: CipherParams):
        self.params = params
        # (r, RC_r xor mask) per round: the mask is F_core's final NOT.
        self._schedule = tuple((r, rc ^ params.branch_mask)
                               for r, rc in enumerate(params.round_constants))

    def _rounds(self, key: MasterKey, block: Block, L: int, R: int, schedule):
        p = self.params
        if key.width != p.branch_width or block.width != p.branch_width:
            raise ValueError("key/block width does not match cipher parameters")
        return _feistel(L, R, key.low, _lfsr_stream(key.high, p), schedule, p)

    def encrypt_block(self, key: MasterKey, pt: Block) -> Block:
        L, R = self._rounds(key, pt, pt.left, pt.right, self._schedule)
        return Block(L, R, self.params.branch_width)

    def decrypt_block(self, key: MasterKey, ct: Block) -> Block:
        # The rounds in reverse order on the swapped block (R, L) undo
        # encryption; swapping the result back gives the plaintext.
        R, L = self._rounds(key, ct, ct.right, ct.left, reversed(self._schedule))
        return Block(L, R, self.params.branch_width)


EGC128 = Cipher(CipherParams())
