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

Round keys come from a width-wide LFSR seeded with the high key half
(with 0 mapped to 1 to avoid the degenerate all-zero state), XORed with
the low key half and a per-round constant.

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


def _rule_a_gates(x0, x1, x2, x3, mask):
    """Rule-A at every bit of the words x0..x3 (x_k holds each bit's k-th
    input), as one word under `mask`; bits of x1..x3 outside the mask are
    dropped."""
    # Rule-A is 1 ^ x2 ^ x0x2 ^ x1x2 ^ x1x3 ^ x0x2x3, and the sum without
    # the 1 is x2 ^ ((x1 ^ x0x2) & (x2 ^ x3)): five gates, the form the
    # bitsliced engine evaluates, and one more XOR with the mask.
    return (mask ^ x2 ^ ((x1 ^ (x0 & x2)) & (x2 ^ x3))) & mask


def _int_layer(params: CipherParams):
    """F_core of `params` on one branch word given as a Python int in
    range (unchecked)."""
    w, mask = params.branch_width, params.branch_mask
    k1, k2, k3 = params.rotations

    def layer(x: int) -> int:
        # Bits 0..w-1 of xx >> k are x rotated right by k, so bit i is
        # bit i + k of x; the bits above the width are dropped at the end.
        xx = x << w | x
        return _rule_a_gates(x, xx >> k1, xx >> k2, xx >> k3, mask)

    return layer


def f_core(x, params: CipherParams):
    """Graph interaction layer: output bit i is Rule-A applied to
    (x_i, x_{i+o1}, x_{i+o2}, x_{i+o3}) with all indices mod width.

    `x` is one branch word as a Python int, or an array of branch words
    of an unsigned numpy dtype at least `branch_width` bits wide; every
    output bit is computed from the unmodified input word.  An int goes
    through the layer `Cipher` binds, which rotates by shifting the
    doubled word ``x << w | x``; an array, which cannot hold that word at
    width 64, is rotated by two shifts per rotation.
    """
    w, mask = params.branch_width, params.branch_mask
    if isinstance(x, int):
        if not 0 <= x <= mask:
            raise ValueError(f"branch value does not fit in {w} bits")
        return _int_layer(params)(x)
    k1, k2, k3 = params.rotations
    return _rule_a_gates(x, x >> k1 | x << (w - k1), x >> k2 | x << (w - k2),
                         x >> k3 | x << (w - k3), mask)


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


def derive_round_keys(key: MasterKey, params: CipherParams) -> tuple[int, ...]:
    """Round keys RK_r = K_low xor S_r xor RC_r, advancing the LFSR once
    per round after each key is emitted."""
    if key.width != params.branch_width:
        raise ValueError("key width does not match cipher parameters")
    s = lfsr_init(key.high)
    low, taps, top = key.low, params.lfsr_tap_mask, params.branch_width - 1
    keys = []
    for rc in params.round_constants:
        keys.append(low ^ s ^ rc)
        # lfsr_step on one Python int.
        s = s >> 1 | ((s & taps).bit_count() & 1) << top
    return tuple(keys)


class Cipher:
    """An encrypt/decrypt pair for one parameter set; each call runs its whole schedule.

    Instances are immutable after construction and safe to share across
    threads; all methods are pure functions of their arguments.
    """

    def __init__(self, params: CipherParams):
        self.params = params
        self._f_core = _int_layer(params)

    def _round_keys(self, key: MasterKey, block: Block) -> tuple[int, ...]:
        p = self.params
        if key.width != p.branch_width or block.width != p.branch_width:
            raise ValueError("key/block width does not match cipher parameters")
        return derive_round_keys(key, p)

    def _feistel(self, L: int, R: int, rks) -> tuple[int, int]:
        f = self._f_core
        for rk in rks:
            L, R = R, L ^ f(R) ^ rk
        return L, R

    def encrypt_block(self, key: MasterKey, pt: Block) -> Block:
        L, R = self._feistel(pt.left, pt.right, self._round_keys(key, pt))
        return Block(L, R, self.params.branch_width)

    def decrypt_block(self, key: MasterKey, ct: Block) -> Block:
        # The rounds in reverse order on the swapped block (R, L) undo
        # encryption; swapping the result back gives the plaintext.
        R, L = self._feistel(ct.right, ct.left, reversed(self._round_keys(key, ct)))
        return Block(L, R, self.params.branch_width)


EGC128 = Cipher(CipherParams())
