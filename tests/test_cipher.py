"""Cipher core: test vectors, key schedule, F_core structure, reductions."""

import copy
import dataclasses
import inspect
import itertools
import pickle
import random
import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egc128.bitslice import BitslicedCipher
from egc128.cipher import (
    EGC128,
    Cipher,
    derive_round_keys,
    f_core,
    lfsr_init,
    lfsr_inverse_step,
    lfsr_step,
    rule_a_eval,
)
from egc128.params import (
    PI_FRACTIONAL_HEX,
    ROUND_CONSTANTS,
    RULE_A_TRUTH_TABLE,
    Block,
    CipherParams,
    MasterKey,
    scaled_offsets,
)
from egc128.vectors import load_vectors, verify_vectors

M64 = (1 << 64) - 1


# --- Rule-A -----------------------------------------------------------------

def test_rule_a_examples():
    assert rule_a_eval(0, 0, 0, 0) == 1
    assert rule_a_eval(0, 0, 1, 0) == 0


def test_rule_a_truth_table_constant():
    table = 0
    for k in range(16):
        x = [(k >> i) & 1 for i in range(4)]
        table |= rule_a_eval(*x) << k
    assert table == RULE_A_TRUTH_TABLE == 0x036F
    assert bin(table).count("1") == 8
    assert tuple((RULE_A_TRUTH_TABLE >> k) & 1 for k in range(16)) == \
        tuple(rule_a_eval(*((k >> i) & 1 for i in range(4))) for k in range(16))
    # The five-gate complement that cipher.f_core and the bitsliced engine
    # evaluate, on the truth-table inputs (bit k of x_i is bit i of k).
    x0, x1, x2, x3 = 0xAAAA, 0xCCCC, 0xF0F0, 0xFF00
    assert x2 ^ ((x1 ^ (x0 & x2)) & (x2 ^ x3)) == RULE_A_TRUTH_TABLE ^ 0xFFFF


# --- F_core -----------------------------------------------------------------

def _f_core_naive(branch, params):
    # Independent per-vertex evaluation straight from the definition.
    w = params.branch_width
    o1, o2, o3 = params.offsets
    bit = lambda v, i: (v >> (i % w)) & 1
    out = 0
    for i in range(w):
        y = rule_a_eval(bit(branch, i), bit(branch, i + o1),
                        bit(branch, i + o2), bit(branch, i + o3))
        out |= y << i
    return out


def test_f_core_all_zero_all_one():
    p = CipherParams.full()
    assert f_core(0, p) == M64                      # f(0,0,0,0) = 1 everywhere
    assert f_core(M64, p) == 0                      # f(1,1,1,1) = 0 everywhere
    assert rule_a_eval(1, 1, 1, 1) == 0


def test_f_core_matches_naive_reference():
    rnd = random.Random(1)
    for p in (CipherParams.full(), CipherParams(16), CipherParams(9)):
        for _ in range(100):
            x = rnd.getrandbits(p.branch_width)
            assert f_core(x, p) == _f_core_naive(x, p)


def test_f_core_single_bit_fanout():
    # Flipping input bit j can only change output bits {j, j+1, j-1, j-o3}.
    p = CipherParams.full()
    rnd = random.Random(2)
    for _ in range(50):
        x = rnd.getrandbits(64)
        j = rnd.randrange(64)
        d = f_core(x, p) ^ f_core(x ^ (1 << j), p)
        allowed = 0
        for i in (j, (j + 1) % 64, (j - 1) % 64, (j - 16) % 64):
            allowed |= 1 << i
        assert d & ~allowed == 0


def test_f_core_readset_dependency_width16():
    # Output bit i never changes when a bit outside its read-set flips.
    p = CipherParams(16)
    o1, o2, o3 = p.offsets
    rnd = random.Random(3)
    for i in range(16):
        reads = {i, (i + o1) % 16, (i + o2) % 16, (i + o3) % 16}
        for j in range(16):
            if j in reads:
                continue
            for _ in range(20):
                x = rnd.getrandbits(16)
                a = (f_core(x, p) >> i) & 1
                b = (f_core(x ^ (1 << j), p) >> i) & 1
                assert a == b


def test_f_core_rotational_equivariance():
    p = CipherParams.full()
    rnd = random.Random(4)
    rotl = lambda v, k: ((v << k) | (v >> (64 - k))) & M64
    for _ in range(50):
        x = rnd.getrandbits(64)
        k = rnd.randrange(1, 64)
        assert f_core(rotl(x, k), p) == rotl(f_core(x, p), k)


def test_f_core_width_mismatch():
    with pytest.raises(ValueError):
        f_core(1 << 70, CipherParams.full())


# --- LFSR -------------------------------------------------------------------

def test_lfsr_init():
    assert lfsr_init(0) == 1
    assert lfsr_init(1) == 1
    assert lfsr_init(0x243F6A8885A308D3) == 0x243F6A8885A308D3


def test_lfsr_step_examples():
    p = CipherParams.full()
    assert lfsr_step(0x0000000000000001, p) == 0x8000000000000000
    assert lfsr_step(0x8000000000000000, p) == 0x4000000000000000


def test_lfsr_long_run_never_zero():
    s = 1
    p = CipherParams.full()
    for _ in range(10**6):
        s = lfsr_step(s, p)
        assert s != 0
    assert s != 1  # no short cycle back to the seed within the horizon


def test_lfsr_inverse_roundtrip():
    p = CipherParams.full()
    assert lfsr_inverse_step(0x8000000000000000, p) == 1
    assert lfsr_inverse_step(0x4000000000000000, p) == 0x8000000000000000
    rnd = random.Random(5)
    for _ in range(10**4):
        s = rnd.getrandbits(64) or 1
        assert lfsr_step(lfsr_inverse_step(s, p), p) == s
        assert lfsr_inverse_step(lfsr_step(s, p), p) == s


def test_lfsr_inverse_reduced_widths():
    for w in (4, 5, 16):
        p = CipherParams(w)
        rnd = random.Random(w)
        for _ in range(1000):
            s = rnd.getrandbits(w) or 1
            assert lfsr_step(lfsr_inverse_step(s, p), p) == s


def _lfsr_step_per_tap(s, p):
    # The per-tap loop of the definition; taps at or above the width are dropped.
    fb = 0
    for t in (0, 1, 3, 4):
        if t < p.branch_width:
            fb ^= (s >> t) & 1
    return (s >> 1) | (fb << (p.branch_width - 1))


def _lfsr_inverse_per_tap(s, p):
    w = p.branch_width
    b0 = (s >> (w - 1)) & 1
    for t in (1, 3, 4):
        if t < w:
            b0 ^= (s >> (t - 1)) & 1
    return ((s << 1) & p.branch_mask) | b0


@pytest.mark.parametrize("width", range(4, 65))
def test_lfsr_tap_parity_matches_per_tap_loop(width):
    p = CipherParams(width)
    assert p.lfsr_taps == tuple(t for t in (0, 1, 3, 4) if t < width)
    rnd = random.Random(width)
    states = [0, 1, p.branch_mask, 1 << (width - 1)] + [rnd.getrandbits(width) for _ in range(200)]
    for s in states:
        assert lfsr_step(s, p) == _lfsr_step_per_tap(s, p)
        assert lfsr_inverse_step(s, p) == _lfsr_inverse_per_tap(s, p)
    # The word-array route steps every state the same way.
    words = np.array(states, dtype=np.uint64)
    for fn in (lfsr_step, lfsr_inverse_step):
        got = fn(words, p)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [fn(s, p) for s in states]


def test_lfsr_width4_drops_tap_4():
    p = CipherParams(4)
    assert p.lfsr_taps == (0, 1, 3) and p.lfsr_tap_mask == 0b1011
    # Bit 4 does not exist: the feedback of 0b1011 is the parity of three taps.
    assert lfsr_step(0b1011, p) == 0b1101
    assert lfsr_inverse_step(0b1101, p) == 0b1011


@pytest.mark.parametrize("width, taps", [(4, (0, 1, 3)), (5, (0, 1, 3, 4))])
def test_lfsr_taps_are_derived_once(width, taps):
    # Taps at or above the width are dropped when the instance is built;
    # a read returns that tuple, not a new one.
    p = CipherParams(width)
    assert p.lfsr_taps == taps and p.lfsr_taps is p.lfsr_taps
    assert p.lfsr_tap_mask == sum(1 << t for t in taps)


# --- key schedule -----------------------------------------------------------

def _naive_schedule(key, p):
    s = key.high or 1
    keys = []
    for r in range(p.rounds):
        keys.append(key.low ^ s ^ p.round_constants[r])
        s = _lfsr_step_per_tap(s, p)
    return tuple(keys)


@pytest.mark.parametrize("width", [4, 5, 8, 16, 31, 33, 64])
def test_derive_round_keys_matches_naive_schedule(width):
    # From w - 2 rounds on, the states need a second slice of w - max(tap)
    # LFSR feedback bits; 2w + 5 rounds need a third.
    rnd = random.Random(100 + width)
    for rounds in sorted({1, 7, 20, 24, 2 * width + 5} | {max(1, width - k) for k in (4, 3, 2)}):
        p = CipherParams(width, rounds=rounds)
        keys = [MasterKey(0, 0, width), MasterKey(0, p.branch_mask, width)]
        keys += [MasterKey(rnd.getrandbits(width), rnd.getrandbits(width), width) for _ in range(50)]
        for key in keys:
            assert derive_round_keys(key, p) == _naive_schedule(key, p)


@pytest.mark.parametrize("width", [4, 7, 16, 64])
def test_params_derive_their_own_constants(width):
    # Instances of one width with different offsets each keep their own
    # rotation amounts; equality and hashing see only the declared fields.
    rnd = random.Random(width)
    seen = set()
    while len(seen) < 4:
        offsets = tuple(k - width * rnd.randrange(2) for k in rnd.sample(range(1, width), 3))
        p = CipherParams(width, offsets)
        assert p.rotations == tuple(o % width for o in offsets)
        # Each shift is its offset modulo the width, taken in (-width/2, width/2].
        assert len(p.shifts) == 3
        assert all((s - o) % width == 0 and -width < 2 * s <= width
                   for s, o in zip(p.shifts, offsets))
        assert p.branch_mask == (1 << width) - 1
        assert p.lfsr_tap_mask == sum(1 << t for t in p.lfsr_taps)
        assert p == CipherParams(width, offsets)
        assert hash(p) == hash(CipherParams(width, offsets))
        seen.add(p.rotations)
        values = [0, p.branch_mask] + [rnd.getrandbits(width) for _ in range(100)]
        got = f_core(np.array(values, dtype=np.uint64), p)
        assert [int(v) for v in got] == [f_core(v, p) for v in values] \
            == [_f_core_naive(v, p) for v in values]


def test_params_offsets_default_to_scaled_offsets():
    # One constructor names every width: without offsets it takes the
    # scaled ones, which at width 64 are the full cipher's.
    for width in range(4, 65):
        assert CipherParams(width).offsets == scaled_offsets(width)
        assert CipherParams(width, (1, 2, 3)).offsets == (1, 2, 3)
    full = CipherParams()
    assert full == CipherParams.full() == CipherParams(64, (-1, 1, 16))
    assert hash(full) == hash((64, (-1, 1, 16), 20))
    assert repr(full) == ("CipherParams(branch_width=64, offsets=(-1, 1, 16), rounds=20, "
                          f"round_constants={ROUND_CONSTANTS})")


def test_params_differing_only_in_derived_fields_compare_and_hash_equal():
    p = CipherParams(16)
    derived = [f.name for f in dataclasses.fields(p) if not f.init]
    assert {"round_constants", "branch_mask", "lfsr_taps", "lfsr_tap_mask"} <= set(derived)
    for name in derived:
        q = copy.copy(p)
        object.__setattr__(q, name, None)
        assert q == p and hash(q) == hash(p)


def test_params_offsets_list_equals_tuple():
    p = CipherParams(16, [-1, 1, 4])
    assert p.offsets == (-1, 1, 4)
    assert p == CipherParams(16, (-1, 1, 4)) == CipherParams(16)
    assert hash(p) == hash(CipherParams(16, (-1, 1, 4)))


@pytest.mark.parametrize("offsets", [(-1, 1, 4.0), (-1.0, 1, 4), ("-1", 1, 4), (-1, 1, None)])
def test_params_offsets_must_be_integers(offsets):
    # A float offset used to build an instance equal to CipherParams(16)
    # whose cipher then failed on its first shift.
    with pytest.raises(ValueError, match=r"offsets .* not all integers"):
        CipherParams(16, offsets)


def test_params_numpy_integer_offsets_become_int():
    p = CipherParams(16, np.array([-1, 1, 4], dtype=np.int64))
    assert p.offsets == (-1, 1, 4) and all(type(o) is int for o in p.offsets)
    assert p == CipherParams(16) and hash(p) == hash(CipherParams(16))
    assert Cipher(p).encrypt_block(MasterKey(1, 2, 16), Block(3, 4, 16)) == \
        Cipher(CipherParams(16)).encrypt_block(MasterKey(1, 2, 16), Block(3, 4, 16))


def test_round_constants_are_pi_digits():
    # Rebuild the constant table from scratch with arbitrary-precision pi.
    mp = pytest.importorskip("mpmath").mp
    mp.prec = 4 + 4 * 340
    x = mp.pi - 3
    digits = ""
    for _ in range(330):
        x = x * 16
        d = int(x)
        digits += "0123456789abcdef"[d]
        x -= d
    assert digits[:320] == PI_FRACTIONAL_HEX
    assert ROUND_CONSTANTS[0] == 0x243F6A8885A308D3
    assert ROUND_CONSTANTS[1] == 0x13198A2E03707344
    assert ROUND_CONSTANTS[2] == 0xA4093822299F31D0


def test_zero_key_first_round_key():
    rks = derive_round_keys(MasterKey(0, 0), CipherParams.full())
    assert rks[0] == ROUND_CONSTANTS[0] ^ 1 == 0x243F6A8885A308D2


def test_round_keys_pairwise_distinct():
    p = CipherParams.full()
    rnd = random.Random(6)
    for _ in range(1000):
        key = MasterKey(rnd.getrandbits(64), rnd.getrandbits(64))
        rks = derive_round_keys(key, p)
        assert len(set(rks)) == p.rounds


def test_schedule_deterministic():
    key = MasterKey(0x0123456789ABCDEF, 0xFEDCBA9876543210)
    p = CipherParams.full()
    assert derive_round_keys(key, p) == derive_round_keys(key, p)


def _gf2_rank(vectors) -> int:
    basis = {}                        # leading bit -> reduced vector
    for v in vectors:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


@pytest.mark.parametrize("width", [4, 5])
def test_equivalent_keys_exhaustive(width):
    p = CipherParams(width)
    classes = defaultdict(set)
    for high, low in itertools.product(range(1 << width), repeat=2):
        classes[derive_round_keys(MasterKey(high, low, width), p)].add((high, low))
    # The LFSR step is linear, so two keys share every round key exactly
    # when their start states differ by a fixed point d of the step and
    # their low halves by the same d.
    fixed = {d for d in range(1 << width) if lfsr_step(d, p) == d}
    for members in classes.values():
        for high, low in members:
            partners = {(h, low ^ lfsr_init(h) ^ lfsr_init(high)) for h in range(1 << width)
                        if lfsr_init(h) ^ lfsr_init(high) in fixed}
            assert partners == members
    shared = sorted(sorted(c) for c in classes.values() if len(c) > 1)
    if width == 5:
        # L ^ I has full rank: only the zero-to-one rule of lfsr_init joins
        # keys, K_high = 0 and 1 under each K_low.
        assert fixed == {0}
        assert shared == [[(0, low), (1, low)] for low in range(1 << width)]
    else:
        # The taps left at width 4 (0, 1, 3) make 1111 a fixed point.
        assert fixed == {0, 0b1111}
        assert len(shared) == 112 and {len(c) for c in shared} == {2, 3}


def test_lfsr_step_minus_identity_has_full_rank_from_width_5():
    for width in range(4, 65):
        p = CipherParams(width)
        rank = _gf2_rank(lfsr_step(1 << j, p) ^ 1 << j for j in range(width))
        assert rank == (width - 1 if width == 4 else width)


def test_full_width_equivalent_key_pairs():
    # K_high = 0 starts the LFSR at 1, as K_high = 1 does: 2^64 pairs of
    # equivalent keys, and no others since L ^ I has full rank.
    p = CipherParams.full()
    rnd = random.Random(22)
    for _ in range(20):
        low = rnd.getrandbits(64)
        pt = Block(rnd.getrandbits(64), rnd.getrandbits(64))
        k0, k1 = MasterKey(0, low), MasterKey(1, low)
        assert derive_round_keys(k0, p) == derive_round_keys(k1, p)
        assert EGC128.encrypt_block(k0, pt) == EGC128.encrypt_block(k1, pt)
        assert EGC128.encrypt_block(MasterKey(2, low), pt) != EGC128.encrypt_block(k0, pt)


# --- block mapping ----------------------------------------------------------

def test_block_hex_mapping():
    b = Block.from_hex("054e2db44cd3907d7c814c56070da703")
    assert b.left == 0x054E2DB44CD3907D
    assert b.right == 0x7C814C56070DA703
    assert b.hex() == "054e2db44cd3907d7c814c56070da703"
    with pytest.raises(ValueError):
        Block.from_hex("00ff")  # wrong length for the full width
    assert Block.from_hex(" 0X0000000A ", 16) == Block(0, 10, 16)


@pytest.mark.parametrize("text", ["0000_001", "+0000001", "-0000001", "0000 001", "0000000g",
                                  "0x+000001", "00000١٢"])
def test_from_hex_takes_hex_digits_only(text):
    # Python's int(text, 16) takes "_" separators, a sign, inner spaces
    # and non-ASCII digits; a block or key is its hex digits alone.
    for cls in (Block, MasterKey):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            cls.from_hex(text, 16)


def test_block_width_checks():
    with pytest.raises(ValueError):
        Block(1 << 64, 0)
    with pytest.raises(ValueError):
        MasterKey(0, 1 << 16, width=16)
    for value in (1 << 32, -1):
        with pytest.raises(ValueError, match="block value does not fit in 32 bits"):
            Block.from_int(value, 16)
    with pytest.raises(ValueError, match="width mismatch"):
        Block(1, 2, 16) ^ Block(1, 2, 8)


def test_key_and_block_widths_must_match_the_cipher():
    cipher = Cipher(CipherParams(16))
    key, block = MasterKey(1, 2, 16), Block(3, 4, 16)
    with pytest.raises(ValueError, match="key width does not match"):
        derive_round_keys(MasterKey(1, 2, 8), cipher.params)
    for k, b in ((MasterKey(1, 2, 8), block), (key, Block(3, 4, 8))):
        for op in (cipher.encrypt_block, cipher.decrypt_block):
            with pytest.raises(ValueError, match="key/block width does not match"):
                op(k, b)


@pytest.mark.parametrize("cls", [Block, MasterKey])
def test_halves_are_slotted_frozen_values(cls):
    value = cls(0x0123456789ABCDEF, 0xFEDCBA9876543210)
    first = dataclasses.fields(cls)[0].name
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, first)
    # A new attribute has no slot.  Python 3.11's generated __setattr__
    # then raises TypeError, as its super() names the pre-slots class.
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    with pytest.raises(ValueError):
        dataclasses.replace(value, **{first: 1 << 64})
    assert dataclasses.replace(value, **{first: 5}) == cls(5, 0xFEDCBA9876543210)
    # Equality and hashing stay those of the field tuple, per class.
    assert hash(value) == hash(dataclasses.astuple(value))
    assert value == cls(*dataclasses.astuple(value))
    assert value != cls(0x0123456789ABCDEF, 0xFEDCBA9876543211)
    assert Block(1, 2) != MasterKey(1, 2) and Block(1, 2, 16) != Block(1, 2)


# --- encryption -------------------------------------------------------------

def test_reference_vectors_encrypt_and_decrypt():
    results = verify_vectors()
    assert len(results) == 10
    for r in results:
        assert r.encrypt_ok and r.decrypt_ok, r


def test_named_vectors():
    assert EGC128.encrypt_block(MasterKey(0, 0), Block(0, 0)).hex() == \
        "054e2db44cd3907d7c814c56070da703"
    key = MasterKey.from_hex("ffffffffffffffffffffffffffffffff")
    pt = Block.from_hex("ffffffffffffffffffffffffffffffff")
    assert EGC128.encrypt_block(key, pt).hex() == "797644aee6b69c4c28ac59bdcce7ff19"
    key = MasterKey.from_hex("3c4f1a279bd80256e1f0c3a5d4976b8e")
    pt = Block.from_hex("9a7c3e2b10f4d8c6b5e1a2938476d0f1")
    assert EGC128.encrypt_block(key, pt).hex() == "0c578e13690158046726b86187d850da"


def test_decrypt_vector_1():
    ct = Block.from_hex("054e2db44cd3907d7c814c56070da703")
    assert EGC128.decrypt_block(MasterKey(0, 0), ct) == Block(0, 0)


def test_roundtrip_random():
    rnd = random.Random(7)
    for _ in range(100):
        key = MasterKey(rnd.getrandbits(64), rnd.getrandbits(64))
        pt = Block(rnd.getrandbits(64), rnd.getrandbits(64))
        assert EGC128.decrypt_block(key, EGC128.encrypt_block(key, pt)) == pt


def test_single_round_roundtrip_reduced():
    p = CipherParams(16, rounds=1)
    c = Cipher(p)
    key = MasterKey(0x1111, 0x2222, 16)
    pt = Block(0xAAAA, 0x5555, 16)
    assert c.decrypt_block(key, c.encrypt_block(key, pt)) == pt


# --- reduced-round instances ------------------------------------------------

def _naive_encrypt(p, rks, block, rounds):
    L, R = block.left, block.right
    for i in range(rounds):
        L, R = R, L ^ _f_core_naive(R, p) ^ rks[i]
    return Block(L, R, p.branch_width)


def _naive_decrypt(p, rks, block, rounds):
    # Undo the rounds last to first: R_old = L, L_old = R ^ F(L) ^ RK.
    L, R = block.left, block.right
    for i in reversed(range(rounds)):
        L, R = R ^ _f_core_naive(L, p) ^ rks[i], L
    return Block(L, R, p.branch_width)


@pytest.mark.parametrize("width", (4, 8, 16, 33, 64))
def test_round_override_matches_naive_loop(width):
    # The cipher of CipherParams(width, rounds=r) runs the first r rounds
    # of the full schedule.  Round 0 is the plaintext itself; the
    # engine's round-0 snapshot checks that.
    p = CipherParams(width)
    rnd = random.Random(width)
    for _ in range(3):
        key = MasterKey(rnd.getrandbits(width), rnd.getrandbits(width), width)
        block = Block(rnd.getrandbits(width), rnd.getrandbits(width), width)
        rks = derive_round_keys(key, p)
        for r in range(1, p.rounds + 1):
            c = Cipher(CipherParams(width, rounds=r))
            ct = c.encrypt_block(key, block)
            pt = c.decrypt_block(key, block)
            assert ct == _naive_encrypt(p, rks, block, r), r
            assert pt == _naive_decrypt(p, rks, block, r), r
            assert c.decrypt_block(key, ct) == block, r
            assert c.encrypt_block(key, pt) == block, r


@st.composite
def _family_cases(draw):
    width = draw(st.integers(4, 64))
    residues = draw(st.lists(st.integers(1, width - 1), min_size=3, max_size=3, unique=True))
    # Any representative of a residue names the same neighbour.
    offsets = tuple(k - width if draw(st.booleans()) else k for k in residues)
    # Schedules of w - 2 rounds or more read a second slice of LFSR feedback.
    rounds = draw(st.integers(1, 24) | st.integers(max(1, width - 4), 2 * width + 5))
    p = CipherParams(width, offsets, rounds=rounds)
    key = MasterKey(draw(st.integers(0, p.branch_mask)), draw(st.integers(0, p.branch_mask)), width)
    block = Block(draw(st.integers(0, p.branch_mask)), draw(st.integers(0, p.branch_mask)), width)
    return p, key, block


@settings(max_examples=150, deadline=None, database=None)
@given(_family_cases())
@example((CipherParams(33, rounds=71), MasterKey(0, 5, 33), Block(1, 2, 33)))
def test_scalar_cipher_matches_naive_loop_across_family(case):
    # The doubled-word rotation depends on the width and the offsets, so
    # the whole family is drawn, schedules of 1 to 2w + 5 rounds included,
    # against the per-vertex F_core and the per-tap key schedule.
    p, key, block = case
    c = Cipher(p)
    rks = _naive_schedule(key, p)
    ct = c.encrypt_block(key, block)
    assert ct == _naive_encrypt(p, rks, block, p.rounds)
    assert c.decrypt_block(key, block) == _naive_decrypt(p, rks, block, p.rounds)
    assert c.decrypt_block(key, ct) == block


@pytest.mark.parametrize("width", (4, 8, 16, 33, 64))
def test_round_override_outside_schedule_raises(width):
    # Only the engine selects rounds per call; a scalar cipher runs its
    # instance's whole schedule, and an instance has at least one round.
    p = CipherParams(width)
    key = MasterKey(1, 2, width)
    lanes = np.zeros((width, 1), dtype=np.uint64)
    delta = Block(0, 0, width)
    engine = BitslicedCipher(p)
    for r in (-1, p.rounds + 1):
        for call in (lambda: engine.encrypt(lanes, lanes, key, rounds=r),
                     lambda: next(engine.pair_differences(lanes, lanes, delta, key, r))):
            with pytest.raises(ValueError, match=rf"rounds {r} outside 0\.\.{p.rounds}"):
                call()
    assert list(inspect.signature(Cipher.encrypt_block).parameters) == ["self", "key", "pt"]
    assert list(inspect.signature(Cipher.decrypt_block).parameters) == ["self", "key", "ct"]
    for r in (-1, 0):
        with pytest.raises(ValueError, match="round count must be >= 1"):
            CipherParams(width, rounds=r)


def test_every_instance_is_named_by_its_params():
    # No constructor or LFSR step falls back to the full-width instance.
    for call in (Cipher, BitslicedCipher, lambda: lfsr_step(1), lambda: lfsr_inverse_step(1)):
        with pytest.raises(TypeError):
            call()
    assert EGC128.params == CipherParams.full()


def test_vector_file_format():
    for tv in load_vectors():
        for field in (tv.key_hex, tv.pt_hex, tv.ct_hex):
            assert len(field) == 32
            assert field == field.lower()
            int(field, 16)


# --- reduced family ---------------------------------------------------------

def test_reduced_16_roundtrip():
    c = Cipher(CipherParams(16, (-1, 1, 4)))
    rnd = random.Random(8)
    for _ in range(10**4):
        key = MasterKey(rnd.getrandbits(16), rnd.getrandbits(16), 16)
        pt = Block(rnd.getrandbits(16), rnd.getrandbits(16), 16)
        assert c.decrypt_block(key, c.encrypt_block(key, pt)) == pt


def test_reduced_width64_degenerates_to_full():
    c = Cipher(CipherParams(64, (-1, 1, 16)))
    assert c.encrypt_block(MasterKey(0, 0), Block(0, 0)).hex() == \
        "054e2db44cd3907d7c814c56070da703"


def test_reduced_4bit_exhaustive_bijection():
    c = Cipher(CipherParams(4))
    key = MasterKey(0x9, 0x3, 4)
    images = {c.encrypt_block(key, Block.from_int(x, 4)).to_int()
              for x in range(1 << 8)}
    assert len(images) == 1 << 8


def test_invalid_reduced_offsets():
    with pytest.raises(ValueError):
        CipherParams(16, (-1, 1, 17))   # +17 collides with +1 mod 16
    with pytest.raises(ValueError):
        CipherParams(3)


def test_round_constant_truncation():
    p = CipherParams(16)
    assert p.round_constants[0] == ROUND_CONSTANTS[0] & 0xFFFF
    assert len(p.round_constants) == p.rounds
    # RC_r is the (r mod 20)-th 16-digit word of pi's fraction, truncated
    # to the branch width; no caller can supply its own table.
    for width in range(4, 65):
        for rounds in range(1, 46):
            want = tuple(int(PI_FRACTIONAL_HEX[16 * (r % 20) : 16 * (r % 20) + 16], 16)
                         % (1 << width) for r in range(rounds))
            assert CipherParams(width, rounds=rounds).round_constants == want
    assert CipherParams(rounds=10).round_constants == ROUND_CONSTANTS[:10]
    with pytest.raises(TypeError):
        CipherParams(round_constants=ROUND_CONSTANTS)
