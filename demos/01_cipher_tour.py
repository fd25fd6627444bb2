#!/usr/bin/env python3
"""Tour of the cipher core: block mapping, key schedule, reference
vectors, and the width-parametric reduced family."""

from egc128 import EGC128, Block, Cipher, CipherParams, MasterKey
from egc128.cipher import derive_round_keys, f_core
from egc128.vectors import load_vectors, verify_vectors

print("=" * 70)
print("EGC128 cipher core")
print("=" * 70)

key = MasterKey.from_hex("000102030405060708090a0b0c0d0e0f")
pt = Block.from_hex("00112233445566778899aabbccddeeff")
ct = EGC128.encrypt_block(key, pt)
print(f"\nkey        = {key.hex()}")
print(f"plaintext  = {pt.hex()}")
print(f"ciphertext = {ct.hex()}")
print(f"decrypted  = {EGC128.decrypt_block(key, ct).hex()}")

print("\nRound keys are K_low xor LFSR-state xor round-constant:")
for r, rk in enumerate(derive_round_keys(key, CipherParams.full())[:4]):
    print(f"  RK_{r} = {rk:016x}")
print("  ...")

print("\nThe nonlinear layer applies one 4-input rule at every bit position.")
print(f"  F_core(0x0) = {f_core(0, CipherParams.full()):016x}  (rule(0,0,0,0)=1)")
print(f"  F_core(all ones) = {f_core((1 << 64) - 1, CipherParams.full()):016x}")

print("\nReference vectors:")
for tv, res in zip(load_vectors(), verify_vectors()):
    print(f"  {tv.name:24s} encrypt {'ok' if res.encrypt_ok else 'FAIL'}, "
          f"decrypt {'ok' if res.decrypt_ok else 'FAIL'}")

print("\nThe same structure scales down for exhaustive analyses:")
tiny = Cipher(CipherParams(4))
k4 = MasterKey(0x9, 0x3, 4)
images = sorted(tiny.encrypt_block(k4, Block.from_int(x, 4)).to_int()
                for x in range(256))
print(f"  4-bit-branch instance permutes all 256 blocks: "
      f"{images == list(range(256))}")

mid = Cipher(CipherParams(16))
k16 = MasterKey(0x1234, 0xabcd, 16)
p16 = Block.from_hex("cafe0042", 16)
c16 = mid.encrypt_block(k16, p16)
print(f"  16-bit-branch instance: {p16.hex()} -> {c16.hex()} -> "
      f"{mid.decrypt_block(k16, c16).hex()}")
