"""Why reencryption exists: products leave the encryption space, and a
keyed linear map puts them back under a fresh key.

Run: python3 demos/reencryption_chain.py
"""

import numpy as np

from codehom.circuit import build_corr
from codehom.field import FieldSpec, mul_arrays
from codehom.reencrypt import (
    aux_gen_basic,
    aux_is_good,
    chain_eval_arrays,
    chain_keygen,
    reencrypt_rows,
)
from codehom.scheme import (
    Params,
    dec_membership_batch,
    decrypt_batch,
    enc_membership_batch,
    encrypt_batch,
    keygen,
)

rng = np.random.default_rng(11)
GF16 = FieldSpec(4)
p = Params(n=16, r=6, s=3, field=GF16, eta=0.0)

pk, sk = keygen(p, rng)
a, b = 3, 7
ab = int(mul_arrays(GF16, a, b))
# one call per one-row block: a two-row call would draw both rows' randomness
# before either row's noise, and so encrypt differently
ca, cb = encrypt_batch(pk, [a], rng), encrypt_batch(pk, [b], rng)

s = ca ^ cb
print(f"xor: decrypts to {decrypt_batch(sk, s)[0]} (= 3 xor 7),",
      f"still a valid encryption: {enc_membership_batch(sk, [a ^ b], s)[0]}")

prod = mul_arrays(GF16, ca, cb)
print(f"mul: decrypts to {decrypt_batch(sk, prod)[0]} (= 3*7 in GF(16)),",
      f"decryptable member: {dec_membership_batch(sk, [ab], prod)[0]}")

# Products decrypt correctly but generically fall out of the encryption
# space (the rare survivors below are chance hits, ~2/q of pairs).
pairs = 200
in_enc = in_dec = 0
for _ in range(pairs):
    u, v = (int(x) for x in rng.integers(0, GF16.q, 2))
    pr = mul_arrays(GF16, encrypt_batch(pk, [u], rng), encrypt_batch(pk, [v], rng))
    uv = [mul_arrays(GF16, u, v)]
    in_enc += int(enc_membership_batch(sk, uv, pr)[0])
    in_dec += int(dec_membership_batch(sk, uv, pr)[0])
print(f"over {pairs} random products: decryptable {in_dec}/{pairs},",
      f"still valid encryptions {in_enc}/{pairs}")

pk2, sk2 = keygen(p, rng)
link = aux_gen_basic(sk, pk2, rng)
print(f"\naux generated under a fresh key; good: {aux_is_good(link, sk, sk2)}")
back = reencrypt_rows(GF16, link, prod)
print(f"reencrypted product: decrypts to {decrypt_batch(sk2, back)[0]},",
      f"valid encryption again: {enc_membership_batch(sk2, [ab], back)[0]}")

# The same mechanism, chained, drives error correction: CORR_2 takes four
# copies of a bit, one possibly ruined, and returns the bit.
chain = chain_keygen(p, 2, rng)
pk0, _ = chain.levels[0].pair(0)
_, sk_top = chain.levels[-1].pair(0)
bit = 1
copies = encrypt_batch(pk0, np.full(4, bit, dtype=GF16.dtype), rng)
copies[2] ^= 9  # ruin the third copy arbitrarily
X = copies[:, None, :]
out = chain_eval_arrays(chain.level_params, chain.links, build_corr(2), X)[0]
got = int(decrypt_batch(sk_top, out)[0])
print(f"\nCORR_2 over encryptions of {bit} with one copy ruined -> {got}")
