"""Why reencryption exists: products leave the encryption space, and a
keyed linear map puts them back under a fresh key.

Run: python3 demos/reencryption_chain.py
"""

import numpy as np

from codehom.circuit import build_corr
from codehom.field import FieldElement, FieldSpec, mul_arrays
from codehom.reencrypt import (
    aux_gen_basic,
    aux_is_good,
    chain_eval_arrays,
    chain_keygen,
    reencrypt_rows,
)
from codehom.scheme import (
    Params,
    decrypt,
    decrypt_batch,
    enc_space_contains,
    dec_space_contains,
    encrypt,
    encrypt_batch,
    keygen,
)

rng = np.random.default_rng(11)
GF16 = FieldSpec(4)
p = Params(n=16, r=6, s=3, field=GF16, eta=0.0)

pk, sk = keygen(p, rng)
a, b = FieldElement(GF16, 3), FieldElement(GF16, 7)
ca, cb = encrypt(pk, a, rng), encrypt(pk, b, rng)

s = ca ^ cb
print(f"xor: decrypts to {decrypt(sk, s).value} (= 3 xor 7),",
      f"still a valid encryption: {enc_space_contains(sk, a + b, s)}")

prod = mul_arrays(GF16, ca, cb)
print(f"mul: decrypts to {decrypt(sk, prod).value} (= 3*7 in GF(16)),",
      f"decryptable member: {dec_space_contains(sk, a * b, prod)}")

# Products decrypt correctly but generically fall out of the encryption
# space (the rare survivors below are chance hits, ~2/q of pairs).
pairs = 200
in_enc = in_dec = 0
for _ in range(pairs):
    u, v = (FieldElement(GF16, int(x)) for x in rng.integers(0, GF16.q, 2))
    pr = mul_arrays(GF16, encrypt(pk, u, rng), encrypt(pk, v, rng))
    in_enc += enc_space_contains(sk, u * v, pr)
    in_dec += dec_space_contains(sk, u * v, pr)
print(f"over {pairs} random products: decryptable {in_dec}/{pairs},",
      f"still valid encryptions {in_enc}/{pairs}")

pk2, sk2 = keygen(p, rng)
link = aux_gen_basic(sk, pk2, rng)
print(f"\naux generated under a fresh key; good: {aux_is_good(link, sk, sk2)}")
back = reencrypt_rows(GF16, link, prod)
print(f"reencrypted product: decrypts to {decrypt(sk2, back).value},",
      f"valid encryption again: {enc_space_contains(sk2, a * b, back)}")

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
