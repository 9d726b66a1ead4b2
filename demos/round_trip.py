"""Base scheme walkthrough: keys, encryption, noise, and the trapdoor.

Run: python3 demos/round_trip.py
"""

import numpy as np

from codehom.field import FieldElement, FieldSpec, random_elements
from codehom.scheme import Params, decrypt, decrypt_batch, encrypt, encrypt_batch, keygen

rng = np.random.default_rng(7)
GF256 = FieldSpec(8)

p = Params(n=24, r=9, s=3, field=GF256, eta=0.0)
pk, sk = keygen(p, rng)
print(f"key pair over GF(2^{GF256.k}): ciphertexts are length-{p.n} vectors,")
print(f"randomness has length r={p.r}, the hidden trapdoor set is S={sk.S}")

m = FieldElement(GF256, 0x5A)
c = encrypt(pk, m, rng)
print(f"\nencrypt(0x{m.value:02x}) -> first coords {c[:6].tolist()}...")
print(f"decrypt -> 0x{decrypt(sk, c).value:02x} (noiseless, always exact)")

noisy = Params(n=24, r=9, s=3, field=GF256, eta=0.05)
pk2, sk2 = keygen(noisy, rng)
trials = 20_000
ms = random_elements(GF256, rng, trials)
fails = int((decrypt_batch(sk2, encrypt_batch(pk2, ms, rng)) != ms).sum())
print(f"\nat eta={noisy.eta} the decryption failure rate is only about eta*s:")
print(f"measured {fails / trials:.4f} over {trials} trials, bound {noisy.eta * noisy.s:.2f}")
print("(failure needs the noise to land on the hidden support of the decryption vector)")
