"""Full stack at desk scale: replicated keys, a two-layer circuit, boosted
evaluation, and decryption of the result.

Run: python3 demos/layered_evaluation.py  (about a second on a 2-core
host). The results go to stdout, the same on every run; the wall times
go to stderr.
"""

import sys
import time

import numpy as np

from codehom.circuit import eval_plain, parse_netlist
from codehom.field import FieldElement, FieldSpec
from codehom.hom import BoostConfig, hdec, hom_encrypt, hom_eval, hom_keygen
from codehom.scheme import Params

NETLIST = """
inputs x0 x1 x2 x3
and0 = AND x0 x1
xor0 = XOR x2 x3
g0   = G and0 xor0
outputs g0
"""

rng = np.random.default_rng(23)
GF256 = FieldSpec(8)
desk = Params(n=128, r=48, s=12, field=GF256, eta=0.0)

t0 = time.perf_counter()
hk = hom_keygen(desk, 32, 2, rng, BoostConfig(b=16, lambda_target=0.6, mid_n=16, verify_trials=60))
print(f"{hk} generated in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
print(f"{hk}, {hk.key_size_fields():,} field elements of key material")

circ = parse_netlist(NETLIST)
bits = [1, 1, 0, 1]
kcs = [hom_encrypt(hk, b, rng) for b in bits]
print(f"\ninputs {bits}, each encrypted as {kcs[0].k} replicated parts")

t0 = time.perf_counter()
outs = hom_eval(hk, circ, kcs, count_xor=False)
print(f"evaluated {len(circ.gates)} gates in {time.perf_counter() - t0:.1f}s", file=sys.stderr)

got = hdec(hk, outs[0])
want = eval_plain(circ, [FieldElement(GF256, b) for b in bits])[0]
print(f"homomorphic result {got.value}, plain evaluation {want.value}, match: {got == want}")
