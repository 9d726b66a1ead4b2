"""Release gate: twelve end-to-end checks, one per guarantee the stack makes.

Each test prints a single verdict line (visible under pytest -s, or in the
failure output otherwise) and pins its tolerance next to the measurement.
Monte Carlo checks run on fixed seeds: a verdict is a frozen, reproducible
sample, and every statistical gate leaves at least a few sigma of margin
over the measured rates recorded in the comments.

The twelve checks:

 1. noiseless round trips at n=256, fresh key per trial, under 10 s
 2. decryption failure under noise stays below eta*s (n=240 profile)
 3. the canonical decryption vector satisfies the raw constraint system
 4. pointwise xor/mul identities on constructed encryption-space members
 5. reencryption is exact on good aux; aux failure matches n*eta'*s'
 6. the correction tree fixes single corruptions, exhaustively and noisily
 7. approximate majority: agreement contract and exact gate count
 8. hidden-row rank deficiency: deterministic branch and field-size scaling
 9. expander spectra and the mixing cap on heavy outputs
10. boosting failure does not grow with replication k
11. full homomorphic evaluation mirrors plain evaluation at desk scale
12. key material grows linearly in depth and replication
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from codehom.analysis import Z95, rank_experiment, wilson_interval
from codehom.booster import boost_aux_gen, boost_arrays, build_expander, second_singular_value
from codehom.circuit import build_apxmaj, build_corr, compile_schedule, eval_plain, eval_plain_array
from codehom.field import FieldElement, FieldSpec, inv_arrays, mul_arrays, random_elements
from codehom.hom import BoostConfig, enc_k_threshold, hdec, hom_encrypt, hom_eval, hom_keygen
from codehom.linalg import dot_arrays, matmul_arrays
from codehom.reencrypt import aux_gen_basic, aux_is_good, chain_eval_arrays, chain_keygen
from codehom.scheme import (
    Params,
    PublicKey,
    decrypt,
    decrypt_batch,
    dec_membership_batch,
    enc_membership_batch,
    encrypt,
    encrypt_batch,
    keygen,
    noise_array,
)

from circuit_gen import random_two_layer_circuit
from oracles import bad_neighbor_counts, gtree_circuit, heavy_output_bound

GF4 = FieldSpec(4)
GF8 = FieldSpec(8)
GF16 = FieldSpec(16)


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _three_sigma(bound: float, trials: int) -> float:
    return 3.0 * float(np.sqrt(bound * (1.0 - bound) / trials))


# 1 ------------------------------------------------------------------------


def test_c01_noiseless_round_trips():
    """1000 fresh (key, message, randomness) triples at n=256, eta=0."""
    p = Params(n=256, r=32, s=12, field=GF8, eta=0.0)
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(1000):
        pk, sk = keygen(p, rng)
        m = FieldElement(GF8, int(rng.integers(GF8.q)))
        bad += decrypt(sk, encrypt(pk, m, rng)) != m
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    _verdict(1, ok, f"1000/1000 round trips at n=256 in {elapsed:.1f}s (budget 10s)")


# 2 ------------------------------------------------------------------------


def test_c02_noisy_decryption_failure_bound():
    """Failure rate <= eta*s = 0.06 at n=240, r=60, s=12, GF(2^16), eta=0.005.

    The canonical decryption vector is supported on ~2s/3+1 of the s trapdoor
    coordinates, so the true rate sits near 0.044; the 0.06 bound has over
    five sigma of slack at 10^4 trials.
    """
    p = Params(n=240, r=60, s=12, field=GF16, eta=0.005)
    rng = np.random.default_rng(102)
    pk, sk = keygen(p, rng)
    trials = 10_000
    ms = random_elements(GF16, rng, trials)
    fails = int((decrypt_batch(sk, encrypt_batch(pk, ms, rng)) != ms).sum())
    est = fails / trials
    lo, hi = wilson_interval(fails, trials)
    bound = p.eta * p.s
    cap = bound + _three_sigma(bound, trials)
    ok = est <= bound and hi <= cap
    _verdict(2, ok, f"failure rate {est:.4f}, interval [{lo:.4f}, {hi:.4f}] <= {bound} (3-sigma cap {cap:.4f})")


# 3 ------------------------------------------------------------------------


def _raw_residuals(sk):
    # Uncollapsed system, substituted directly: r^2 tensor rows (the s x s
    # leading block is the live part), r linear rows, one affine row.
    spec = sk.params.field
    S = np.asarray(sk.S)
    y = sk.y_dec[S]
    Ms = sk.M[S]
    lin = np.bitwise_xor.reduce(mul_arrays(spec, y[:, None], Ms), axis=0)
    outer = mul_arrays(spec, Ms[:, :, None], Ms[:, None, :])
    ten = np.bitwise_xor.reduce(mul_arrays(spec, y[:, None, None], outer), axis=0)
    aff = int(np.bitwise_xor.reduce(y))
    return int(ten.max()), int(lin.max()), aff


def test_c03_decryption_vector_constraints():
    """100 fresh keys across s in {6, 12, 24}: every raw constraint exact."""
    rng = np.random.default_rng(103)
    grid = [(Params(24, 12, 6, GF8, 0.0), 34), (Params(36, 18, 12, GF8, 0.0), 33), (Params(60, 26, 24, GF8, 0.0), 33)]
    checked = 0
    worst = 0
    for p, reps in grid:
        for _ in range(reps):
            _, sk = keygen(p, rng)
            ten, lin, aff = _raw_residuals(sk)
            worst = max(worst, ten, lin, abs(aff - 1))
            checked += 1
    ok = checked == 100 and worst == 0
    _verdict(3, ok, f"{checked} keys, s in (6,12,24): tensor+linear residuals 0, affine row 1 (worst dev {worst})")


# 4 ------------------------------------------------------------------------


def _constructed_members(pk, sk, ms, rng):
    # Generic members of the encryption space: full-rate noise off the
    # trapdoor set, zero on it.
    p = pk.params
    X = random_elements(p.field, rng, (len(ms), p.r))
    C = dot_arrays(p.field, pk.P, X[:, None, :])
    C ^= np.asarray(ms, dtype=p.field.dtype)[:, None]
    E = noise_array(replace(p, eta=0.3), rng, (len(ms), p.n))
    E[:, np.asarray(sk.S)] = 0
    return C ^ E


def test_c04_pointwise_identities():
    """xor lands in the encryption space of m+m'; mul decrypts to m*m'."""
    p = Params(24, 9, 3, GF8, 0.0)
    rng = np.random.default_rng(104)
    pk, sk = keygen(p, rng)
    trials = 1000
    ms = random_elements(GF8, rng, trials)
    ms2 = random_elements(GF8, rng, trials)
    C = _constructed_members(pk, sk, ms, rng)
    C2 = _constructed_members(pk, sk, ms2, rng)
    assert bool(enc_membership_batch(sk, ms, C).all())
    assert bool(enc_membership_batch(sk, ms2, C2).all())
    xor_ok = int(enc_membership_batch(sk, ms ^ ms2, C ^ C2).sum())
    prods = decrypt_batch(sk, mul_arrays(GF8, C, C2))
    mul_ok = int((prods == mul_arrays(GF8, ms, ms2)).sum())
    ok = xor_ok == trials and mul_ok == trials
    _verdict(4, ok, f"xor membership {xor_ok}/{trials}, mul decryption {mul_ok}/{trials}")


# 5 ------------------------------------------------------------------------


def _dec_members(sk, ms, rng):
    # Random decryption-space members: uniform vectors, one support
    # coordinate adjusted so <y, c> hits the message.
    p = sk.params
    spec = p.field
    C = random_elements(spec, rng, (len(ms), p.n))
    y = sk.y_dec
    j0 = int(np.flatnonzero(y)[0])
    cur = decrypt_batch(sk, C)
    fix = mul_arrays(spec, cur ^ ms, inv_arrays(spec, y[j0 : j0 + 1]))
    C[:, j0] ^= fix
    return C


def test_c05_reencryption_exactness_and_aux_rate():
    """Good aux reencrypts every decryption-space member exactly; the
    unconditional bad-aux rate stays consistent with n*eta'*s'."""
    p = Params(16, 6, 3, GF16, 0.004)
    rng = np.random.default_rng(105)
    trials = 1000
    bound = p.n * p.eta * p.s  # 0.192; true rate ~0.175 (union-bound slack)
    bad_aux = 0
    samples = 0
    exact = 0
    while samples < 2 * trials:
        _, sk = keygen(p, rng)
        pk2, sk2 = keygen(p, rng)
        Z = aux_gen_basic(sk, pk2, rng)
        if not aux_is_good(Z, sk, sk2):
            bad_aux += 1
            continue
        ms = random_elements(GF16, rng, 2)
        C = _dec_members(sk, ms, rng)
        assert bool(dec_membership_batch(sk, ms, C).all())
        exact += int(enc_membership_batch(sk2, ms, matmul_arrays(GF16, C, Z)).sum())
        samples += 2
    good_trials = samples // 2
    n_aux = good_trials + bad_aux
    est = bad_aux / n_aux
    lo, hi = wilson_interval(bad_aux, n_aux)
    ok = exact == samples and lo <= bound and est <= bound + _three_sigma(bound, n_aux)
    _verdict(
        5,
        ok,
        f"conditional reencryption {exact}/{samples} exact; bad-aux rate {est:.4f} "
        f"[{lo:.4f}, {hi:.4f}] vs bound {bound:.4f}",
    )


# 6 ------------------------------------------------------------------------


def test_c06_correction_tree():
    """(a) depth-2 tree exhaustively corrects any single corrupted input;
    (b) homomorphic run at eta0=0.05 fails at most 6*eta0^2 of the time."""
    corr = build_corr(2)
    cases = []
    want = []
    for b in (0, 1):
        for pos in range(4):
            for v in range(GF4.q):
                row = [b] * 4
                row[pos] = v
                cases.append(row)
                want.append(b)
    X = np.asarray(cases, dtype=GF4.dtype).T
    got = eval_plain_array(GF4, corr, X)[0]
    exact = int((got == np.asarray(want, dtype=GF4.dtype)).sum())

    rng = np.random.default_rng(106)
    base = Params(16, 6, 3, GF4, 0.0)
    chain = chain_keygen(base, 2, rng)
    trials = 100_000
    eta0 = 0.05
    ms = rng.integers(0, 2, trials).astype(GF4.dtype)
    pk0 = PublicKey(chain.levels[0].P[0], replace(base, eta=eta0 / base.s))
    C = encrypt_batch(pk0, np.repeat(ms, 4), rng)
    Xc = C.reshape(trials, 4, 16).transpose(1, 0, 2)
    out = chain_eval_arrays(chain.level_params, chain.links, corr, Xc)[0]
    _, sk_top = chain.levels[-1].pair(0)
    fails = int((decrypt_batch(sk_top, out) != ms).sum())
    bound = 6 * eta0**2
    _, hi = wilson_interval(fails, trials)
    cap = bound + _three_sigma(bound, trials)
    ok = exact == len(cases) and hi <= cap
    _verdict(
        6,
        ok,
        f"exhaustive single-corruption repair {exact}/{len(cases)}; noisy failure "
        f"{fails / trials:.5f} (interval hi {hi:.5f}) <= {cap:.5f}",
    )


# 7 ------------------------------------------------------------------------


def test_c07_approximate_majority():
    """All 18 boolean 7/8-agreement patterns, 1000 field-valued corruptions,
    and the exact 16*m^2 - 1 gate count at m=8."""
    rng = np.random.default_rng(107)
    m = 8
    apx = gtree_circuit(m, build_apxmaj(m, rng, spec=GF4))
    patterns = []
    want = []
    for b in (0, 1):
        patterns.append([b] * m)
        want.append(b)
        for pos in range(m):
            row = [b] * m
            row[pos] = 1 - b
            patterns.append(row)
            want.append(b)
    X = np.asarray(patterns, dtype=GF4.dtype).T
    bool_ok = int((eval_plain_array(GF4, apx, X)[0] == np.asarray(want, dtype=GF4.dtype)).sum())

    trials = 1000
    Xf = np.empty((m, trials), dtype=GF4.dtype)
    wantf = np.empty(trials, dtype=GF4.dtype)
    for t in range(trials):
        b = int(rng.integers(2))
        Xf[:, t] = b
        Xf[int(rng.integers(m)), t] = int(rng.integers(GF4.q))
        wantf[t] = b
    field_ok = int((eval_plain_array(GF4, apx, Xf)[0] == wantf).sum())

    size = len([g for g in apx.gates if g.kind == "G"])
    ok = bool_ok == 18 and len(patterns) == 18 and field_ok == trials and size == 16 * m * m - 1
    _verdict(
        7,
        ok,
        f"boolean patterns {bool_ok}/18, field corruptions {field_ok}/{trials}, "
        f"size {size} == {16 * m * m - 1}",
    )


# 8 ------------------------------------------------------------------------


def test_c08_hidden_row_rank_deficiency():
    """Deterministic: s/3+1 trapdoor rows force deficiency every time.
    Stochastic: square-submatrix deficiency scales like 1/q (ratio ~256
    between GF(2^8) and GF(2^16), accepted inside [64, 1024])."""
    rep_det = rank_experiment(Params(24, 9, 3, GF8, 0.0), 9, 2, 1000, np.random.default_rng(108))
    rep8 = rank_experiment(Params(24, 9, 3, GF8, 0.0), 9, 0, 100_000, np.random.default_rng(1080))
    rep16 = rank_experiment(Params(24, 9, 3, GF16, 0.0), 9, 0, 100_000, np.random.default_rng(1081))
    def8 = 1.0 - rep8.estimate
    def16 = 1.0 - rep16.estimate
    ratio = def8 / def16 if def16 > 0 else float("inf")
    ok = rep_det.estimate == 0.0 and 64.0 <= ratio <= 1024.0
    _verdict(
        8,
        ok,
        f"deterministic branch deficient 1000/1000; deficiency {def8:.5f} (k=8) vs "
        f"{def16:.6f} (k=16), ratio {ratio:.0f} in [64, 1024]",
    )


# 9 ------------------------------------------------------------------------


def test_c09_expander_suite():
    """Complete bipartite spectrum, random-graph target, and the mixing cap."""
    k = 16
    complete = np.tile(np.arange(k), (k, 1))
    lam_complete = second_singular_value(complete)

    rng = np.random.default_rng(109)
    g = build_expander(256, 16, 0.6, rng)
    cap = heavy_output_bound(g)
    worst = 0
    for _ in range(100):
        mask = np.zeros(256, dtype=bool)
        mask[rng.choice(256, size=16, replace=False)] = True
        worst = max(worst, int((bad_neighbor_counts(g, mask) >= g.b // 8).sum()))
    ok = lam_complete <= 1e-6 and g.lambda_measured <= 0.6 and worst <= cap
    _verdict(
        9,
        ok,
        f"complete-bipartite lambda {lam_complete:.2e}; random (256,16) lambda "
        f"{g.lambda_measured:.3f} <= 0.6; heavy outputs max {worst} <= cap {cap:.0f}",
    )


# 10 -----------------------------------------------------------------------


def test_c10_boost_scaling_in_k():
    """Replication sweep k in {32, 64, 128} with parts corrupted iid at 1/16.

    Corrupted parts are decryption-space members of the flipped bit, the
    harshest corruption the boost contract admits. At rate 1/16 a wrong
    majority needs five or more bad neighbors under one output, so genuine
    boost failures sit far below measurement resolution at every k; the
    gate demands the measured rates never increase beyond three sigma and
    that every boosted part mirrors the plain majority exactly.
    """
    spec = GF8
    p = Params(32, 12, 3, spec, 0.0)
    rng = np.random.default_rng(110)
    pk_src, sk_src = keygen(p, rng)
    pk_tgt, sk_tgt = keygen(p, rng)
    leaves = build_apxmaj(16, rng, spec=spec)
    apx = gtree_circuit(16, leaves)
    m = 1
    rates = []
    mirror_all = True
    for k, trials in ((32, 400), (64, 200), (128, 100)):
        graph = build_expander(k, 16, 0.6, rng)
        assert graph.lambda_measured <= 0.6
        aux = boost_aux_gen(sk_src, pk_tgt, graph, leaves, rng, mid_n=8)
        fails = 0
        done = 0
        while done < trials:
            T = min(20, trials - done)
            parts = encrypt_batch(pk_src, np.full(T * k, m, dtype=spec.dtype), rng).reshape(T, k, p.n)
            mask = rng.random((T, k)) < 1 / 16
            n_bad = int(mask.sum())
            parts[mask] = _dec_members(sk_src, np.full(n_bad, m ^ 1, dtype=spec.dtype), rng)
            vals = decrypt_batch(sk_src, parts.reshape(-1, p.n)).reshape(T, k)
            expected = eval_plain_array(
                spec, apx, vals[:, graph.adjacency].transpose(2, 0, 1).reshape(16, T * k)
            )[0]
            out = boost_arrays(aux, parts)
            got = decrypt_batch(sk_tgt, out.reshape(-1, p.n))
            mirror_all &= bool((got == expected).all())
            good = (
                enc_membership_batch(sk_tgt, np.full(T * k, m, dtype=spec.dtype), out.reshape(-1, p.n))
                .reshape(T, k)
                .sum(axis=1)
            )
            fails += int((good < enc_k_threshold(k)).sum())
            done += T
        rates.append((k, trials, fails))
    monotone = True
    for (k0, t0, f0), (k1, t1, f1) in zip(rates, rates[1:]):
        p0, p1 = f0 / t0, f1 / t1
        slack = 3.0 * float(np.sqrt(p0 * (1 - p0) / t0 + p1 * (1 - p1) / t1))
        monotone &= p1 <= p0 + slack
    ok = monotone and mirror_all
    shown = ", ".join(f"k={k}: {f}/{t}" for k, t, f in rates)
    _verdict(10, ok, f"failures {shown}; non-increasing within 3 sigma; plain-majority mirror exact")


# 11 -----------------------------------------------------------------------


def test_c11_end_to_end_evaluation():
    """100 random two-layer circuits on desk keys (n=128, k=32, d=2).

    Keys are noiseless, so the measured per-link setup error is zero and
    the agreement target 1 - d*kappa collapses to exact agreement; the 90%
    floor stands regardless.
    """
    desk = Params(n=128, r=48, s=12, field=GF8, eta=0.0)
    rng = np.random.default_rng(111)
    t0 = time.perf_counter()

    kappa_trials = 200
    kappa_bad = 0
    for _ in range(kappa_trials):
        _, sk_a = keygen(desk, rng)
        pk_b, sk_b = keygen(desk, rng)
        if not aux_is_good(aux_gen_basic(sk_a, pk_b, rng), sk_a, sk_b):
            kappa_bad += 1
    kappa = kappa_bad / kappa_trials

    hk = hom_keygen(desk, 32, 2, rng, BoostConfig(b=16, lambda_target=0.6, mid_n=16, verify_trials=60))
    runs = 100
    agree = 0
    for i in range(runs):
        circ = random_two_layer_circuit(rng, n_inputs=4, width=4 + int(rng.integers(5)))
        assert len(circ.gates) <= 32 and compile_schedule(circ, False, 1).depth <= 2
        bits = [int(rng.integers(2)) for _ in range(4)]
        kcs = [hom_encrypt(hk, b, rng) for b in bits]
        outs = hom_eval(hk, circ, kcs, count_xor=False)
        plain = eval_plain(circ, [FieldElement(GF8, b) for b in bits])
        agree += all(hdec(hk, kc) == want for kc, want in zip(outs, plain))
    elapsed = time.perf_counter() - t0
    floor = max(0.90, 1.0 - hk.depth * kappa)
    ok = agree / runs >= floor and elapsed < 1800.0
    _verdict(
        11,
        ok,
        f"agreement {agree}/{runs} >= floor {floor:.2f} (kappa {kappa:.3f} over "
        f"{kappa_trials} links), {elapsed:.0f}s of 1800s budget",
    )


# 12 -----------------------------------------------------------------------


def _linear_fit_r2(xs, ys):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, icept = np.polyfit(x, y, 1)
    resid = y - (slope * x + icept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return slope, 1.0 - float((resid**2).sum()) / ss_tot


def test_c12_key_size_scaling():
    """Total field elements in HomKeys grow linearly in d and in k."""
    p = Params(16, 6, 3, GF4, 0.0)
    cfg = BoostConfig(b=8, lambda_target=0.9, mid_n=8, verify_trials=40)
    sizes = {}
    for d in (1, 2, 3):
        for k in (32, 64):
            hk = hom_keygen(p, k, d, np.random.default_rng(112_000 + 10 * d + k), cfg)
            sizes[(d, k)] = hk.key_size_fields()
    r2s = []
    for k in (32, 64):
        slope, r2 = _linear_fit_r2([1, 2, 3], [sizes[(d, k)] for d in (1, 2, 3)])
        r2s.append(r2)
        assert slope > 0
    k_slopes = []
    for d in (1, 2, 3):
        ks = (32, 64)
        slope = (sizes[(d, 64)] - sizes[(d, 32)]) / 32
        assert slope > 0
        k_slopes.append(slope)
    # O(d*k*n) cross term: the per-k cost itself grows linearly with depth.
    _, r2_cross = _linear_fit_r2([1, 2, 3], k_slopes)
    r2s.append(r2_cross)
    ok = all(r2 >= 0.99 for r2 in r2s)
    _verdict(
        12,
        ok,
        f"sizes {sorted(sizes.items())}; R^2 vs d at k=32/64: {r2s[0]:.4f}/{r2s[1]:.4f}, "
        f"k-slope vs d R^2 {r2s[2]:.4f}",
    )
