"""Command-line front end: keys, encryption, evaluation, experiments.

Exit codes: 0 success, 1 usage, 2 parameter validation, 3 malformed
data, 4 violated bound. An explicit --seed makes any command
bit-reproducible; no environment variable is consulted, seeds are
always spelled out, and a report depends on its seed alone. No
experiment takes more than MAX_TRIALS trials, per run or per budget
row; larger counts exit 1 before anything is allocated.

Two hom-keygen presets exist. `desk` is the configuration everything
else in the artifact uses: noiseless, sized to run in seconds. In
`paper-dryrun` the parameter family is instantiated honestly at n=256,
where the noise rate is far from its asymptotic smallness; keys rot
visibly, which is the point of dry-running it.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile

import numpy as np

from .errors import BoundFailure, CodehomError, DataFormatError, UsageError
from .analysis import (
    BUDGET_TRIALS,
    budget_text,
    error_budget,
    rank_deficiency_constant,
    rank_experiment,
    randomness_recovery_experiment,
    reports_csv,
    reports_text,
    to_json,
)
from .circuit import parse_netlist
from .field import FieldSpec
from .hom import BoostConfig, hdec, hom_decrypt, hom_encrypt, hom_eval, hom_keygen
from .scheme import Params, decrypt_batch, encrypt_batch, keygen, params_from_alpha
from .serial import (
    load_ciphertext,
    load_hom_keys,
    load_kciphertext,
    load_public_key,
    load_secret_key,
    read_text,
    save_ciphertext,
    save_hom_keys,
    save_kciphertext,
    save_public_key,
    save_secret_key,
)


def _parse_hex(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise UsageError(f"not a hex message: {text!r}") from None


def _load_circuit(path):
    text = read_text(path)
    try:
        return parse_netlist(text)
    except DataFormatError as e:
        raise DataFormatError(f"bad netlist {path}: {e}") from None


def _report_rng(seed) -> np.random.Generator:
    """The stream an experiment report draws from."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # the first spawned child: the stream --jobs 1 used, so old reports keep their bytes
    return np.random.default_rng(ss.spawn(1)[0])


def _emit_report(report, fmt: str) -> None:
    if fmt == "json":
        print(to_json(report))
    elif fmt == "csv":
        print(reports_csv([report]), end="")
    else:
        print(reports_text([report]))


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_keygen(args) -> None:
    if args.alpha is not None:
        if any(v is not None for v in (args.r, args.s, args.k, args.eta)):
            raise UsageError("--alpha derives r, s, k and eta; drop the explicit flags")
        p = params_from_alpha(args.n, args.alpha)
    else:
        if args.r is None or args.s is None:
            raise UsageError("explicit parameters need --r and --s (or use --alpha)")
        p = Params(
            n=args.n, r=args.r, s=args.s,
            field=FieldSpec(8 if args.k is None else args.k),
            eta=0.0 if args.eta is None else args.eta,
        )
    pk, sk = keygen(p, np.random.default_rng(args.seed))
    pk_path, sk_path = f"{args.out}.pk.json", f"{args.out}.sk.json"
    save_public_key(pk, pk_path)
    save_secret_key(sk, sk_path)
    print(f"wrote {pk_path}")
    print(f"wrote {sk_path}")


def _cmd_encrypt(args) -> None:
    pk = load_public_key(args.pk)
    C = encrypt_batch(pk, [_parse_hex(args.m)], np.random.default_rng(args.seed))
    save_ciphertext(pk.params.field, C[0], args.out)
    print(f"wrote {args.out}")


def _cmd_decrypt(args) -> None:
    sk = load_secret_key(args.sk)
    spec, c = load_ciphertext(args.ct)
    if spec != sk.params.field or len(c) != sk.params.n:
        raise UsageError("ciphertext does not match this key's field and length")
    print(f"{decrypt_batch(sk, c[None])[0]:x}")


_DESK = dict(n=128, r=48, s=12, field_k=8, eta=0.0, parts=32, depth=2,
             b=16, mid_n=16, lambda_target=0.6)


def _cmd_hom_keygen(args) -> None:
    if args.preset == "paper-dryrun":
        base = params_from_alpha(256 if args.n is None else args.n, 0.25)
        shape = dict(n=base.n, r=base.r, s=base.s, field_k=base.field.k, eta=base.eta,
                     parts=32, depth=1, b=16, mid_n=8, lambda_target=0.6)
    else:
        shape = dict(_DESK)
        if args.n is not None:
            shape["n"] = args.n
    for key in ("r", "s", "field_k", "eta", "parts", "depth", "b", "mid_n", "lambda_target"):
        v = getattr(args, key)
        if v is not None:
            shape[key] = v
    p = Params(n=shape["n"], r=shape["r"], s=shape["s"],
               field=FieldSpec(shape["field_k"]), eta=shape["eta"])
    cfg = BoostConfig(b=shape["b"], mid_n=shape["mid_n"], lambda_target=shape["lambda_target"])
    hk = hom_keygen(p, shape["parts"], shape["depth"], np.random.default_rng(args.seed), cfg=cfg)
    save_hom_keys(hk, args.out)
    print(f"wrote {args.out}/ ({hk}, {hk.key_size_fields()} public field elements)")


def _cmd_hom_encrypt(args) -> None:
    hk = load_hom_keys(args.keys)
    kc = hom_encrypt(hk, _parse_hex(args.m), np.random.default_rng(args.seed))
    save_kciphertext(kc, args.out)
    print(f"wrote {args.out}")


def _cmd_hom_eval(args) -> None:
    hk = load_hom_keys(args.keys)
    c = _load_circuit(args.circuit)
    inputs = [load_kciphertext(p) for p in args.inputs]
    outs = hom_eval(hk, c, inputs, count_xor=not args.cheap_xor)
    if len(outs) == 1:
        paths = [f"{args.out}.kct.json"]
    else:
        paths = [f"{args.out}{i}.kct.json" for i in range(len(outs))]
    for kc, path in zip(outs, paths):
        save_kciphertext(kc, path)
        print(f"wrote {path}")


def _cmd_hom_decrypt(args) -> None:
    hk = load_hom_keys(args.keys)
    kc = load_kciphertext(args.ct)
    v = hom_decrypt(hk, kc) if args.fresh else hdec(hk, kc)
    print(f"{v.value:x}")


def _analyze_params(args) -> Params:
    return Params(n=args.n, r=args.r, s=args.s, field=FieldSpec(args.k), eta=args.eta)


def _cmd_analyze_rank(args) -> None:
    p = _analyze_params(args)
    t = p.r if args.t is None else args.t
    report = rank_experiment(p, t, args.s_overlap, args.trials, _report_rng(args.seed))
    _emit_report(report, args.format)
    if args.format == "text":
        print(f"deficiency constant (x q/r^2): {rank_deficiency_constant(report):.4f}")


def _cmd_analyze_noise(args) -> None:
    p = _analyze_params(args)
    report = randomness_recovery_experiment(p, args.trials, _report_rng(args.seed))
    _emit_report(report, args.format)


def _cmd_analyze_budget(args) -> None:
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise UsageError(f"--scale must be a finite number > 0, got {args.scale}")
    trials = {name: max(1, round(t * args.scale)) for name, t in BUDGET_TRIALS.items()}
    rows = error_budget(np.random.default_rng(args.seed), trials=trials,
                        negative_control=args.negative_control)
    print(to_json(rows) if args.format == "json" else budget_text(rows))
    bad = [r.name for r in rows if not r.passed]
    if bad:
        raise BoundFailure(f"{len(bad)} budget row(s) violated their bound: {', '.join(bad)}")


def _cmd_selftest(args) -> None:
    """Desk-scale rerun of the main functional contracts."""
    seeds = np.random.SeedSequence(args.seed).spawn(5)

    p = Params(n=24, r=9, s=3, field=FieldSpec(8), eta=0.0)
    rng = np.random.default_rng(seeds[0])
    pk, sk = keygen(p, rng)
    with tempfile.TemporaryDirectory() as d:
        save_public_key(pk, f"{d}/pk.json")
        save_secret_key(sk, f"{d}/sk.json")
        pk, sk = load_public_key(f"{d}/pk.json"), load_secret_key(f"{d}/sk.json")
    ms = np.arange(p.field.q)
    lost = np.flatnonzero(decrypt_batch(sk, encrypt_batch(pk, ms, rng)) != ms)
    if lost.size:
        raise BoundFailure(f"selftest: noiseless round-trip lost message {lost[0]:#x}")
    print("ok -- noiseless encrypt/decrypt round-trip, keys through files")

    report = rank_experiment(p, 9, 2, 300, _report_rng(seeds[1]))
    if report.estimate != 0.0:
        raise BoundFailure("selftest: deterministic rank deficiency criterion missed")
    print("ok -- deterministic rank deficiency branch")

    report = randomness_recovery_experiment(p, 300, _report_rng(seeds[2]))
    if report.estimate != 1.0:
        raise BoundFailure("selftest: noiseless encryption showed a noisy window")
    print("ok -- noiseless randomness-recovery window")

    rows = error_budget(np.random.default_rng(seeds[3]),
                        trials={"encfail": 1500, "reenc": 400, "corr": 800,
                                "chain": 120, "boost": 5})
    print(budget_text(rows))
    bad = [r.name for r in rows if not r.passed]
    if bad:
        raise BoundFailure(f"selftest: budget row(s) failed: {', '.join(bad)}")
    print("ok -- error budget within bounds")

    p16 = Params(n=16, r=6, s=3, field=FieldSpec(4), eta=0.0)
    hk = hom_keygen(p16, 32, 1, np.random.default_rng(seeds[4]),
                    cfg=BoostConfig(b=8, lambda_target=0.9, verify_trials=40))
    c = parse_netlist("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    enc_rng = np.random.default_rng(seeds[4].spawn(1)[0])
    for a in (0, 1):
        for b in (0, 1):
            xa, xb = hom_encrypt(hk, a, enc_rng), hom_encrypt(hk, b, enc_rng)
            got = hdec(hk, hom_eval(hk, c, [xa, xb])[0]).value
            if got != (a & b):
                raise BoundFailure(f"selftest: homomorphic AND({a},{b}) returned {got}")
    print("ok -- replicated homomorphic AND, all four input pairs")
    print("selftest passed")


# ---------------------------------------------------------------------------
# Parser.


def _seed(text: str) -> int:
    """An argparse type: a non-negative integer, as SeedSequence demands."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=_seed, default=None,
                    help="64-bit master seed; omitted means fresh entropy")


def _add_report_flags(sp) -> None:
    sp.add_argument("--trials", type=int, default=2000, help="Monte Carlo trial count")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    _add_seed(sp)


def _add_analyze_params(sp) -> None:
    sp.add_argument("--n", type=int, default=24, help="ciphertext length")
    sp.add_argument("--r", type=int, default=9, help="randomness dimension")
    sp.add_argument("--s", type=int, default=3, help="trapdoor size (multiple of 3)")
    sp.add_argument("--k", type=int, default=8, help="field degree, q = 2^k")
    sp.add_argument("--eta", type=float, default=0.0, help="noise rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codehom",
        description="Code-based homomorphic encryption at desk scale: "
                    "key management, evaluation, and bound measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("keygen", help="sample a base key pair, write pk/sk files")
    sp.add_argument("--n", type=int, required=True, help="ciphertext length")
    sp.add_argument("--r", type=int, help="randomness dimension")
    sp.add_argument("--s", type=int, help="trapdoor size (multiple of 3)")
    sp.add_argument("--k", type=int, help="field degree, q = 2^k (default 8)")
    sp.add_argument("--eta", type=float, help="noise rate (default 0)")
    sp.add_argument("--alpha", type=float,
                    help="derive r, s, k, eta from the single-exponent family instead")
    sp.add_argument("--out", default="key", help="path prefix for <out>.pk.json / <out>.sk.json")
    _add_seed(sp)
    sp.set_defaults(func=_cmd_keygen)

    sp = sub.add_parser("encrypt", help="encrypt one field element under a public key")
    sp.add_argument("--pk", required=True, help="public key file")
    sp.add_argument("--m", required=True, help="message as hex")
    sp.add_argument("--out", default="ct.json", help="ciphertext file to write")
    _add_seed(sp)
    sp.set_defaults(func=_cmd_encrypt)

    sp = sub.add_parser("decrypt", help="decrypt a ciphertext, print the message as hex")
    sp.add_argument("--sk", required=True, help="secret key file")
    sp.add_argument("--ct", required=True, help="ciphertext file")
    sp.set_defaults(func=_cmd_decrypt)

    sp = sub.add_parser("hom-keygen", help="sample layered keys with boosts, write a directory")
    sp.add_argument("--preset", choices=("desk", "paper-dryrun"), default="desk",
                    help="parameter preset; explicit flags override it")
    sp.add_argument("--n", type=int, help="ciphertext length")
    sp.add_argument("--r", type=int, help="randomness dimension")
    sp.add_argument("--s", type=int, help="trapdoor size")
    sp.add_argument("--field-k", type=int, dest="field_k", help="field degree, q = 2^k")
    sp.add_argument("--eta", type=float, help="noise rate")
    sp.add_argument("--k", type=int, dest="parts", help="replication factor (parts per ciphertext)")
    sp.add_argument("--d", type=int, dest="depth", help="boosted depth (levels minus one)")
    sp.add_argument("--b", type=int, help="expander degree / majority fan-in: 8, 16, 32 or 64")
    sp.add_argument("--mid-n", type=int, dest="mid_n", help="ciphertext length inside boosts")
    sp.add_argument("--lambda-target", type=float, dest="lambda_target",
                    help="expansion requirement for the part-mixing graph")
    sp.add_argument("--out", default="homkeys", help="key directory to write")
    _add_seed(sp)
    sp.set_defaults(func=_cmd_hom_keygen)

    sp = sub.add_parser("hom-encrypt", help="encrypt one bit as a replicated ciphertext")
    sp.add_argument("--keys", required=True, help="key directory from hom-keygen")
    sp.add_argument("--m", required=True, help="message as hex (a bit under boosted keys)")
    sp.add_argument("--out", default="m.kct.json", help="replicated ciphertext file to write")
    _add_seed(sp)
    sp.set_defaults(func=_cmd_hom_encrypt)

    sp = sub.add_parser("hom-eval", help="evaluate a netlist over replicated ciphertexts")
    sp.add_argument("--keys", required=True, help="key directory from hom-keygen")
    sp.add_argument("--circuit", required=True, help="netlist file")
    sp.add_argument("--inputs", nargs="+", required=True, metavar="KCT",
                    help="one replicated ciphertext file per circuit input, in order")
    sp.add_argument("--out", default="result",
                    help="output prefix; writes <out>.kct.json, numbered when multi-output")
    sp.add_argument("--cheap-xor", action="store_true",
                    help="let XOR layers share a boost level (spends decoding margin "
                         "instead of key depth)")
    sp.set_defaults(func=_cmd_hom_eval)

    sp = sub.add_parser("hom-decrypt", help="plurality-decrypt a replicated ciphertext")
    sp.add_argument("--keys", required=True, help="key directory from hom-keygen")
    sp.add_argument("--ct", required=True, help="replicated ciphertext file")
    sp.add_argument("--fresh", action="store_true",
                    help="the ciphertext is fresh (level 0), not evaluated")
    sp.set_defaults(func=_cmd_hom_decrypt)

    an = sub.add_parser("analyze", help="run a measurement, print a report")
    ansub = an.add_subparsers(dest="experiment", required=True, metavar="experiment")

    sp = ansub.add_parser("rank", help="full-rank frequency of selected public key rows")
    _add_analyze_params(sp)
    sp.add_argument("--t", type=int, help="rows selected (default r)")
    sp.add_argument("--s-overlap", type=int, default=0, dest="s_overlap",
                    help="selected rows that are trapdoored")
    _add_report_flags(sp)
    sp.set_defaults(func=_cmd_analyze_rank)

    sp = ansub.add_parser("noise", help="rate of noiseless randomness-recovery windows")
    _add_analyze_params(sp)
    _add_report_flags(sp)
    sp.set_defaults(func=_cmd_analyze_noise)

    sp = ansub.add_parser("budget", help="measure every proved error bound; exit 4 on violation")
    sp.add_argument("--scale", type=float, default=1.0,
                    help="multiply the default per-row trial counts")
    sp.add_argument("--negative-control", action="store_true",
                    help="double the noise behind the first row's bound; the run must then fail")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    _add_seed(sp)
    sp.set_defaults(func=_cmd_analyze_budget)

    sp = sub.add_parser("selftest", help="desk-scale functional checks; exit 4 on any failure")
    _add_seed(sp)
    sp.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if not e.code else 1
    try:
        args.func(args)
        return 0
    except CodehomError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
