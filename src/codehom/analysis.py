"""Monte Carlo harness for the quantitative functionality bounds.

Every stochastic claim is measured the same way: count successes over
trials, wrap a Wilson 95% interval around the rate, and compare failure
rates against their stated bound with a 3-sigma tolerance computed at
the bound itself. Reports merge associatively, so trial batches can be
split across seeds or workers and recombined.

The error budget's reenc and chain rows both audit flat chains, of
depth 1 and 3: a reenc trial is a source key, a target key and the link
between them. They draw every trial's randomness in order, trial after
trial, and then compute a block of TRIAL_BLOCK trials at once: keys,
links and membership audits stacked along a trial axis.
That is the draw-then-compute convention of scheme.py, sound because no
draw depends on a computed value; the rows count exactly the failures a
trial-by-trial loop counts, and a fixed block keeps their memory flat in
the trial count. Every experiment refuses more than MAX_TRIALS trials
before it allocates anything, and the rank and noise experiments refuse
arrays of more than EXPERIMENT_ENTRY_CAP entries.

The rank experiment realizes only the t selected key rows: the sampled
evaluation points of a key restricted to T are distributed exactly like
a fresh injective t-tuple, and the unimodular mixing factor is dropped
because an invertible right factor cannot change row rank.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import UsageError
from .booster import boost_arrays
from .circuit import build_corr
from .field import FieldSpec, random_distinct_batch, random_elements
from .hom import BoostConfig, KCiphertext, enc_k_contains, hom_encrypt, hom_keygen
from .linalg import rank_batch, vandermonde_array
from .reencrypt import chain_eval_arrays, chain_keygen, chain_keygen_batch
from .scheme import (
    Params,
    PublicKey,
    check_entries,
    decrypt_batch,
    enc_membership_arrays,
    encrypt_batch,
    keygen,
    noise_array,
)

Z95 = 1.959963984540054

# Largest trial count any experiment accepts. The rank and noise
# experiments and the budget's encfail and corr rows hold all their
# trials in one array, tens to a few hundred bytes per trial.
MAX_TRIALS = 1_000_000

# Most entries the rank experiment's (trials, t, r) rows and the noise
# experiment's (trials, r) windows may hold; MAX_TRIALS trials at the
# CLI's default t = r = 9 hold 81,000,000.
EXPERIMENT_ENTRY_CAP = 1 << 27

# Trials the budget's reenc and chain rows compute per stacked block.
TRIAL_BLOCK = 512


def check_trials(trials: int, what: str = "trials") -> None:
    """UsageError unless 1 <= trials <= MAX_TRIALS."""
    if not 1 <= trials <= MAX_TRIALS:
        raise UsageError(f"{what} must lie in [1, {MAX_TRIALS:,}], got {trials:,}")


def _blocks(trials: int):
    """Trial counts of the successive blocks: TRIAL_BLOCK each, the rest last."""
    for start in range(0, trials, TRIAL_BLOCK):
        yield min(TRIAL_BLOCK, trials - start)


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Score interval; never collapses to a point at the boundaries."""
    if trials <= 0:
        return (0.0, 1.0)
    ph = successes / trials
    zz = z * z
    den = 1.0 + zz / trials
    center = (ph + zz / (2 * trials)) / den
    half = z * np.sqrt(ph * (1 - ph) / trials + zz / (4 * trials * trials)) / den
    # the score interval touches the boundary exactly at 0 and T successes;
    # clamp so rounding cannot push it off the point estimate
    lo = 0.0 if successes == 0 else max(0.0, float(center - half))
    hi = 1.0 if successes == trials else min(1.0, float(center + half))
    return (lo, hi)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict
    trials: int
    successes: int
    estimate: float
    interval: tuple[float, float]
    seconds: float

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise UsageError(f"{self.successes} successes in {self.trials} trials")
        lo, hi = self.interval
        if not lo <= self.estimate <= hi:
            raise UsageError("interval must contain the point estimate")


def _report(name: str, parameters: dict, trials: int, successes: int,
            seconds: float) -> ExperimentReport:
    return ExperimentReport(
        name=name,
        parameters=parameters,
        trials=trials,
        successes=successes,
        estimate=successes / trials if trials else 0.0,
        interval=wilson_interval(successes, trials),
        seconds=seconds,
    )


def merge_reports(a: ExperimentReport, b: ExperimentReport) -> ExperimentReport:
    """Combine two trial batches of the same experiment."""
    if a.name != b.name or a.parameters != b.parameters:
        raise UsageError("only batches of the same experiment merge")
    return _report(a.name, a.parameters, a.trials + b.trials, a.successes + b.successes,
                   a.seconds + b.seconds)


# ---------------------------------------------------------------------------
# Named experiments.


def rank_experiment(
    p: Params, t: int, s_overlap: int, trials: int, rng: np.random.Generator
) -> ExperimentReport:
    """Full-rank frequency of t public key rows, s_overlap of them trapdoored.

    Trapdoored rows keep only their first s/3 columns, so s/3 + 1 of
    them are already dependent; the deterministic deficiency criterion
    is s_overlap >= s/3 + 1 + max(t - r, 0).
    """
    if not 1 <= t <= p.n:
        raise UsageError(f"t={t} must lie in [1, n={p.n}]")
    if not 0 <= s_overlap <= min(t, p.s):
        raise UsageError(f"s_overlap={s_overlap} must lie in [0, min(t, s)={min(t, p.s)}]")
    if t - s_overlap > p.n - p.s:
        raise UsageError(
            f"infeasible overlap: {t - s_overlap} untrapped rows requested, "
            f"only {p.n - p.s} exist"
        )
    check_entries("the rank experiment's trials x t x r rows", (trials, t, p.r),
                  EXPERIMENT_ENTRY_CAP)
    t0 = time.perf_counter()
    spec = p.field
    pts = random_distinct_batch(spec, rng, trials, t)
    M = vandermonde_array(spec, pts, p.r)
    M[:, :s_overlap, p.s // 3 :] = 0
    full = min(t, p.r)
    successes = int((rank_batch(spec, M) == full).sum())
    parameters = {
        "n": p.n, "r": p.r, "s": p.s, "k": spec.k, "q": spec.q,
        "t": t, "s_overlap": s_overlap,
    }
    return _report("rank of selected key rows", parameters, trials, successes,
                   time.perf_counter() - t0)


def rank_deficiency_constant(report: ExperimentReport) -> float:
    """deficiency * q / r^2 from a rank report; kept out of the report's
    parameters so trial batches stay mergeable."""
    q, r = report.parameters["q"], report.parameters["r"]
    return (1.0 - report.estimate) * q / (r * r)


def randomness_recovery_experiment(
    p: Params, trials: int, rng: np.random.Generator
) -> ExperimentReport:
    """Frequency of a noiseless first-r window in fresh encryption noise.

    A clean window lets an attacker solve the leading square system for
    the encryption randomness; only that window of the noise is drawn,
    coordinates being independent. Expected rate (1-eta)^r.
    """
    check_entries("the noise experiment's trials x r windows", (trials, p.r), EXPERIMENT_ENTRY_CAP)
    t0 = time.perf_counter()
    E = noise_array(p, rng, (trials, p.r))
    successes = int((E == 0).all(axis=1).sum())
    parameters = {"n": p.n, "r": p.r, "eta": p.eta, "expected": (1 - p.eta) ** p.r}
    return _report("noiseless randomness-recovery window", parameters, trials, successes,
                   time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Error budget: each proved bound against a measurement.


@dataclass(frozen=True)
class BudgetRow:
    name: str
    bound: float
    trials: int
    failures: int
    measured: float
    tolerance: float  # 3 sigma of the bound's binomial at this trial count
    passed: bool
    seconds: float
    parameters: dict = field(default_factory=dict)


def _budget_row(name, bound, trials, failures, t0, parameters) -> BudgetRow:
    measured = failures / trials if trials else 0.0
    tolerance = 3.0 * float(np.sqrt(bound * (1.0 - bound) / trials)) if trials else 0.0
    return BudgetRow(
        name=name,
        bound=bound,
        trials=trials,
        failures=failures,
        measured=measured,
        tolerance=tolerance,
        passed=measured <= bound + tolerance,
        seconds=time.perf_counter() - t0,
        parameters=parameters,
    )


def _encfail_row(trials: int, rng: np.random.Generator, eta_scale: float) -> BudgetRow:
    # decryption failure of a fresh encryption <= eta*s, any key, any message
    t0 = time.perf_counter()
    p = Params(n=24, r=9, s=3, field=FieldSpec(8), eta=0.05)
    pk, sk = keygen(replace(p, eta=p.eta * eta_scale), rng)
    ms = random_elements(p.field, rng, trials)
    C = encrypt_batch(pk, ms, rng)
    failures = int((decrypt_batch(sk, C) != ms).sum())
    return _budget_row(
        "decryption failure <= eta*s", p.eta * p.s, trials, failures, t0,
        {"n": p.n, "s": p.s, "eta": p.eta, "eta_scale": eta_scale},
    )


def _link_failures(base: Params, d: int, trials: int, rng: np.random.Generator) -> int:
    """How many of `trials` flat chains of d links at base hold a link
    that fails its membership audit; TRIAL_BLOCK chains at a time."""
    failures = 0
    for T in _blocks(trials):
        chains = chain_keygen_batch(base, d, rng, T)
        good = np.ones(T, dtype=bool)
        for src, tgt, Z in zip(chains.levels, chains.levels[1:], chains.links):
            good &= enc_membership_arrays(base, tgt.M, tgt.S, src.y, Z).all(axis=1)
        failures += int((~good).sum())
    return failures


def _reenc_row(trials: int, rng: np.random.Generator) -> BudgetRow:
    # a freshly generated reencryption key is good except w.p. n*eta'*s';
    # one trial is a chain of depth 1: source key, target key, their link
    t0 = time.perf_counter()
    p = Params(n=16, r=6, s=3, field=FieldSpec(4), eta=0.004)
    failures = _link_failures(p, 1, trials, rng)
    return _budget_row(
        "reencryption aux good except n*eta'*s'", p.n * p.eta * p.s, trials, failures, t0,
        {"n": p.n, "s": p.s, "eta_tgt": p.eta},
    )


def _corr_row(trials: int, rng: np.random.Generator) -> BudgetRow:
    # CORR_2 over a noiseless chain corrects rate-eta0 input corruption
    # to 6*eta0^2
    t0 = time.perf_counter()
    eta0 = 0.1
    base = Params(n=16, r=6, s=3, field=FieldSpec(4), eta=0.0)
    chain = chain_keygen(base, 2, rng)
    ms = rng.integers(2, size=trials, dtype=np.uint8)
    pk0 = PublicKey(chain.levels[0].P[0], replace(base, eta=eta0 / base.s))
    C = encrypt_batch(pk0, np.repeat(ms, 4), rng)
    X = C.reshape(trials, 4, 16).transpose(1, 0, 2)
    out = chain_eval_arrays(chain.level_params, chain.links, build_corr(2), X)[0]
    _, sk_top = chain.levels[-1].pair(0)
    failures = int((decrypt_batch(sk_top, out) != ms).sum())
    return _budget_row(
        "corrected block error <= 6*eta0^2", 6 * eta0 * eta0, trials, failures, t0,
        {"n": 16, "eta0": eta0, "per_input_eta": eta0 / base.s},
    )


def _chain_row(trials: int, rng: np.random.Generator) -> BudgetRow:
    # chain setup error <= sum of per-link aux failure bounds
    t0 = time.perf_counter()
    base = Params(n=16, r=6, s=3, field=FieldSpec(4), eta=0.002)
    d = 3
    failures = _link_failures(base, d, trials, rng)
    return _budget_row(
        "chain setup error <= d*kappa", d * 16 * base.eta * base.s, trials, failures, t0,
        {"n": 16, "d": d, "eta": base.eta},
    )


def _boost_row(trials: int, rng: np.random.Generator) -> BudgetRow:
    # noiseless boost honors the 15/16 -> 31/32 contract surely, so the
    # bound (the key error) is zero and any failure counts
    t0 = time.perf_counter()
    p = Params(n=16, r=6, s=3, field=FieldSpec(4), eta=0.0)
    k, bad = 32, 2
    cfg = BoostConfig(b=16, lambda_target=0.6, mid_n=4, verify_trials=60)
    hk = hom_keygen(p, k, 1, rng, cfg=cfg)
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(2))
        C = hom_encrypt(hk, m, rng).P
        C[rng.choice(k, size=bad, replace=False)] = random_elements(p.field, rng, (bad, p.n))
        out = KCiphertext(p.field, boost_arrays(hk.boosts[0], C))
        failures += not enc_k_contains(hk.sk_top, m, out)
    return _budget_row(
        "boost contract at k/16 corruption", 0.0, trials, failures, t0,
        {"n": p.n, "k": k, "b": 16, "corrupted": bad},
    )


BUDGET_TRIALS = {"encfail": 4000, "reenc": 1200, "corr": 2500, "chain": 400, "boost": 30}


def error_budget(
    rng: np.random.Generator,
    trials: dict | None = None,
    negative_control: bool = False,
) -> list[BudgetRow]:
    """Measure every proved error bound at desk parameters.

    negative_control doubles the noise actually used for the first row
    while leaving its bound alone; the row must then fail, which keeps
    the harness honest about its own power.
    """
    unknown = sorted(set(trials or {}) - set(BUDGET_TRIALS))
    if unknown:
        raise UsageError(f"unknown budget rows {unknown}; the rows are {sorted(BUDGET_TRIALS)}")
    t = dict(BUDGET_TRIALS, **(trials or {}))
    for name, n in t.items():
        check_trials(n, f"{name} trials")
    return [
        _encfail_row(t["encfail"], rng, 2.0 if negative_control else 1.0),
        _reenc_row(t["reenc"], rng),
        _corr_row(t["corr"], rng),
        _chain_row(t["chain"], rng),
        _boost_row(t["boost"], rng),
    ]


# ---------------------------------------------------------------------------
# Emitters.


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def to_json(obj) -> str:
    """JSON for a report, a budget row, or a list of either."""
    if isinstance(obj, list):
        return json.dumps([asdict(o) for o in obj], indent=2, default=_plain)
    return json.dumps(asdict(obj), indent=2, default=_plain)


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def reports_text(reports: list[ExperimentReport]) -> str:
    rows = [
        [
            r.name,
            str(r.trials),
            str(r.successes),
            f"{r.estimate:.6f}",
            f"[{r.interval[0]:.6f}, {r.interval[1]:.6f}]",
            f"{r.seconds:.2f}s",
        ]
        for r in reports
    ]
    return _table(["experiment", "trials", "successes", "estimate", "95% interval", "time"], rows)


def budget_text(rows: list[BudgetRow]) -> str:
    body = [
        [
            r.name,
            f"{r.bound:.6f}",
            f"{r.measured:.6f}",
            f"{r.tolerance:.6f}",
            str(r.trials),
            "pass" if r.passed else "FAIL",
        ]
        for r in rows
    ]
    return _table(["bound", "limit", "measured", "3-sigma", "trials", "verdict"], body)


def reports_csv(reports: list[ExperimentReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["name", "trials", "successes", "estimate", "lo", "hi", "seconds", "parameters"])
    for r in reports:
        w.writerow([
            r.name, r.trials, r.successes, f"{r.estimate:.8f}",
            f"{r.interval[0]:.8f}", f"{r.interval[1]:.8f}", f"{r.seconds:.4f}",
            json.dumps(r.parameters, default=_plain),
        ])
    return buf.getvalue()
