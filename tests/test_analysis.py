"""Measurement harness: intervals, the named experiments, the error budget."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codehom import analysis
from codehom.analysis import (
    MAX_TRIALS,
    BudgetRow,
    ExperimentReport,
    budget_text,
    error_budget,
    rank_deficiency_constant,
    rank_experiment,
    randomness_recovery_experiment,
    reports_csv,
    reports_text,
    to_json,
    wilson_interval,
)
from codehom.errors import UsageError
from codehom.field import FieldSpec
from codehom.linalg import rank_batch
from codehom.scheme import Params, keygen

GF256 = FieldSpec(8)
GF64K = FieldSpec(16)

P24 = Params(n=24, r=9, s=3, field=GF256, eta=0.0)


def rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Intervals and report plumbing.


def test_wilson_hand_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)


def test_wilson_boundaries():
    assert wilson_interval(0, 40)[0] == 0.0
    assert wilson_interval(40, 40)[1] == 1.0
    assert 0.0 < wilson_interval(0, 40)[1] < 0.15
    assert wilson_interval(0, 0) == (0.0, 1.0)


@given(st.integers(1, 5000).flatmap(lambda t: st.tuples(st.just(t), st.integers(0, t))))
@settings(max_examples=200, deadline=None)
def test_wilson_contains_estimate(tn):
    trials, successes = tn
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_report_rejects_impossible_counts():
    with pytest.raises(UsageError):
        ExperimentReport("x", {}, 10, 11, 1.1, (0.0, 1.0), 0.0)
    with pytest.raises(UsageError, match="interval"):
        ExperimentReport("x", {}, 10, 5, 0.5, (0.6, 1.0), 0.0)


# ---------------------------------------------------------------------------
# Rank experiment.


def test_rank_deterministic_deficiency():
    # s/3 + 1 = 2 trapdoored rows already share a single surviving column
    r = rank_experiment(P24, 9, 2, 300, rng(2))
    assert r.estimate == 0.0


def test_rank_deterministic_deficiency_wide():
    # t > r: the criterion needs s/3 + 1 + (t - r) trapdoored rows
    p = Params(n=48, r=14, s=12, field=GF256, eta=0.0)
    r = rank_experiment(p, 16, 7, 100, rng(3))
    assert r.estimate == 0.0


def test_rank_square_deficiency_matches_zero_point_rate():
    # with t = r the minor vanishes exactly when 0 is among the sampled
    # points, so the deficiency is t/q on the nose
    trials = 4000
    r = rank_experiment(P24, 9, 0, trials, rng(11))
    expect = 9 / 256
    tol = 4 * np.sqrt(expect * (1 - expect) / trials)
    assert 1 - r.estimate == pytest.approx(expect, abs=tol)
    assert 0.05 < rank_deficiency_constant(r) < 0.2


def test_rank_deficiency_drops_with_field_size():
    # same shape over the 16-bit field: expected deficiency 9/65536
    p = Params(n=24, r=9, s=3, field=GF64K, eta=0.0)
    r = rank_experiment(p, 9, 0, 4000, rng(12))
    assert (1 - r.estimate) * 4000 <= 6


def test_rank_matches_literal_key_construction():
    # dual route: the experiment samples the selected rows directly and
    # drops the invertible mixing factor; building whole keys and taking
    # rank of the actual public submatrix must agree within noise
    g = rng(21)
    trials, t, s_overlap = 800, 9, 1
    hits = 0
    for _ in range(trials):
        pk, sk = keygen(P24, g)
        outside = np.setdiff1d(np.arange(P24.n), np.asarray(sk.S))
        pick = list(sk.S[:s_overlap]) + list(g.choice(outside, size=t - s_overlap, replace=False))
        hits += int(rank_batch(GF256, pk.P[pick][None])[0] == t)
    literal = hits / trials
    fast = rank_experiment(P24, t, s_overlap, 4000, rng(22)).estimate
    gap = 4 * np.sqrt(literal * (1 - literal) / trials + fast * (1 - fast) / 4000)
    assert abs(literal - fast) <= gap


def test_rank_overcomplete_rows_always_full():
    # 12 distinct points hold at least 11 nonzero ones, enough for rank r
    r = rank_experiment(P24, 12, 0, 500, rng(6))
    assert r.estimate == 1.0


def test_rank_experiment_validation():
    with pytest.raises(UsageError):
        rank_experiment(P24, 0, 0, 10, rng(0))
    with pytest.raises(UsageError):
        rank_experiment(P24, 25, 0, 10, rng(0))
    with pytest.raises(UsageError):
        rank_experiment(P24, 9, 4, 10, rng(0))
    with pytest.raises(UsageError, match="infeasible"):
        rank_experiment(P24, 24, 2, 10, rng(0))


@pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1])
def test_experiments_refuse_trials_outside_the_cap(trials, monkeypatch):
    # refused before the first draw, so before anything is allocated
    def must_not_run(*args, **kwargs):
        raise AssertionError("an experiment drew its trials")
    monkeypatch.setattr(analysis, "random_distinct_batch", must_not_run)
    monkeypatch.setattr(analysis, "noise_array", must_not_run)
    p = Params(n=4, r=3, s=3, field=FieldSpec(4), eta=0.0)
    with pytest.raises(UsageError, match=rf"trials must lie in \[1, {MAX_TRIALS:,}\]"):
        rank_experiment(p, 1, 0, trials, rng(0))
    with pytest.raises(UsageError, match=rf"trials must lie in \[1, {MAX_TRIALS:,}\]"):
        randomness_recovery_experiment(p, trials, rng(0))


# ---------------------------------------------------------------------------
# Randomness recovery.


def test_recovery_noiseless_always_clean():
    r = randomness_recovery_experiment(P24, 500, rng(1))
    assert r.estimate == 1.0


def test_recovery_saturated_never_clean():
    p = Params(n=24, r=9, s=3, field=GF256, eta=1.0)
    r = randomness_recovery_experiment(p, 500, rng(2))
    assert r.estimate == 0.0


def test_recovery_rate_matches_model():
    p = Params(n=24, r=9, s=3, field=GF256, eta=1 / 9)
    r = randomness_recovery_experiment(p, 20000, rng(3))
    expect = (1 - 1 / 9) ** 9
    assert r.parameters["expected"] == pytest.approx(expect)
    assert r.interval[0] <= expect <= r.interval[1]


# ---------------------------------------------------------------------------
# Error budget.

SMALL_TRIALS = {"encfail": 1500, "reenc": 400, "corr": 800, "chain": 120, "boost": 5}


def test_error_budget_all_rows_pass():
    rows = error_budget(rng(7), trials=SMALL_TRIALS)
    assert len(rows) == 5
    assert len({r.name for r in rows}) == 5
    for r in rows:
        assert r.passed, f"{r.name}: {r.measured} > {r.bound} + {r.tolerance}"
        assert r.measured == pytest.approx(r.failures / r.trials)


def test_error_budget_boost_row_is_exact():
    rows = error_budget(rng(7), trials=dict(SMALL_TRIALS, boost=4))
    boost = rows[-1]
    assert boost.bound == 0.0
    assert boost.failures == 0
    assert boost.parameters["corrupted"] == 2


def test_error_budget_negative_control_fails():
    # doubled encryption noise with the nominal bound left in place
    rows = error_budget(
        rng(8),
        trials={"encfail": 1500, "reenc": 30, "corr": 50, "chain": 10, "boost": 2},
        negative_control=True,
    )
    assert not rows[0].passed
    assert rows[0].measured > rows[0].bound + rows[0].tolerance
    assert rows[0].parameters["eta_scale"] == 2.0


def test_error_budget_rejects_unknown_rows():
    # a misspelled row would otherwise run that row's default trial count
    with pytest.raises(UsageError, match=r"\['encfial'\].*'encfail'"):
        error_budget(rng(9), trials={"encfial": 5, "boost": 1})


# ---------------------------------------------------------------------------
# Emitters.


def test_json_round_trip():
    r = rank_experiment(P24, 9, 0, 200, rng(1))
    doc = json.loads(to_json(r))
    assert doc["trials"] == 200
    assert doc["parameters"]["q"] == 256
    docs = json.loads(to_json([r, r]))
    assert len(docs) == 2


def test_text_tables_align():
    rows = [
        randomness_recovery_experiment(P24, 100, rng(1)),
        rank_experiment(P24, 9, 0, 100, rng(2)),
    ]
    text = reports_text(rows)
    lines = text.splitlines()
    assert len(lines) == 3
    assert len({len(l) for l in lines}) <= 2  # ragged only by trailing pad
    assert "rank of selected key rows" in text

    budget = error_budget(rng(7), trials={"encfail": 50, "reenc": 10, "corr": 50, "chain": 3, "boost": 1})
    btext = budget_text(budget)
    assert "verdict" in btext and ("pass" in btext or "FAIL" in btext)


def test_csv_round_trip():
    reports = [rank_experiment(P24, 9, 0, 150, rng(s)) for s in (1, 2)]
    rows = list(csv.reader(io.StringIO(reports_csv(reports))))
    assert rows[0][0] == "name"
    assert len(rows) == 3
    assert json.loads(rows[1][7])["t"] == 9
    assert int(rows[1][1]) == 150
