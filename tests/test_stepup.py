import numpy as np
import pytest

from nctest import DataError, make_statistic_set, modified_ranc_pvalues
from nctest.procedures import bh
from nctest.stepup import (
    StepCurve,
    bh_equivalence_check,
    fdr_hat,
    pi_hat,
    stepup_threshold,
)


def test_step_curve_evaluation():
    c = StepCurve([0.0, 1.0], [2.0, 5.0], left_value=-1.0)
    assert c.value_at(-0.5) == -1.0
    assert c.value_at(0.0) == 2.0  # right continuous
    assert c.value_at(0.99) == 2.0
    assert c.value_at(1.0) == 5.0
    np.testing.assert_array_equal(c.value_at(np.array([-1, 0, 2])), [-1, 2, 5])


def test_step_curve_validation():
    with pytest.raises(DataError):
        StepCurve([1.0, 1.0], [0.0, 0.0], 0.0)
    with pytest.raises(DataError):
        StepCurve([0.0], [np.inf], 0.0)
    # NaN compares false, so an increasing check alone would pass it
    for breakpoints in ([0.0, np.nan, 2.0], [np.nan], [0.0, np.inf], [-np.inf]):
        with pytest.raises(DataError, match="breakpoints must be finite"):
            StepCurve(breakpoints, np.zeros(len(breakpoints)), 0.0)


def test_pi_hat_lambda_one_is_exactly_one():
    s = make_statistic_set([1.0, 2.0], [0.5, 1.5, 2.5])
    assert pi_hat(s, 1.0) == 1.0


def test_pi_hat_worked_value():
    # n=4, m=4: controls 1..4, tests {1.5, 1.7, 3.5, 5.0}
    # at lambda=0.5: ranks of tests are {2/5, 2/5, 4/5, 1}, so R=2
    # control self-ranks are {2/5, 3/5, 4/5, 1}, so V_nc=1
    s = make_statistic_set([1.5, 1.7, 3.5, 5.0], [1.0, 2.0, 3.0, 4.0])
    assert pi_hat(s, 0.5) == pytest.approx((3 / 4) * (5 / 3))  # 1.25


def test_pi_hat_all_rejected_boundary():
    # R(lambda)=n, V_nc(lambda)=0 gives (1/n) * (m+1)/m
    s = make_statistic_set([0.1, 0.2], [1.0, 2.0, 3.0])
    assert pi_hat(s, 0.3) == pytest.approx((1 / 2) * (4 / 3))


def test_pi_hat_lambda_validated():
    s = make_statistic_set([0.1], [0.5])
    with pytest.raises(DataError):
        pi_hat(s, 0.0)
    with pytest.raises(DataError):
        pi_hat(s, 1.2)


def test_pi_hat_scale_free():
    rng = np.random.default_rng(0)
    t = rng.normal(size=30)
    nc = rng.normal(size=40)
    s1 = make_statistic_set(t, nc)
    s2 = make_statistic_set(np.exp(t), np.exp(nc))
    for lam in (0.2, 0.5, 0.9, 1.0):
        assert pi_hat(s1, lam) == pi_hat(s2, lam)


def test_fdr_hat_worked_values():
    s = make_statistic_set([1.5, 1.7, 3.5, 5.0], [1.0, 2.0, 3.0, 4.0])
    # t=1.8: V_nc=1, R=2 -> 4*(3/5)/2 = 1.2
    assert fdr_hat(s, 1.0, 1.8) == pytest.approx(1.2)
    # t below everything: R=0 guarded to 1
    assert fdr_hat(s, 1.0, 0.5) == pytest.approx(4 * 2 / 5 / 1)
    # saturation: V_nc=m, R=n -> (m+2)/(m+1)
    assert fdr_hat(s, 1.0, 10.0) == pytest.approx(6 / 5)


def test_fdr_hat_rejects_nan_threshold():
    # NaN sorts after every value, so it would read as "reject everything"
    s = make_statistic_set([1.5, 1.7, 3.5, 5.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DataError, match="NaN"):
        fdr_hat(s, 1.0, np.nan)
    assert fdr_hat(s, 1.0, -np.inf) == fdr_hat(s, 1.0, 0.5)
    assert fdr_hat(s, 1.0, np.inf) == fdr_hat(s, 1.0, 10.0)


def test_fdr_hat_equals_the_step_up_curve():
    # one formula in one operation order: equal to the last bit, at every
    # pooled value and below all of them (the curve's left value)
    for seed in (13, 21, 34):
        rng = np.random.default_rng(seed)
        s = make_statistic_set(np.round(rng.normal(size=12), 1), np.round(rng.normal(size=14), 1))
        for lam in (0.5, 1.0):
            curve = stepup_threshold(s, lam, 0.1).fdr_curve
            for t in np.concatenate([[curve.breakpoints[0] - 1.0], curve.breakpoints]):
                assert fdr_hat(s, lam, t) == curve.value_at(t)


def test_stepup_worked_example():
    s = make_statistic_set([0.1, 0.9], [0.5, 0.6, 0.7, 0.8])
    res = stepup_threshold(s, lam=1.0, q=0.9)
    assert res.rejected == {"t1"}
    assert res.pi_hat == 1.0
    assert res.tau == pytest.approx(1 / 5)  # rank of 0.1
    assert res.tau_statistic == pytest.approx(0.1)
    # estimated FDR is 0.8 on [0.1, 0.5) and 1.2 from 0.5 on
    assert res.fdr_curve.value_at(0.1) == pytest.approx(0.8)
    assert res.fdr_curve.value_at(0.49) == pytest.approx(0.8)
    assert res.fdr_curve.value_at(0.5) == pytest.approx(1.2)


def test_stepup_saturation_and_empty():
    s = make_statistic_set([0.1, 0.2], [1, 2, 3, 4, 5, 6, 7, 8])
    # both tests rank 1/9; estimated FDR there is 2*(0+2)/(9*2) = 2/9
    res = stepup_threshold(s, lam=1.0, q=0.3)
    assert res.rejected == {"t1", "t2"}
    res = stepup_threshold(s, lam=1.0, q=0.1)
    assert res.rejected == frozenset()
    assert res.tau is None
    assert res.tau_statistic is None
    assert res.n_rejected == 0


def test_stepup_rejection_set_matches_tau():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        s = make_statistic_set(rng.normal(size=n), rng.normal(size=m))
        lam = float(rng.uniform(0.3, 1.0))
        res = stepup_threshold(s, lam=lam, q=float(rng.uniform(0.05, 0.6)))
        from nctest import ranc_values

        u = ranc_values(s.investigation, s.negative_controls)
        if res.tau is None:
            assert res.rejected == frozenset()
        else:
            assert res.tau <= lam
            expect = {
                s.investigation_ids[k] for k in range(n) if u[k] <= res.tau
            }
            assert res.rejected == expect
            assert res.rejected == {
                s.investigation_ids[k]
                for k in range(n)
                if s.investigation[k] <= res.tau_statistic
            }


def test_bh_equivalence_worked():
    s = make_statistic_set([0.1, 0.9], [0.5, 0.6, 0.7, 0.8])
    ptilde = modified_ranc_pvalues(s)
    np.testing.assert_allclose(ptilde.values, [0.4, 1.0])
    r = bh(ptilde, 0.9)
    assert r.rejected == {"t1"}
    assert bh_equivalence_check(s, 0.9)


def test_bh_equivalence_random_instances():
    rng = np.random.default_rng(2)
    dists = [
        lambda size: rng.normal(size=size),
        lambda size: rng.uniform(size=size),
        lambda size: rng.exponential(size=size),
        lambda size: rng.standard_t(3, size=size),
    ]
    for trial in range(200):
        draw = dists[trial % len(dists)]
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 51))
        s = make_statistic_set(draw(n), draw(m))
        for q in (0.05, 0.2, 0.5):
            assert bh_equivalence_check(s, q)


def test_stepup_all_above_controls_degenerate():
    s = make_statistic_set([10.0, 11.0], [1.0, 2.0])
    assert bh_equivalence_check(s, 0.2)
    assert bh_equivalence_check(s, 0.9)


def test_fdr_hat_conservative_for_uniform_nulls():
    # all-null investigation: E[estimated FDR at t] >= E[FDP at t]
    rng = np.random.default_rng(3)
    n = m = 50
    t = 0.3
    reps = 10_000
    inv = rng.uniform(size=(reps, n))
    nc = rng.uniform(size=(reps, m))
    r_t = np.sum(inv <= t, axis=1)
    v_t = np.sum(nc <= t, axis=1)
    fdr_est = n * (v_t + 2.0) / ((m + 1.0) * np.maximum(r_t, 1))
    fdp = (r_t > 0).astype(float)  # every rejection is false here
    se = np.std(fdr_est - fdp, ddof=1) / np.sqrt(reps)
    assert fdr_est.mean() >= fdp.mean() - 3 * se


def test_stepup_fdr_control_simulation():
    # iid nulls with signal: mean FDP of the lambda=1 rule stays near q
    rng = np.random.default_rng(4)
    n0, n1, m = 45, 15, 120
    q = 0.2
    reps = 800
    fdps = np.empty(reps)
    for r in range(reps):
        null_vals = rng.normal(size=n0)
        alt_vals = rng.normal(loc=-2.0, size=n1)
        nc = rng.normal(size=m)
        s = make_statistic_set(
            np.concatenate([null_vals, alt_vals]),
            nc,
            truth={
                **{f"t{k}": "null" for k in range(1, n0 + 1)},
                **{f"t{k}": "nonnull" for k in range(n0 + 1, n0 + n1 + 1)},
            },
        )
        res = stepup_threshold(s, lam=1.0, q=q)
        false = sum(1 for i in res.rejected if s.truth[i] == "null")
        fdps[r] = false / max(res.n_rejected, 1)
    se = fdps.std(ddof=1) / np.sqrt(reps)
    assert fdps.mean() <= q + 3 * se


def test_stepup_fdr_control_under_dominance():
    # controls stochastically smaller than the uniform nulls
    rng = np.random.default_rng(5)
    n, m = 40, 80
    q = 0.2
    reps = 1000
    fdps = np.empty(reps)
    for r in range(reps):
        s = make_statistic_set(rng.uniform(size=n), rng.beta(1.0, 2.0, size=m))
        res = stepup_threshold(s, lam=1.0, q=q)
        fdps[r] = 1.0 if res.n_rejected else 0.0
    se = fdps.std(ddof=1) / np.sqrt(reps)
    assert fdps.mean() <= q + 3 * se


def test_stepup_lambda_below_one_adaptivity():
    # with half the hypotheses carrying strong signal, pi_hat at
    # lambda=0.5 should drop below 1 most of the time, and tau must
    # respect the lambda cap
    rng = np.random.default_rng(6)
    hits = 0
    for r in range(50):
        n0, n1, m = 30, 30, 100
        s = make_statistic_set(
            np.concatenate([rng.normal(size=n0), rng.normal(-3, 1, size=n1)]),
            rng.normal(size=m),
        )
        adap = stepup_threshold(s, lam=0.5, q=0.2)
        assert adap.tau is None or adap.tau <= 0.5
        if np.isfinite(adap.pi_hat) and adap.pi_hat < 1:
            hits += 1
    assert hits > 25  # adaptivity must actually engage most of the time


def test_result_serialization():
    s = make_statistic_set([0.1, 0.9], [0.5, 0.6, 0.7, 0.8])
    d = stepup_threshold(s, lam=1.0, q=0.9).to_dict()
    assert d["lambda"] == 1.0
    assert d["rejected_ids"] == ["t1"]
    assert d["fdr_curve"]["breakpoints"][0] == 0.1
    import json

    json.dumps(d)
