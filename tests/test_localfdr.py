import math

import numpy as np
import pytest
from scipy import optimize, stats

from nctest import DataError, make_statistic_set, ranc_values
from nctest.localfdr import (
    LocalFdrCurve,
    bayes_risk_curves,
    cdf_threshold,
    cdf_threshold_orderstat,
    localfdr_curve,
    neighborhood_threshold,
    pdf_localfdr_baseline,
)

WORKED = dict(investigation=[0.5, 1.5, 5.0], nc=[1.0, 2.0, 3.0, 4.0])


def worked_set():
    return make_statistic_set(WORKED["investigation"], WORKED["nc"])


def test_cdf_threshold_worked_example():
    res = cdf_threshold(worked_set(), lam=1.0)
    assert res.tau_hat == 1.5
    assert res.rejected == {"t1", "t2"}
    ts = [t for t, _ in res.objective_at_candidates]
    vals = [v for _, v in res.objective_at_candidates]
    assert ts == [None, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
    np.testing.assert_allclose(
        vals, [0, -1 / 3, -1 / 12, -5 / 12, -1 / 6, 1 / 12, 1 / 3, 0], atol=1e-12
    )
    assert res.argmin_index == 3


def test_cdf_threshold_lambda_zero_boundary():
    res = cdf_threshold(worked_set(), lam=0.0)
    assert res.tau_hat is None
    assert res.rejected == frozenset()
    assert res.argmin_index == 0


def test_cdf_threshold_tie_breaks_to_smallest():
    # T={1,3}, nc={2,4}, lam=1: objective -1/2 at both t=1 and t=3
    s = make_statistic_set([1.0, 3.0], [2.0, 4.0])
    res = cdf_threshold(s, lam=1.0)
    assert res.tau_hat == 1.0
    assert res.rejected == {"t1"}


def test_orderstat_worked_example():
    s = worked_set()
    p = np.sort(ranc_values(s.investigation, s.negative_controls))
    np.testing.assert_allclose(p, [0.2, 0.4, 1.0])
    # order-statistic form of the objective, shifted by 1/m from the raw one
    shifted = (5 / 4) * p - np.arange(1, 4) / 3
    np.testing.assert_allclose(shifted, [-1 / 12, -1 / 6, 1 / 4], atol=1e-12)
    assert np.argmin(shifted) == 1  # second order statistic
    res = cdf_threshold_orderstat(s, lam=1.0)
    assert res.tau_hat == 1.5
    assert res.rejected == cdf_threshold(s, lam=1.0).rejected


def test_orderstat_single_statistic_sign_test():
    # below all controls: rejected for every positive lam
    s = make_statistic_set([0.5], [1.0, 2.0])
    assert cdf_threshold_orderstat(s, lam=0.2).rejected == {"t1"}
    assert cdf_threshold_orderstat(s, lam=0.0).rejected == frozenset()
    # above all controls: kept even at lam=1 (tie goes to the boundary)
    s = make_statistic_set([5.0], [1.0, 2.0])
    assert cdf_threshold_orderstat(s, lam=1.0).rejected == frozenset()
    assert cdf_threshold(s, lam=1.0).rejected == frozenset()


def test_threshold_routes_agree_on_random_instances():
    rng = np.random.default_rng(0)
    draws = [
        lambda size: rng.normal(size=size),
        lambda size: rng.exponential(size=size),
        lambda size: np.round(rng.normal(size=size), 1),  # forces ties
        lambda size: rng.standard_t(4, size=size),
    ]
    for trial in range(300):
        gen = draws[trial % len(draws)]
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 40))
        s = make_statistic_set(gen(n), gen(m))
        lam = float(rng.choice([0.0, 0.3, 0.77, 1.0]))
        a = cdf_threshold(s, lam)
        b = cdf_threshold_orderstat(s, lam)
        assert a.rejected == b.rejected
        assert a.tau_hat == b.tau_hat or (
            a.tau_hat is not None
            and b.tau_hat is not None
            and a.rejected == b.rejected
        )


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.normal(size=20)
        nc = rng.normal(size=30)
        s1 = make_statistic_set(t, nc)
        s2 = make_statistic_set(t**3, nc**3)
        for lam in (0.4, 1.0):
            assert cdf_threshold(s1, lam).rejected == cdf_threshold(s2, lam).rejected
            assert (
                cdf_threshold_orderstat(s1, lam).rejected
                == cdf_threshold_orderstat(s2, lam).rejected
            )


def test_curve_basic_invariants():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        s = make_statistic_set(rng.normal(size=n), rng.normal(size=m))
        pi = float(rng.uniform(0.3, 1.0))
        curve = localfdr_curve(s, pi)
        inv_unique = set(np.unique(s.investigation).tolist())
        assert set(curve.breakpoints.tolist()) <= inv_unique
        assert np.all(np.diff(curve.values) > 0)
        assert np.all(curve.values <= pi)
        if curve.breakpoints.size:
            # left continuity: value at a breakpoint belongs to the
            # segment that ends there
            for k in range(curve.breakpoints.size):
                assert curve.value_at(curve.breakpoints[k]) == curve.values[k]
            assert math.isnan(curve.value_at(curve.breakpoints[-1] + 1e-9))
            assert curve.value_at(curve.breakpoints[0] - 100.0) == curve.values[0]


def test_curve_grid_oracle():
    rng = np.random.default_rng(3)
    grid_points = 2000
    for trial in range(4):
        n = int(rng.integers(3, 25))
        m = int(rng.integers(3, 25))
        s = make_statistic_set(rng.normal(size=n), rng.normal(size=m))
        pi = 0.7
        curve = localfdr_curve(s, pi)
        qs = np.linspace(pi / grid_points, pi, grid_points)
        taus = np.array(
            [
                cdf_threshold(s, q / pi).tau_hat
                if cdf_threshold(s, q / pi).tau_hat is not None
                else -np.inf
                for q in qs
            ]
        )
        spacing = qs[1] - qs[0]
        for t in np.unique(s.investigation):
            hit = np.nonzero(taus >= t)[0]
            exact = curve.value_at(t)
            if hit.size == 0:
                assert math.isnan(exact)
            else:
                approx = qs[hit[0]]
                assert not math.isnan(exact)
                # the grid infimum can overshoot by at most one step
                assert -1e-12 <= approx - exact <= spacing + 1e-12


def test_curve_below_all_controls_needs_no_level():
    s = make_statistic_set([-5.0, 0.5], [1.0, 2.0])
    curve = localfdr_curve(s, pi=0.5)
    assert curve.value_at(-5.0) == 0.0
    assert curve.value_at(-100.0) == 0.0


def test_curve_empty_when_everything_above_controls():
    s = make_statistic_set([5.0, 6.0], [1.0, 2.0])
    curve = localfdr_curve(s, pi=1.0)
    assert curve.breakpoints.size == 0
    assert math.isnan(curve.value_at(5.0))


def test_curve_validation():
    with pytest.raises(DataError):
        LocalFdrCurve(np.array([1.0, 1.0]), np.array([0.1, 0.2]), 0.5)
    with pytest.raises(DataError):
        LocalFdrCurve(np.array([1.0, 2.0]), np.array([0.2, 0.1]), 0.5)
    # NaN compares false, so monotonicity checks alone would pass it
    for bp, vals in (([1.0, np.nan, 3.0], [0.1, 0.2, 0.3]), ([np.nan], [0.1]),
                     ([1.0, np.inf], [0.1, 0.2])):
        with pytest.raises(DataError, match="breakpoints must be finite"):
            LocalFdrCurve(np.array(bp), np.array(vals), 0.5)
    for vals in ([0.1, np.nan], [np.nan, np.nan], [0.1, np.inf]):
        with pytest.raises(DataError, match="values must be finite"):
            LocalFdrCurve(np.array([1.0, 2.0]), np.array(vals), 0.5)
    with pytest.raises(DataError, match="breakpoints must be finite"):
        bayes_risk_curves(worked_set(), q=0.3, pi=0.5, grid=[0.1, np.nan, 0.7])


def test_bayes_risk_symmetric_population():
    grid = np.linspace(-4, 4, 801)
    # alternative mass sits to the left of the null (small = evidence)
    type1, type2, risk = bayes_risk_curves(
        (stats.norm(1, 1).cdf, stats.norm(-1, 1).cdf), q=0.5, pi=0.5, grid=grid
    )
    # equal weights: risk minimized where the two densities cross (t=0)
    argmin_t = grid[np.argmin(risk.values)]
    assert abs(argmin_t) <= 0.05
    np.testing.assert_allclose(type1.values, 0.5 * stats.norm(1, 1).cdf(grid))


def test_bayes_risk_degenerate_mixture_monotone():
    grid = np.linspace(-3, 3, 301)
    cdf = stats.norm().cdf
    _, _, risk = bayes_risk_curves((cdf, cdf), q=0.3, pi=0.5, grid=grid)
    assert np.all(np.diff(risk.values) >= 0)
    assert np.argmin(risk.values) == 0


def _mixture_draw(rng, n, m, pi=0.5):
    # null component: t with 10 degrees of freedom; alternative:
    # negated standard exponential (evidence in the left tail)
    nonnull = rng.uniform(size=n) >= pi
    vals = rng.standard_t(10, size=n)
    vals[nonnull] = -rng.exponential(size=int(nonnull.sum()))
    nc = rng.standard_t(10, size=m)
    return vals, nc, nonnull


def _population_tau(q=0.3, pi=0.5):
    # stationarity of the weighted risk: (1-q)*pi*f0(t) = q*(1-pi)*f1(t)
    # with f1(t) = exp(t) on t<=0
    f0 = stats.t(10).pdf
    lam = q / pi

    def grad(t):
        return (1 - lam * pi) * f0(t) - lam * (1 - pi) * np.exp(t)

    return optimize.brentq(grad, -5.0, -1.0)


def test_bayes_risk_empirical_argmin_near_population():
    tau_star = _population_tau()
    assert -2.5 < tau_star < -1.6
    # the population risk at the interior minimum must beat the kink at 0
    risk_fn = lambda t: 0.7 * stats.t(10).cdf(t) + 0.3 * (
        1 - (np.exp(t) if t <= 0 else 1.0)
    )
    assert risk_fn(tau_star) < risk_fn(0.0)
    rng = np.random.default_rng(4)
    vals, nc, _ = _mixture_draw(rng, 400, 1000)
    s = make_statistic_set(vals, nc)
    _, _, risk = bayes_risk_curves(s, q=0.3, pi=0.5)
    argmin_t = risk.breakpoints[np.argmin(risk.values)]
    assert abs(argmin_t - tau_star) <= 1.0


def test_pdf_baseline_identity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=300)
    s = make_statistic_set(x, x.copy())
    curve = pdf_localfdr_baseline(s, pi=1.0)
    k = curve.values.size
    central = curve.values[k // 4 : 3 * k // 4]
    assert np.all(np.abs(central - 1.0) < 0.1)


def test_pdf_baseline_pi_zero():
    rng = np.random.default_rng(6)
    s = make_statistic_set(rng.normal(size=50), rng.normal(size=50))
    curve = pdf_localfdr_baseline(s, pi=0.0)
    assert np.all(curve.values == 0.0)


def test_pdf_baseline_clips_vanishing_density():
    inv = np.concatenate([np.zeros(20) + np.linspace(0, 0.01, 20)])
    nc = np.array([0.0, 0.005, 1e6])
    s = make_statistic_set(inv, nc)
    with pytest.warns(RuntimeWarning, match="clipped"):
        curve = pdf_localfdr_baseline(s, pi=0.5)
    assert np.all(np.isfinite(curve.values))
    assert curve.values.max() <= 1e6


def test_pdf_baseline_more_conservative_than_cdf_threshold():
    # density-ratio thresholds sit below the ECDF threshold most of the
    # time in the heavy-tail-null mixture
    rng = np.random.default_rng(7)
    q, pi = 0.3, 0.5
    hits = both = 0
    for _ in range(100):
        vals, nc, _ = _mixture_draw(rng, 400, 1000)
        s = make_statistic_set(vals, nc)
        tau_cdf = cdf_threshold(s, lam=q / pi).tau_hat
        curve = pdf_localfdr_baseline(s, pi=pi)
        below = curve.values <= q
        if tau_cdf is None or not below.any():
            continue
        # first grid crossing below q
        tau_pdf = float(curve.breakpoints[int(np.argmax(below))])
        both += 1
        hits += tau_pdf < tau_cdf
    assert both >= 90
    assert hits / both >= 0.8


def test_neighborhood_monotone_single_minimizer():
    rng = np.random.default_rng(8)
    vals = np.concatenate([rng.normal(-3, 0.5, size=15), rng.normal(0, 1, size=30)])
    s = make_statistic_set(vals, rng.normal(0, 1, size=60))
    res = neighborhood_threshold(s, lam=0.6, h=2.0)
    global_tau = cdf_threshold(s, lam=0.6).tau_hat
    assert len(res) == 1
    assert res[0].tau_hat == global_tau


def test_neighborhood_h_larger_than_range():
    s = worked_set()
    res = neighborhood_threshold(s, lam=1.0, h=100.0)
    assert len(res) == 1
    assert res[0].tau_hat == cdf_threshold(s, lam=1.0).tau_hat == 1.5


def test_neighborhood_bimodal_two_minimizers():
    # alternative mass planted on both sides of the null bulk
    left = np.linspace(-3.2, -2.8, 8)
    right = np.linspace(2.8, 3.2, 8)
    middle = np.linspace(-0.9, 0.9, 16)
    inv = np.concatenate([left, right, middle])
    nc = np.linspace(-1.3, 1.3, 40)
    s = make_statistic_set(inv, nc)
    lam = 0.6
    res = neighborhood_threshold(s, lam=lam, h=1.0)

    # brute-force oracle over all observed points
    cand = np.unique(np.concatenate([inv, nc]))
    n, m = inv.size, nc.size
    obj = np.array(
        [np.sum(nc <= t) / m - lam * np.sum(inv <= t) / n for t in cand]
    )
    inv_set = set(np.unique(inv).tolist())
    expected = []
    for k, t in enumerate(cand):
        if t not in inv_set:
            continue
        window = obj[(cand >= t - 1.0) & (cand <= t + 1.0)]
        if obj[k] <= window.min() + 1e-12:
            expected.append(t)
    got = [r.tau_hat for r in res]
    np.testing.assert_allclose(got, expected)
    assert len(got) == 2


def test_neighborhood_validation():
    with pytest.raises(DataError):
        neighborhood_threshold(worked_set(), lam=1.0, h=0.0)
