import warnings

import numpy as np
import pytest
from scipy import stats

from nctest import (
    DataError,
    PValueVector,
    make_statistic_set,
    modified_ranc_pvalues,
    modified_ranc_values,
    ranc_pvalues,
    ranc_values,
)
from nctest._util import distinct
from nctest.ranc import ecdf_counts

NC = np.array([0.1, 0.2, 0.3])


def test_pvalue_vector_rejects_invalid():
    for bad in ([], [0.1, 0.0], [0.1, 1.5], [0.1, np.nan], [0.1, np.inf], [-np.inf]):
        with pytest.raises(DataError):
            PValueVector(values=bad, ids=[f"t{k}" for k in range(len(bad))], kind="external")


def test_ranc_worked_values():
    s = make_statistic_set([0.25, 0.05], NC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no tie, so no warning
        p = ranc_pvalues(s)
    np.testing.assert_array_equal(p.values, [0.75, 0.25])
    assert p.kind == "ranc"
    assert p.ids == ("t1", "t2")


def test_modified_ranc_worked_values():
    s = make_statistic_set([0.05, 0.25, 0.35], NC)
    p = modified_ranc_pvalues(s)
    # (2+0)/4, (2+2)/4, min{(2+3)/4, 1}
    np.testing.assert_array_equal(p.values, [0.5, 1.0, 1.0])
    assert p.kind == "modified_ranc"


def test_pvalues_live_on_grid():
    rng = np.random.default_rng(11)
    s = make_statistic_set(rng.normal(size=40), rng.normal(size=17))
    p = ranc_pvalues(s).values
    grid = np.arange(1, 19) / 18.0
    assert np.all(np.isin(p, grid))


def test_modified_exceeds_plain_by_one_grid_step():
    rng = np.random.default_rng(12)
    t = rng.normal(size=200)
    nc = rng.normal(size=63)
    p = ranc_values(t, nc)
    q = modified_ranc_values(t, nc)
    below_cap = q < 1.0
    np.testing.assert_allclose(q[below_cap] - p[below_cap], 1.0 / 64.0, rtol=0, atol=1e-15)
    assert np.all(q[~below_cap] == 1.0)


def test_order_preserving():
    rng = np.random.default_rng(13)
    t = np.sort(rng.normal(size=50))
    p = ranc_values(t, rng.normal(size=20))
    assert np.all(np.diff(p) >= 0)


def test_monotone_invariance_exact():
    rng = np.random.default_rng(14)
    t = rng.normal(size=30)
    nc = rng.normal(size=80)
    p1 = ranc_values(t, nc)
    p2 = ranc_values(t**3, nc**3)
    np.testing.assert_array_equal(p1, p2)


def test_cross_tie_warning():
    s = make_statistic_set([0.2, 0.9], NC)
    with pytest.warns(RuntimeWarning, match="tie") as record:
        p = ranc_pvalues(s)
    assert len(record) == 1
    assert str(record[0].message).startswith("1 investigation value(s) exactly tie")
    # the warning points at the caller of ranc_pvalues
    assert record[0].filename == __file__
    # the tied control counts as below-or-equal: the step sits at 0.2
    np.testing.assert_array_equal(p.values, [0.75, 1.0])
    assert ranc_values(np.nextafter(0.2, -np.inf), NC) == 0.5


@pytest.mark.parametrize("size", [3, 40, 5000])
def test_distinct_pooled_values_are_those_of_np_unique(size):
    # distinct, which ecdf_counts uses, finds the values by np.unique's
    # sort-and-keep-first, so the same one of -0.0 and 0.0 stands for their
    # tie, bit for bit; its counts are those of a right-side search
    rng = np.random.default_rng(size)
    for _ in range(20):
        tests = rng.choice([-0.0, 0.0, -1.5, 0.5, 2.0], size=size)
        controls = rng.choice([0.0, -0.0, 0.5, -2.5], size=size + 1)
        pooled = np.concatenate([tests, controls])
        expected = np.unique(pooled)
        t, at_or_below = distinct(pooled)
        for got in (t, ecdf_counts(make_statistic_set(tests, controls))[0]):
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        assert at_or_below.tobytes() == np.searchsorted(np.sort(pooled), t, side="right").tobytes()


def test_uniform_on_grid_under_exchangeability():
    # with all statistics iid continuous, the p-value of a single test
    # statistic is uniform over {k/(m+1)}
    m = 9
    reps = 10_000
    rng = np.random.default_rng(15)
    draws = rng.normal(size=(reps, m + 1))
    counts_leq = np.sum(draws[:, 1:] <= draws[:, :1], axis=1)
    observed = np.bincount(counts_leq, minlength=m + 1)
    chi2 = stats.chisquare(observed)
    assert chi2.pvalue > 1e-3


def test_validity_monte_carlo_null():
    # n=1, m=1000, statistic distributed as the controls:
    # P(p <= 0.05) must not exceed 0.05 beyond Monte-Carlo error
    m = 1000
    reps = 100_000
    chunk = 10_000
    rng = np.random.default_rng(16)
    hits = 0
    for _ in range(reps // chunk):
        draws = rng.normal(size=(chunk, m + 1))
        counts_leq = np.sum(draws[:, 1:] <= draws[:, :1], axis=1)
        p = (1.0 + counts_leq) / (1.0 + m)
        hits += int(np.sum(p <= 0.05))
    phat = hits / reps
    se = np.sqrt(0.05 * 0.95 / reps)
    assert phat <= 0.05 + 3 * se


def test_validity_under_stochastic_dominance():
    # controls stochastically smaller than the null statistic keeps the
    # p-value conservative: T ~ U(0,1), nc ~ Beta(1,2)
    m = 50
    reps = 10_000
    rng = np.random.default_rng(17)
    t = rng.uniform(size=reps)
    nc = rng.beta(1.0, 2.0, size=(reps, m))
    counts_leq = np.sum(nc <= t[:, None], axis=1)
    p = (1.0 + counts_leq) / (1.0 + m)
    for alpha in (0.01, 0.05, 0.1):
        phat = np.mean(p <= alpha)
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert phat <= alpha + 3 * se
