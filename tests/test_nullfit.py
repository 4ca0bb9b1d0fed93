import warnings

import numpy as np
import pytest
from scipy import stats

from nctest import DataError, make_statistic_set, ranc_pvalues
from nctest.nullfit import (
    MAD_FACTOR,
    FalsificationReport,
    NullModel,
    falsify_subgroups,
    fit_efron,
    fit_mad1,
    fit_mad2,
    fit_nc_ecdf,
    mad_scale,
    null_diagnostics_table,
    pvalues_from_null,
    uniformity_tests,
)
from nctest.nullfit import _poisson_irls


def test_mad_scale_worked_examples():
    assert mad_scale([1, 2, 3, 4, 100]) == pytest.approx(MAD_FACTOR)
    assert mad_scale([-1, 0, 1]) == pytest.approx(MAD_FACTOR)


def test_mad_scale_degenerate():
    with pytest.warns(RuntimeWarning, match="degenerate"):
        assert mad_scale([2.0, 2.0, 2.0]) == 0.0
    with pytest.raises(DataError):
        mad_scale([1.0])


def _paired_set(treat, ctrl, n_test=2):
    treat = np.asarray(treat, dtype=float)
    ctrl = np.asarray(ctrl, dtype=float)
    diffs = treat - ctrl
    n = n_test
    inv, nc = diffs[:n], diffs[n:]
    ids_t = [f"t{i}" for i in range(1, n + 1)]
    ids_c = [f"c{i}" for i in range(1, diffs.size - n + 1)]
    paired = {
        rid: (float(a), float(b))
        for rid, a, b in zip(ids_t + ids_c, treat, ctrl)
    }
    return make_statistic_set(
        inv, nc, investigation_ids=ids_t, nc_ids=ids_c, paired_raw=paired
    )


def test_fit_mad1_three_four_five():
    # column MADs 0.3 and 0.4 give sigma 0.5
    a = 0.3 / MAD_FACTOR
    b = 0.4 / MAD_FACTOR
    treat = [0.0, a, -a, a, -a]
    ctrl = [0.0, b, -b, b, -b]
    model = fit_mad1(_paired_set(treat, ctrl), source="all")
    assert model.mu == 0.0
    assert model.sigma == pytest.approx(0.5)
    assert model.kind == "gaussian"


def test_fit_mad1_requires_pairs_and_scale():
    s = make_statistic_set([1.0, 2.0], [0.5, 1.5])
    with pytest.raises(DataError, match="missing"):
        fit_mad1(s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DataError, match="degenerate"):
            fit_mad1(_paired_set([1, 1, 1, 1], [2, 2, 2, 2]), source="all")


def test_fit_mad2_reuses_mad_oracle():
    treat = [1.0, 2.0, 3.0, 4.0, 100.0]
    ctrl = [0.0] * 5
    model = fit_mad2(_paired_set(treat, ctrl), source="all")
    assert model.sigma == pytest.approx(MAD_FACTOR)
    assert model.mu == 0.0


def test_fit_mad2_falls_back_to_statistic_values():
    s = make_statistic_set([10.0, 20.0], [1.0, 2.0, 3.0, 4.0, 100.0])
    model = fit_mad2(s, source="negative_controls")
    assert model.sigma == pytest.approx(MAD_FACTOR)


def test_poisson_irls_exact_counts_fixed_point():
    z = np.linspace(-2, 2, 40)
    design = np.vander(z, 3, increasing=True)
    beta_true = np.array([3.0, 0.4, -1.1])
    counts = np.exp(design @ beta_true)
    beta = _poisson_irls(design, counts)
    np.testing.assert_allclose(beta, beta_true, atol=1e-6)


def test_fit_efron_recovers_gaussian():
    rng = np.random.default_rng(11)
    draws = rng.normal(0.3, 0.7, size=100_000)
    s = make_statistic_set(draws[:50_000], draws[50_000:])
    model = fit_efron(s, source="all", bins=60, degree=4)
    assert model.mu == pytest.approx(0.3, abs=0.02)
    assert model.sigma == pytest.approx(0.7, abs=0.03)
    assert model.details == {"bins": 60, "degree": 4}


def test_fit_efron_preconditions():
    rng = np.random.default_rng(12)
    small = make_statistic_set(rng.normal(size=10), rng.normal(size=10))
    with pytest.raises(DataError, match="at least 50"):
        fit_efron(small, source="all")
    big = make_statistic_set(rng.normal(size=100), rng.normal(size=100))
    with pytest.raises(DataError, match="bins"):
        fit_efron(big, source="all", bins=10)
    with pytest.raises(DataError, match="degree"):
        fit_efron(big, source="all", degree=1)


def test_fit_efron_rejects_valley():
    # U-shaped data: the only critical point of a quadratic fit is a minimum
    vals = np.concatenate([np.linspace(0.0, 0.1, 60), np.linspace(0.9, 1.0, 60)])
    s = make_statistic_set(vals[:60], vals[60:])
    with pytest.raises(DataError, match="concave|mode"):
        fit_efron(s, source="all", degree=2)


def test_null_model_validation():
    with pytest.raises(DataError):
        NullModel(kind="gaussian", method="mad1", source="all", mu=0.0, sigma=0.0)
    with pytest.raises(DataError):
        NullModel(kind="nc_ecdf", method="ecdf", source="negative_controls")
    with pytest.raises(DataError):
        NullModel(kind="cauchy", method="mad1", source="all", mu=0.0, sigma=1.0)


def test_pvalues_from_gaussian_null():
    s = make_statistic_set([0.0, -1.6449, -50.0], [1.0])
    model = NullModel(kind="gaussian", method="mad2", source="all", mu=0.0, sigma=1.0)
    p = pvalues_from_null(s, model)
    assert p.kind == "parametric_null"
    assert p.values[0] == pytest.approx(0.5)
    assert p.values[1] == pytest.approx(0.05, abs=1e-4)
    # far in the tail ndtr underflows to 0; the p-value stays positive
    assert p.values[2] == np.finfo(float).tiny


def test_pvalues_pit_exactly_uniform():
    rng = np.random.default_rng(13)
    draws = rng.normal(2.0, 3.0, size=5000)
    s = make_statistic_set(draws, [0.0])
    model = NullModel(kind="gaussian", method="mad2", source="all", mu=2.0, sigma=3.0)
    p = pvalues_from_null(s, model)
    assert stats.kstest(p.values, "uniform").pvalue > 0.01


def test_pvalues_nc_ecdf_delegates():
    rng = np.random.default_rng(14)
    s = make_statistic_set(rng.normal(size=30), rng.normal(size=40))
    model = fit_nc_ecdf(s)
    p = pvalues_from_null(s, model)
    expected = ranc_pvalues(s)
    np.testing.assert_array_equal(p.values, expected.values)
    assert p.kind == expected.kind == "ranc"


def test_uniformity_equispaced_grid():
    k = np.arange(1, 51)
    p = 0.5 + 0.49 * (k - 0.5) / 50
    report = uniformity_tests(p)
    assert report.ks_pvalue >= 0.99
    assert report.ad_pvalue >= 0.9
    assert report.n_in_window == 50
    assert report.window == (0.5, 0.99)


def test_uniformity_point_mass():
    report = uniformity_tests(np.full(200, 0.6))
    assert report.ks_pvalue < 1e-6
    assert report.ad_pvalue < 1e-6


def test_uniformity_rejects_invalid_pvalues():
    good = np.linspace(0.51, 0.98, 50)
    for bad in (np.nan, np.inf, -np.inf, -0.1, 1.5):
        with pytest.raises(DataError, match="finite and lie in"):
            uniformity_tests(np.append(good, bad))


def test_uniformity_window_preconditions():
    with pytest.raises(DataError, match="inside"):
        uniformity_tests(np.linspace(0.01, 0.4, 100))
    with pytest.raises(DataError, match="window"):
        uniformity_tests(np.linspace(0.5, 0.99, 100), window=(0.9, 0.2))
    # custom window picks up values the default one misses
    report = uniformity_tests(np.linspace(0.21, 0.79, 60), window=(0.2, 0.8))
    assert report.n_in_window == 60


def test_uniformity_level_calibration():
    rng = np.random.default_rng(15)
    reps = 400
    ks_rej = ad_rej = 0
    for _ in range(reps):
        report = uniformity_tests(rng.uniform(size=10_000))
        ks_rej += report.ks_pvalue < 0.05
        ad_rej += report.ad_pvalue < 0.05
    se = np.sqrt(0.05 * 0.95 / reps)
    assert abs(ks_rej / reps - 0.05) <= 3 * se
    assert abs(ad_rej / reps - 0.05) <= 3 * se


def _subgrouped(nc_by_group, n_test=3):
    rng = np.random.default_rng(16)
    inv = rng.normal(size=n_test)
    values, ids, labels = [], [], {}
    k = 0
    for label, vals in nc_by_group.items():
        for v in vals:
            k += 1
            rid = f"c{k}"
            ids.append(rid)
            values.append(v)
            labels[rid] = label
    return make_statistic_set(inv, values, nc_ids=ids, subgroup=labels)


def test_falsify_separated_subgroups():
    rng = np.random.default_rng(17)
    s = _subgrouped(
        {"a": rng.normal(0, 1, 200), "b": rng.normal(3, 1, 200)}
    )
    report = falsify_subgroups(s)
    assert report.subgroups == ("a", "b")
    assert report.pvalues[0, 1] < 1e-6
    assert report.pvalues[0, 1] == report.pvalues[1, 0]
    assert report.pvalues[0, 0] == report.pvalues[1, 1] == 1.0
    qa, qb = report.qq[("a", "b")]
    assert qa.shape == qb.shape
    assert np.median(qb) - np.median(qa) > 2.0


def test_falsify_preconditions():
    rng = np.random.default_rng(18)
    with pytest.raises(DataError, match="two"):
        falsify_subgroups(_subgrouped({"a": rng.normal(size=20)}))
    with pytest.raises(DataError, match="at least 5"):
        falsify_subgroups(
            _subgrouped({"a": rng.normal(size=20), "b": rng.normal(size=3)})
        )


def test_falsify_same_distribution_calibrated():
    rng = np.random.default_rng(19)
    reps, rejections = 300, 0
    for _ in range(reps):
        s = _subgrouped(
            {"a": rng.normal(size=50), "b": rng.normal(size=50)}, n_test=1
        )
        rejections += falsify_subgroups(s).pvalues[0, 1] < 0.05
    se = np.sqrt(0.05 * 0.95 / reps)
    assert abs(rejections / reps - 0.05) <= 3 * se


def _table2_synthetic(seed=20, n=2000, m=1000, contaminated=0.1):
    # raw replicate columns share a common component, so per-column
    # spread is wider than the spread of the differences
    rng = np.random.default_rng(seed)
    var_common, var_noise = 0.06, 0.02

    def draw_pairs(count, noise):
        u = rng.normal(0, np.sqrt(var_common), size=count)
        t = u + rng.normal(0, np.sqrt(noise), size=count)
        c = u + rng.normal(0, np.sqrt(noise), size=count)
        return t, c

    n_bad = int(contaminated * n)
    t0, c0 = draw_pairs(n - n_bad, var_noise)
    t1, c1 = draw_pairs(n_bad, 4 * var_noise)  # inflated minority
    tn, cn = draw_pairs(m, var_noise)
    treat = np.concatenate([t0, t1, tn])
    ctrl = np.concatenate([c0, c1, cn])
    ids = [f"t{i}" for i in range(1, n + 1)] + [f"c{j}" for j in range(1, m + 1)]
    paired = {rid: (float(a), float(b)) for rid, a, b in zip(ids, treat, ctrl)}
    diffs = treat - ctrl
    return make_statistic_set(
        diffs[:n],
        diffs[n:],
        investigation_ids=ids[:n],
        nc_ids=ids[n:],
        paired_raw=paired,
    )


def test_diagnostics_table_orders_methods():
    s = _table2_synthetic()
    rows = null_diagnostics_table(s, q=0.2)
    assert len(rows) == 12
    cell = {(r["source"], r["method"]): r for r in rows}
    assert all(r["error"] is None for r in rows)

    # MAD1 sees the inflated per-column scale, not the difference scale
    mad1_all = cell[("all", "mad1")]
    assert mad1_all["sigma"] == pytest.approx(0.4, abs=0.03)
    assert mad1_all["ks_pvalue"] < 1e-4

    assert cell[("negative_controls", "ecdf")]["ks_pvalue"] > 0.01
    assert cell[("negative_controls", "efron")]["ks_pvalue"] > 0.01
    assert cell[("negative_controls", "efron")]["sigma"] == pytest.approx(
        0.2, abs=0.03
    )
    for r in rows:
        assert isinstance(r["bh_rejections"], int)


def test_diagnostics_table_keeps_failed_cells():
    rng = np.random.default_rng(21)
    s = make_statistic_set(rng.normal(size=60), rng.normal(size=20))
    rows = null_diagnostics_table(s)
    assert len(rows) == 12
    cell = {(r["source"], r["method"]): r for r in rows}
    # no paired columns anywhere: every mad1 cell reports its failure
    for source in ("investigation", "all", "negative_controls"):
        assert cell[(source, "mad1")]["error"] is not None
    # the control sample is too small for a density fit
    assert cell[("negative_controls", "efron")]["error"] is not None
    assert cell[("investigation", "efron")]["error"] is None
    assert cell[("negative_controls", "ecdf")]["error"] is None


def test_diagnostics_table_fits_far_tail_statistic():
    rng = np.random.default_rng(22)
    s = make_statistic_set(np.append(rng.normal(size=60), -50.0), rng.normal(size=40))
    (row,) = null_diagnostics_table(s, sources=("all",), methods=("mad2",))
    assert row["error"] is None
    assert row["kind"] == "gaussian" and row["bh_rejections"] >= 1


def test_falsification_report_serializes():
    rng = np.random.default_rng(22)
    s = _subgrouped({"a": rng.normal(size=30), "b": rng.normal(size=30)})
    d = falsify_subgroups(s).to_dict()
    assert d["subgroups"] == ["a", "b"]
    assert len(d["pvalues"]) == 2
