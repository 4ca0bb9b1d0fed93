import itertools
import math

import numpy as np
import pytest

from nctest import DataError, make_statistic_set, procedures
from nctest.procedures import (
    _BLOCK_ELEMENTS,
    _mask_pvalues,
    _random_null,
    _subset_masks,
    _within_cap,
    bh,
    bonferroni_global,
    confusion_counts,
    fisher_global_statistic,
    hochberg,
    holm,
    lehmann_romano,
    permutation_global,
    simes_global,
    simes_statistic,
)


def test_bonferroni_worked():
    assert bonferroni_global([0.01, 0.2, 0.9], 0.05)
    assert not bonferroni_global([1.0, 1.0, 1.0], 0.05)
    assert bonferroni_global([0.04], 0.05)
    assert not bonferroni_global([0.06], 0.05)


def test_simes_worked():
    assert simes_global([0.04, 0.06, 0.5], 0.1)  # i=2: 0.06 <= 0.0667
    assert not simes_global([0.5, 0.6, 0.7], 0.1)


def test_bonferroni_implies_simes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.uniform(size=rng.integers(1, 12))
        alpha = rng.uniform(0.01, 0.3)
        if bonferroni_global(p, alpha):
            assert simes_global(p, alpha)


def test_holm_worked():
    r = holm([0.01, 0.02, 0.9], 0.05)
    assert r.rejected == {"p1", "p2"}
    assert r.threshold == 0.02
    r = holm([0.001, 0.002, 0.003], 0.05)  # alpha/n above all p
    assert r.n_rejected == 3
    r = holm([0.9, 0.8, 0.7], 0.05)
    assert r.rejected == frozenset()
    assert r.threshold is None


def test_hochberg_worked():
    r = hochberg([0.01, 0.04, 0.04], 0.05)
    assert r.n_rejected == 3  # i=3 passes: 0.04 <= 0.05
    r = hochberg([1.0, 1.0], 0.05)
    assert r.n_rejected == 0


def test_hochberg_contains_holm():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p = rng.uniform(size=rng.integers(1, 15)) ** 2
        alpha = rng.uniform(0.01, 0.3)
        assert holm(p, alpha).rejected <= hochberg(p, alpha).rejected


def test_lehmann_romano_worked():
    r = lehmann_romano([0.01, 0.9], 0.05, gamma=0.1)
    # boundary at i=1: (0+1)*0.05/(2+0+1-1) = 0.025
    assert r.audit["boundaries"][0] == pytest.approx(0.025)
    assert r.rejected == {"p1"}
    r = lehmann_romano([1.0, 1.0], 0.05, gamma=0.1)
    assert r.n_rejected == 0


def test_lehmann_romano_small_gamma_matches_holm():
    rng = np.random.default_rng(2)
    for n in range(1, 11):
        gamma = 1.0 / n - 1e-9 if n > 1 else 0.5
        for _ in range(20):
            p = rng.uniform(size=n)
            alpha = rng.uniform(0.01, 0.4)
            lr = lehmann_romano(p, alpha, gamma)
            hm = holm(p, alpha)
            if n > 1:
                assert lr.rejected == hm.rejected


def test_bh_worked():
    r = bh([0.01, 0.02, 0.5], q=0.15)
    # boundaries 0.05, 0.10, 0.15; largest passing index is 2
    np.testing.assert_allclose(r.audit["boundaries"], [0.05, 0.10, 0.15])
    assert r.rejected == {"p1", "p2"}
    assert r.threshold == 0.02
    assert bh([0.2, 0.4, 0.9], q=0.1).n_rejected == 0
    assert bh([0.04], q=0.05).n_rejected == 1
    assert bh([0.06], q=0.05).n_rejected == 0


def test_prefix_property_exact():
    rng = np.random.default_rng(3)
    procs = [
        lambda p, a: holm(p, a),
        lambda p, a: hochberg(p, a),
        lambda p, a: bh(p, a),
        lambda p, a: lehmann_romano(p, a, 0.3),
    ]
    for _ in range(100):
        n = int(rng.integers(1, 20))
        p = np.maximum(np.round(rng.uniform(size=n), 2), 0.01)  # rounding forces ties
        a = float(rng.uniform(0.02, 0.5))
        for proc in procs:
            r = proc(p, a)
            k = r.n_rejected
            sorted_ids = list(r.audit["order"])
            assert r.rejected == frozenset(sorted_ids[:k])
            sorted_p = list(r.audit["sorted_pvalues"])
            assert sorted_p == sorted(sorted_p)
            # the rejected prefix is exactly the k smallest p-values
            assert sorted(p[int(i[1:]) - 1] for i in r.rejected) == sorted_p[:k]


def test_monotone_in_level():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = rng.uniform(size=10) ** 2
        prev = {name: frozenset() for name in ("holm", "hochberg", "bh", "lr")}
        for a in np.linspace(0.01, 0.6, 12):
            now = {
                "holm": holm(p, a).rejected,
                "hochberg": hochberg(p, a).rejected,
                "bh": bh(p, a).rejected,
                "lr": lehmann_romano(p, a, 0.25).rejected,
            }
            for name in now:
                assert prev[name] <= now[name]
            prev = now


def test_fisher_worked():
    assert fisher_global_statistic([1.0, 1.0]) == 0.0
    assert fisher_global_statistic([math.exp(-1.0)]) == pytest.approx(2.0, abs=1e-12)
    assert fisher_global_statistic([0.5, 0.5]) == pytest.approx(4 * math.log(2), abs=1e-12)


def test_simes_statistic():
    assert simes_statistic([0.5]) == 0.5
    # p=(0.2, 0.3): 2*min(0.2, 0.15) = 0.3
    assert simes_statistic([0.3, 0.2]) == pytest.approx(0.3)


def test_empty_pvalues_rejected():
    with pytest.raises(DataError):
        bh(np.array([]), 0.1)
    for bad in (math.nan, math.inf, -math.inf):
        for call in (lambda p: bh(p, 0.1), lambda p: holm(p, 0.05),
                     lambda p: simes_global(p, 0.05)):
            with pytest.raises(DataError):
                call([0.01, bad, 0.5])


def test_level_validated():
    with pytest.raises(DataError):
        bh([0.1], 0.0)
    with pytest.raises(DataError):
        lehmann_romano([0.1], 0.05, 1.0)


def test_confusion_counts():
    s = make_statistic_set(
        [0.01, 0.02, 0.9],
        [0.5, 0.6],
        truth={"t1": "nonnull", "t2": "null", "t3": "null"},
    )
    r = bh([0.01, 0.02, 0.9], 0.5)
    # p-values passed as a bare array use p1..pn ids; rebuild with matching ids
    from nctest import ranc_pvalues

    r = bh(ranc_pvalues(s), 0.5)
    c = confusion_counts(r, s)
    assert c["n_rejected"] == r.n_rejected
    assert c["false_rejections"] + c["true_rejections"] == c["n_rejected"]
    assert 0 <= c["fdp"] <= 1


def test_permutation_enumeration_exact(enumerate_simes):
    # pool {1,2,3,4}, T={1,2}: all six relabelings give Simes statistics
    # {1/3, 2/3, 2/3, 2/3, 1, 1}; observed 1/3, so p = 1/6
    s = make_statistic_set([1.0, 2.0], [3.0, 4.0])
    _, samples, _ = enumerate_simes(s)
    np.testing.assert_allclose(
        np.sort(samples), [1 / 3, 2 / 3, 2 / 3, 2 / 3, 1.0, 1.0]
    )
    # the library counts the same p over the six relabelings, with no sample
    result = permutation_global(s, "simes_min_ratio", B=10, seed=0)
    assert result[0] == pytest.approx(1 / 6)
    assert (result[1].size, result.observed, result.draws) == (0, pytest.approx(1 / 3), 6)


def test_permutation_b1_counting(monkeypatch):
    monkeypatch.setattr(procedures, "_MAX_ENUMERATION", 0)
    s = make_statistic_set([1.0], [2.0, 3.0])
    p, samples = permutation_global(s, "simes_min_ratio", B=1, seed=0)
    assert len(samples) == 1
    assert p in (0.5, 1.0)


def test_permutation_seed_and_thread_determinism():
    rng = np.random.default_rng(5)
    s = make_statistic_set(rng.normal(size=12), rng.normal(size=30))
    p1, s1 = permutation_global(s, "simes_min_ratio", B=50, seed=9)
    p2, s2 = permutation_global(s, "simes_min_ratio", B=50, seed=9)
    assert p1 == p2
    np.testing.assert_array_equal(s1, s2)


def test_permutation_invariant_to_row_order(monkeypatch):
    # the Fisher sum of the observed sample once depended on input row
    # order: rows [0,1,2,3] gave p = 18/495 and [1,3,2,0] gave 19/495
    rng = np.random.default_rng(3)
    t = rng.normal(size=4) - 2
    c = rng.normal(size=8)
    for statistic in ("fisher", "simes_min_ratio"):
        for cap in (1_000_000, 0):
            monkeypatch.setattr(procedures, "_MAX_ENUMERATION", cap)
            results = [
                permutation_global(make_statistic_set(t[rows], c), statistic, B=200, seed=4)
                for rows in ([0, 1, 2, 3], [1, 3, 2, 0], [3, 2, 1, 0])
            ]
            for other in results[1:]:
                assert other[0] == results[0][0]
                np.testing.assert_array_equal(other[1], results[0][1])
                assert other.observed == results[0].observed


def test_permutation_fisher_counts_equal_products_as_ties():
    # p-values (1+c_i)/(m+1) with equal products, such as factors {2, 6}
    # against {3, 4}, give equal Fisher statistics in exact arithmetic; the
    # float sums of logs may differ in the last bit and must still count
    total = math.comb(15, 5)
    tied_cases = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = make_statistic_set(rng.normal(size=5), rng.normal(size=10))
        pool = np.sort(np.concatenate([s.investigation, s.negative_controls]))
        observed = np.searchsorted(pool, np.sort(s.investigation))

        def product(positions):
            # 1 + number of controls below each test, over the sorted tests
            return math.prod(1 + int(p) - i for i, p in enumerate(positions))

        products = [product(c) for c in itertools.combinations(range(15), 5)]
        target = product(observed)
        tied_cases += products.count(target) > 1
        p, _ = permutation_global(s, statistic="fisher")
        assert p == sum(v <= target for v in products) / total, seed
    assert tied_cases > 0


def test_subset_masks_match_full_argsort():
    # the argpartition picks the same subsets as one argsort of the
    # whole (b, size) key matrix
    for b, size, n_test in ((1000, 300, 7), (5, 40, 40), (3, 70_000, 1)):
        keys = np.random.default_rng(8).random((b, size))
        want = np.zeros((b, size), dtype=bool)
        np.put_along_axis(want, np.argsort(keys, axis=1)[:, :n_test], True, axis=1)
        got = _subset_masks(np.random.default_rng(8), b, size, n_test)
        np.testing.assert_array_equal(got, want)


def test_random_null_matches_one_shot_sample():
    # block-wise draws continue one stream, so the statistics equal those
    # of the masks of one (b, size) draw, also on a pool with ties
    for b, size, n_test in ((1000, 300, 7), (50, 2000, 40), (3, 70_000, 2)):
        assert b > _BLOCK_ELEMENTS // size  # more than one block
        tied_pool = np.sort(np.round(np.random.default_rng(size).normal(size=size), 1))
        tied_end = np.searchsorted(tied_pool, tied_pool, side="right") - 1
        for tie_end in (None, tied_end):
            for stat_rows in (fisher_global_statistic, simes_statistic):
                masks = _subset_masks(np.random.default_rng(8), b, size, n_test)
                got = _random_null(np.random.default_rng(8), b, size, n_test, stat_rows, tie_end)
                np.testing.assert_array_equal(got, stat_rows(_mask_pvalues(masks, tie_end)))


def test_within_cap_matches_the_binomial():
    # the cap is decided without the full binomial, which has 600,000 digits at n = m = 1e6
    for n, m in itertools.product(range(30), repeat=2):
        for cap in (0, 1, 5, 100, 1000, 10**6):
            assert _within_cap(n, m, cap) == (math.comb(n + m, n) <= cap), (n, m, cap)
    assert _within_cap(1, 999_999, 10**6) and _within_cap(999_999, 1, 10**6)
    assert not _within_cap(1, 10**6, 10**6) and not _within_cap(10**6, 10**6, 10**6)


def test_simes_count_stops_at_the_enumeration_cap():
    # C(27, 12) > 1e6: there Simes samples B relabelings, and within the cap it counts
    rng = np.random.default_rng(3)
    p, samples = result = permutation_global(
        make_statistic_set(rng.normal(size=12), rng.normal(size=15)), B=50)
    assert samples.size == result.draws == 50 and 0 < p <= 1
    p, samples = result = permutation_global(
        make_statistic_set(rng.normal(size=1), rng.normal(size=999)), B=50)
    assert samples.size == 0 and result.draws == 1000 and 0 < p <= 1


def test_permutation_exact_matches_monte_carlo(monkeypatch, enumerate_simes):
    # exact enumeration and large-B Monte Carlo estimate one p-value
    rng = np.random.default_rng(21)
    s = make_statistic_set(rng.normal(size=4) - 1.0, rng.normal(size=8))
    B = 20_000
    nulls = {"simes_min_ratio": enumerate_simes(s)[:2], "fisher": permutation_global(s, "fisher")}
    monkeypatch.setattr(procedures, "_MAX_ENUMERATION", 0)
    for statistic, (exact, samples) in nulls.items():
        assert samples.size == math.comb(12, 4)
        mc, _ = permutation_global(s, statistic, B=B, seed=22)
        se = math.sqrt(exact * (1 - exact) / B)
        assert abs(mc - exact) <= 3 * se, (statistic, exact, mc, se)


def test_permutation_level_calibration():
    # exchangeable null data: P(p <= 0.05) should be 0.05 up to MC error;
    # C(30, 10) exceeds the enumeration cap, so every p-value is sampled
    reps = 300
    B = 99
    hits = 0
    master = np.random.default_rng(6)
    for r in range(reps):
        x = master.normal(size=30)
        s = make_statistic_set(x[:10], x[10:])
        p, _ = permutation_global(s, "simes_min_ratio", B=B, seed=r)
        hits += p <= 0.05
    rate = hits / reps
    se = math.sqrt(0.05 * 0.95 / reps)
    assert abs(rate - 0.05) <= 3 * se
