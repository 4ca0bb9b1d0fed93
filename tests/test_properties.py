"""Property tests of the input contract and the testing kernels, generated with hypothesis."""

import csv
import io
import math
import string

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nctest import bh, load_csv, make_statistic_set, modified_ranc_pvalues  # noqa: E402
from nctest import localfdr_curve, pi_hat, ranc_pvalues, ranc_values, stepup_threshold  # noqa: E402
from nctest.localfdr import neighborhood_threshold  # noqa: E402
from nctest.procedures import _count_extreme, _step_prefix, permutation_global  # noqa: E402
from nctest.ranc import counts_at_or_below, ecdf_counts  # noqa: E402
from nctest.simulate import _fdp_tpr_rows  # noqa: E402

_ids = st.text(alphabet=string.ascii_letters + string.digits + ',"_-', min_size=1, max_size=6)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_rows = st.lists(
    st.tuples(
        st.sampled_from(["test", "nc"]),
        _finite,
        st.sampled_from(["", "g1", "g2"]),
        st.sampled_from(["", "null", "nonnull"]),
        st.booleans(),  # a blank line before the row
    ),
    min_size=2,
    max_size=30,
).filter(lambda rows: {r[0] for r in rows} == {"test", "nc"})


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows,
    ids=st.lists(_ids, min_size=30, max_size=30, unique=True),
    with_subgroup=st.booleans(),
    with_truth=st.booleans(),
)
def test_load_csv_returns_written_rows(rows, ids, with_subgroup, with_truth):
    header = ["id", "value", "role"] + ["subgroup"] * with_subgroup + ["truth"] * with_truth
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for rid, (role, value, group, label, blank) in zip(ids, rows):
        if blank:
            out.write("\n")
        writer.writerow([rid, repr(value), role] + [group] * with_subgroup + [label] * with_truth)
    s = load_csv(io.StringIO(out.getvalue()))

    written = list(zip(ids, rows))
    for role, got_ids, got_values in (
        ("test", s.investigation_ids, s.investigation),
        ("nc", s.nc_ids, s.negative_controls),
    ):
        mine = [(rid, row[1]) for rid, row in written if row[0] == role]
        assert got_ids == tuple(rid for rid, _ in mine)
        assert got_values.tobytes() == np.array([v for _, v in mine]).tobytes()
    assert s.subgroup == ({rid: row[2] for rid, row in written if row[2]} if with_subgroup else {})
    assert s.truth == ({rid: row[3] for rid, row in written if row[3]} if with_truth else {})


def _grid_matrix(draw, rows, cols, levels):
    """A rows x cols matrix on the grid 0..levels, so ties are common."""
    cells = draw(st.lists(st.integers(0, levels), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


@st.composite
def _sorted_rows_and_boundaries(draw):
    rows, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    p = np.sort(1.0 + _grid_matrix(draw, rows, n, 7), axis=1) / 8
    return p, _grid_matrix(draw, 1, n, 8)[0] / 8


def _brute_prefix(sorted_p, boundaries, step_up):
    passing = [x <= b for x, b in zip(sorted_p, boundaries)]
    if step_up:
        return max((i + 1 for i, ok in enumerate(passing) if ok), default=0)
    k = 0
    while k < len(passing) and passing[k]:
        k += 1
    return k


@settings(max_examples=200, deadline=None)
@given(data=_sorted_rows_and_boundaries(), step_up=st.booleans())
def test_step_prefix_matches_definitions(data, step_up):
    p, boundaries = data
    k_rows = _step_prefix(p, boundaries, step_up)
    for row, k in zip(p, k_rows):
        assert k == _brute_prefix(row, boundaries, step_up)
        assert int(_step_prefix(row, boundaries, step_up)) == k


_int_values = st.lists(st.integers(-4, 4), min_size=1, max_size=15)


@settings(max_examples=200, deadline=None)
@given(tests=_int_values, controls=_int_values, q=st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]))
# the first candidate fails and a later one passes: step-up and step-down differ
@example(tests=[-4] + [-2] * 14, controls=[-3] + [4] * 14, q=0.2)
def test_stepup_at_lambda_one_is_bh_on_modified_pvalues(tests, controls, q):
    # integer statistics tie each other and the controls
    s = make_statistic_set(np.array(tests, dtype=float), np.array(controls, dtype=float))
    stepup = stepup_threshold(s, lam=1.0, q=q)
    assert stepup.rejected == bh(modified_ranc_pvalues(s), q).rejected


@st.composite
def _rows_of_controls_and_queries(draw):
    rows = draw(st.integers(1, 6))
    return (_grid_matrix(draw, rows, draw(st.integers(1, 10)), 6),
            _grid_matrix(draw, rows, draw(st.integers(1, 10)), 6) - 0.5 * draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(data=_rows_of_controls_and_queries())
def test_row_counts_equal_one_dimensional_counts(data):
    nc, queries = data
    counts = counts_at_or_below(nc, queries)
    pvalues = ranc_values(queries, nc)
    for r in range(len(nc)):
        one = counts_at_or_below(nc[r], queries[r])
        assert counts[r].dtype == one.dtype
        assert counts[r].tobytes() == one.tobytes()
        assert pvalues[r].tobytes() == ranc_values(queries[r], nc[r]).tobytes()


# signed zeros tie each other and the other values tie across roles
_tied_values = st.lists(st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.5, 2.0]), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(tests=_tied_values, controls=_tied_values, queries=st.none() | _tied_values)
def test_ecdf_counts_are_the_counts_of_each_role(tests, controls, queries):
    s = make_statistic_set(np.array(tests), np.array(controls))
    t, c, r = ecdf_counts(s, queries)
    # which of -0.0 and 0.0 stands for a tie is what the CSVs print
    expected_t = np.unique(np.array(tests + controls)) if queries is None else np.array(queries)
    assert t.tobytes() == expected_t.tobytes()
    assert c.tobytes() == counts_at_or_below(s.negative_controls, t).tobytes()
    assert r.tobytes() == counts_at_or_below(s.investigation, t).tobytes()


_transforms = st.sampled_from([np.exp, lambda x: x**3 + x, lambda x: 2.0 * x - 7.0])


@settings(max_examples=150, deadline=None)
@given(tests=_int_values, controls=_int_values, transform=_transforms,
       q=st.sampled_from([0.1, 0.5, 0.9]), pi=st.sampled_from([0.5, 0.8, 1.0]))
def test_rank_only_routines_are_monotone_invariant(tests, controls, transform, q, pi):
    # a strictly increasing map changes the statistics, never their ranks
    t, nc = np.array(tests, dtype=float), np.array(controls, dtype=float)
    s, g = make_statistic_set(t, nc), make_statistic_set(transform(t), transform(nc))

    p, pg = ranc_pvalues(s), ranc_pvalues(g)
    assert (p.values.tobytes(), p.warnings) == (pg.values.tobytes(), pg.warnings)

    for lam in (0.5, 1.0):
        plain, mapped = stepup_threshold(s, lam, q).to_dict(), stepup_threshold(g, lam, q).to_dict()
        if plain["tau_statistic"] is not None:
            plain["tau_statistic"] = float(transform(plain["tau_statistic"]))
        if plain["fdr_curve"] is not None:
            bp = transform(np.array(plain["fdr_curve"]["breakpoints"]))
            plain["fdr_curve"]["breakpoints"] = bp.tolist()
        assert plain == mapped

    curve, mapped = localfdr_curve(s, pi), localfdr_curve(g, pi)
    assert curve.values.tobytes() == mapped.values.tobytes()
    assert transform(curve.breakpoints).tobytes() == mapped.breakpoints.tobytes()


def _brute_neighborhood(s, lam, h):
    """Minimizers by one slice of the h-window per investigation value."""
    cand_t, c, r = ecdf_counts(s)
    scores = c * float(s.n) - lam * (float(s.m) * r)
    at_test = np.flatnonzero(np.diff(r, prepend=0) > 0)
    return [
        float(cand_t[k]) for k in at_test
        if scores[k] <= scores[(cand_t >= cand_t[k] - h) & (cand_t <= cand_t[k] + h)].min()
    ]


_half_steps = st.lists(st.integers(-8, 8).map(lambda v: v / 2), min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(tests=_half_steps, controls=_half_steps, lam=st.sampled_from([0.3, 0.6, 1.0, 1.7]))
def test_neighborhood_threshold_matches_window_loop(tests, controls, lam):
    # values on a half-step grid tie within and across roles
    s = make_statistic_set(np.array(tests), np.array(controls))
    for h in (0.25, 0.5, 1.0, 2.5, 20.0):
        found = neighborhood_threshold(s, lam, h)
        assert [res.tau_hat for res in found] == _brute_neighborhood(s, lam, h)
        for res in found:
            below = {i for i, v in zip(s.investigation_ids, tests) if v <= res.tau_hat}
            assert res.rejected == below


def _brute_stepup(tests, controls, lam, q):
    """tau, tau_statistic, pi_hat and rejected positions by direct comparison."""
    n, m = len(tests), len(controls)
    below = [sum(c <= x for c in controls) for x in tests]  # V_nc at each test
    u = [(1.0 + v) / (1.0 + m) for v in below]
    pi = 1.0
    if lam != 1.0:
        r_lam = sum(x <= lam for x in u)
        v_lam = sum((1.0 + sum(d <= c for d in controls)) / (1.0 + m) <= lam for c in controls)
        pi = math.inf if v_lam >= m else (n + 1 - r_lam) / n * (m + 1) / (m - v_lam)
    passing = [
        u[i] for i in range(n)
        if u[i] <= lam and math.isfinite(pi)
        and pi * n * (below[i] + 2.0) / ((m + 1.0) * max(sum(x <= u[i] for x in u), 1)) <= q
    ]
    if not passing:
        return None, None, pi, []
    tau = max(passing)
    rejected = [i for i in range(n) if u[i] <= tau]
    return tau, max(tests[i] for i in rejected), pi, rejected


@settings(max_examples=300, deadline=None)
@given(tests=_tied_values, controls=_tied_values, shift=st.sampled_from([0.0, 3.0]),
       lam=st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0, exclude_min=True),
       q=st.floats(0.01, 0.99))
# no control lies between -1.5 and -1.0, so they share a rank and R counts both
@example(tests=[-1.5, -1.0] * 6, controls=[2.0] * 12, shift=0.0, lam=1.0, q=0.2)
def test_stepup_matches_brute_force_formula(tests, controls, shift, lam, q):
    # shifted controls sit above most tests, so something is rejected
    controls = [c + shift for c in controls]
    s = make_statistic_set(np.array(tests), np.array(controls))
    res = stepup_threshold(s, lam, q)
    tau, tau_statistic, pi, rejected = _brute_stepup(tests, controls, lam, q)
    assert (res.tau, res.tau_statistic, res.pi_hat) == (tau, tau_statistic, pi)
    assert res.rejected_positions.tolist() == rejected
    assert pi_hat(s, lam) == pi


def _argsort_fdp_tpr(p, q, null_mask):
    """Row-wise BH through a stable argsort and a cumulative null count."""
    n = p.shape[1]
    order = np.argsort(p, axis=1, kind="stable")
    psort = np.take_along_axis(p, order, axis=1)
    k = _step_prefix(psort, q * np.arange(1, n + 1) / n, step_up=True)
    vcum = np.cumsum(null_mask[order], axis=1)
    v = np.where(k > 0, vcum[np.arange(p.shape[0]), np.maximum(k, 1) - 1], 0)
    n1 = int((~null_mask).sum())
    fdp = v / np.maximum(k, 1)
    tpr = (k - v) / n1 if n1 > 0 else np.full(p.shape[0], np.nan)
    return fdp, tpr


@st.composite
def _tied_pvalue_rows(draw):
    """p-values on a coarse grid (1..levels)/levels and a null mask."""
    rows, n, levels = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    p = (1.0 + _grid_matrix(draw, rows, n, levels - 1)) / levels
    null_mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return p, null_mask


@settings(max_examples=300, deadline=None)
@given(data=_tied_pvalue_rows(), q=st.sampled_from([0.05, 0.2, 0.25, 0.5, 0.75, 0.9]))
# a null and a non-null tie at the cut, in both orders
@example(data=(np.array([[0.25, 0.5, 0.5, 1.0], [0.5, 0.25, 1.0, 0.5]]),
               np.array([True, False, True, False])), q=0.5)
# nothing passes, everything passes, and one tie group exactly on the last boundary
@example(data=(np.array([[1.0, 1.0, 1.0], [0.125, 0.125, 0.125], [0.5, 0.5, 0.5]]),
               np.array([True, False, False])), q=0.5)
# every statistic null, so the TPR is NaN
@example(data=(np.array([[0.25, 0.25, 0.75]]), np.array([True, True, True])), q=0.5)
def test_order_free_bh_equals_argsort_reference(data, q):
    p, null_mask = data
    fdp, tpr = _fdp_tpr_rows(p, q, null_mask)
    want_fdp, want_tpr = _argsort_fdp_tpr(p, q, null_mask)
    assert fdp.tobytes() == want_fdp.tobytes()
    assert tpr.tobytes() == want_tpr.tobytes()


_MC_DRAWS = 3000


# Each example runs one Monte-Carlo test of _MC_DRAWS relabelings (about 0.1 s).
# A 3-SE check fails by chance now and then, so the examples are derandomized:
# the same pools every run, and a failure is reproducible.
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    tests=st.lists(st.integers(-3, 3), min_size=2, max_size=5),
    controls=st.lists(st.integers(-3, 3), min_size=3, max_size=9),
    statistic=st.sampled_from(["simes_min_ratio", "fisher"]),
)
def test_permutation_exact_agrees_with_monte_carlo(tests, controls, statistic):
    # integer statistics tie within and across roles
    s = make_statistic_set(np.array(tests, dtype=float), np.array(controls, dtype=float))
    exact, samples = permutation_global(s, statistic)
    assert samples.size == math.comb(s.n + s.m, s.n)
    mc, _ = permutation_global(s, statistic, B=_MC_DRAWS, seed=0, max_enumeration=0)
    # (1 + #extreme) / (1 + B), #extreme ~ Binomial(B, exact)
    mean = (1 + _MC_DRAWS * exact) / (1 + _MC_DRAWS)
    se = math.sqrt(_MC_DRAWS * exact * (1 - exact)) / (1 + _MC_DRAWS)
    assert abs(mc - mean) <= 3 * se, (exact, mc, se)


# a few repeated values make exact ties between samples and observed values
_statistic_values = st.one_of(
    st.sampled_from([0.0, 1.0, -2.5, 7.25]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def _samples_and_observed(draw):
    samples = np.array(draw(st.lists(_statistic_values, min_size=1, max_size=40)))
    # a sample itself, moved by a relative offset inside or outside the 1e-12 tolerance
    picks = draw(st.lists(st.tuples(
        st.integers(0, samples.size - 1),
        st.sampled_from([0.0, 5e-13, -5e-13, 2e-12, -2e-12]),
    ), max_size=10))
    free = draw(st.lists(_statistic_values, max_size=5))
    observed = [samples[i] * (1.0 + offset) for i, offset in picks] + free
    return samples, np.array(observed or [0.0])


@settings(max_examples=300, deadline=None)
@given(data=_samples_and_observed())
@example(data=(np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0 + 5e-13, 1.0 - 5e-13, 2.0])))
def test_count_extreme_matches_brute_force(data):
    samples, observed = data
    for direction in ("small", "large"):
        got = _count_extreme(samples, observed, direction)
        for k, obs in enumerate(observed):
            tol = 1e-12 * abs(obs)
            if direction == "small":
                want = np.sum(samples <= obs + tol)
            else:
                want = np.sum(samples >= obs - tol)
            assert got[k] == want
            assert _count_extreme(samples, obs, direction) == want
