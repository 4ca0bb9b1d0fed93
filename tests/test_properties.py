"""Property tests of the input contract and the testing kernels, generated with hypothesis."""

import contextlib
import csv
import io
import json
import math
import os
import string
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nctest import DataError, bh, load_csv, make_statistic_set, modified_ranc_pvalues  # noqa: E402
from nctest import localfdr_curve, pi_hat, ranc_pvalues, stepup_threshold  # noqa: E402
from nctest import cli, data, localfdr, procedures  # noqa: E402
from nctest._util import rep_rng, stream_states  # noqa: E402
from nctest.localfdr import neighborhood_threshold  # noqa: E402
from nctest.procedures import (  # noqa: E402
    _count_extreme,
    _step_prefix,
    permutation_global,
)
from nctest.ranc import _counts, ecdf_counts  # noqa: E402
from nctest.simulate import _fdp_tpr_rows, simes_permutation_diagnostic  # noqa: E402

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


_REQUIRED = ("id", "value", "role")


def _reference_load_csv(source, orientation="small_is_significant"):
    """The per-row loop load_csv ran before its single np.loadtxt parse."""
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise DataError("empty CSV: missing header")
    index = {name: k for k, name in enumerate(header)}
    for required in _REQUIRED:
        if required not in index:
            raise DataError(f"missing required column {required!r}")
    names = _REQUIRED + ("subgroup", "treatment", "control", "truth")
    col = {name: index.get(name) for name in names}
    i_id, i_value, i_role, i_subgroup, i_treatment, i_control, i_truth = (col[n] for n in names)
    pad = [""] * (1 + max(k for k in col.values() if k is not None))
    inv_ids, inv_vals, nc_ids, nc_vals = [], [], [], []
    subgroup, paired_raw, truth = {}, {}, {}
    end = reader.line_num
    for row in reader:
        lineno, end = end + 1, reader.line_num
        if not row:
            continue
        row += pad[len(row):]
        rid = row[i_id].strip()
        if not rid:
            raise DataError(f"line {lineno}: empty id")
        raw = row[i_value].strip()
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"line {lineno}: bad value {raw!r}") from None
        if not math.isfinite(value):
            raise DataError(f"line {lineno}: non-finite value {raw!r}")
        role = row[i_role].strip()
        if role == "test":
            inv_ids.append(rid)
            inv_vals.append(value)
        elif role == "nc":
            nc_ids.append(rid)
            nc_vals.append(value)
        else:
            raise DataError(f"line {lineno}: unknown role {role!r}")
        if i_subgroup is not None and row[i_subgroup].strip():
            subgroup[rid] = row[i_subgroup].strip()
        t_raw = row[i_treatment].strip() if i_treatment is not None else ""
        c_raw = row[i_control].strip() if i_control is not None else ""
        if t_raw or c_raw:
            if not (t_raw and c_raw):
                raise DataError(f"line {lineno}: treatment and control must both be present")
            try:
                pair = (float(t_raw), float(c_raw))
            except ValueError:
                raise DataError(f"line {lineno}: bad treatment/control pair") from None
            if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
                raise DataError(f"line {lineno}: non-finite treatment/control pair")
            paired_raw[rid] = pair
        if i_truth is not None and row[i_truth].strip():
            truth[rid] = row[i_truth].strip()
    if not inv_ids:
        raise DataError("no investigation statistics (role=test)")
    if not nc_ids:
        raise DataError("no negative controls (role=nc)")
    return make_statistic_set(inv_vals, nc_vals, orientation=orientation,
                              investigation_ids=inv_ids, nc_ids=nc_ids,
                              subgroup=subgroup, paired_raw=paired_raw, truth=truth)


_PAD = st.sampled_from(["", " ", "  ", "\t"])
_number = st.one_of(_finite.map(repr), st.integers(-10**20, 10**20).map(str))
# well-formed cells, so that a text of them loads; an id gets its row number
_ID_CORES = st.one_of(
    st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=3),
    st.text(alphabet=string.ascii_letters + "_-:.@#", min_size=17, max_size=24),
    st.sampled_from(["#", "#a", "a,b", 'q"t', 'say ""hi""', "two\nlines", "cr\rid", "crlf\r\nid",
                     "été"]),
)
_VALID = {
    "value": st.one_of(_number, st.tuples(_PAD, _number, _PAD).map("".join)),
    "role": st.tuples(_PAD, st.sampled_from(["test", "nc"]), _PAD).map("".join),
    "subgroup": st.sampled_from(["", "g1", " g2 ", "a,b"]),
    "treatment": _finite.map(repr),
    "control": _finite.map(repr),
    "truth": st.sampled_from(["", "null", "nonnull", " null "]),
    "other": st.sampled_from(["", "x", "1", "#", '"']),
}
# cells that make errors: empty or repeated ids, nan/inf spellings, junk, wrong roles
_JUNK = {
    "id": st.sampled_from(["", "  ", "\t", "dup"]),
    "value": st.tuples(_PAD, st.sampled_from([
        "", "nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "INF",
        "x", "1.2.3", "0x10", "1e", "--1", "1,5", '"1"']), _PAD).map("".join),
    "role": st.tuples(_PAD, st.sampled_from(["Test", "NC", "control", "", "test nc"]), _PAD).map(
        "".join),
    "subgroup": st.just(""),
    "treatment": st.sampled_from(["", "nan", "x"]),
    "control": st.sampled_from(["", "inf", "y"]),
    "truth": st.sampled_from(["maybe", "NULL"]),
    "other": st.just(""),
}
_NAMES = ("id", "value", "role", "subgroup", "treatment", "control", "truth", "other")


def _field(text, quote):
    if quote or any(c in text for c in ',"\r\n') or text[:1] in (" ", "\t"):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _csv_texts(draw):
    """CSV text in the shapes load_csv accepts: quoting, blank lines, CRLF, short and long rows.

    Column names may repeat and come in any order; one header in ten
    lacks a required column.  Half the texts have about one junk cell in
    ten.  In the others, a short row keeps every required column and a
    row has both or neither of treatment and control.  One id in ten
    lacks the row number that keeps it unique.
    """
    required = list(_REQUIRED)
    if draw(st.integers(0, 9)) == 0:
        required = draw(st.lists(st.sampled_from(_REQUIRED)))
    names = draw(st.permutations(required + draw(st.lists(st.sampled_from(_NAMES), max_size=5))))
    used = [k for k, name in enumerate(names) if name in _REQUIRED]
    junk = draw(st.booleans())
    pairs_complete = junk or (("treatment" in names) == ("control" in names))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names)]
    for row in range(draw(st.integers(0, 12))):
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        paired = pairs_complete and draw(st.booleans())
        cells = []
        for name in names:
            if junk and draw(st.integers(0, 9)) == 0:
                cells.append(draw(_JUNK[name]))
            elif name == "id":
                suffix = str(row) if draw(st.integers(0, 9)) else ""  # else ids may repeat
                cells.append(draw(_PAD) + draw(_ID_CORES) + suffix + draw(_PAD))
            elif name in ("treatment", "control") and not paired:
                cells.append("")
            else:
                cells.append(draw(_VALID[name]))
        shape = draw(st.sampled_from(["full"] * 6 + ["short", "long"]))
        if shape == "short":
            shortest = 0 if junk or not used else 1 + max(used)
            cells = cells[: draw(st.integers(shortest, len(cells)))]
        elif shape == "long":
            cells += draw(st.lists(_VALID["other"], min_size=1, max_size=3))
        lines.append(",".join(_field(text, draw(st.integers(0, 3)) == 0) for text in cells))
    return end.join(lines) + end * draw(st.booleans())


_ORIENTATIONS = ("small_is_significant", "large_is_significant")


def _loaded(loader, text, orientation):
    try:
        s = loader(io.StringIO(text, newline=""), orientation=orientation)
    except DataError as error:
        return str(error)
    return (s.investigation_ids, s.investigation.tobytes(), s.nc_ids,
            s.negative_controls.tobytes(), s.subgroup, s.paired_raw, s.truth)


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts(), orientation=st.sampled_from(_ORIENTATIONS))
@example(text='id,value,role\n"a\nb",0.1,test\n\n  ,0.2,nc\n', orientation=_ORIENTATIONS[0])
@example(text="role,value,id,value\r\ntest,1,a\r\n\r\nnc,x,b,2\r\n", orientation=_ORIENTATIONS[0])
def test_load_csv_matches_the_row_loop(text, orientation):
    want = _loaded(_reference_load_csv, text, orientation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak
        got = _loaded(load_csv, text, orientation)
    assert got == want


_VALUE_PIECES = st.sampled_from(list("0123456789.e+-_ \t\xa0\u2003\u3000١１")
                                 + ["inf", "-Infinity", "nan", "NaN", "+nan"])


@settings(max_examples=300, deadline=None)
@given(raw=st.lists(_VALUE_PIECES, max_size=8).map("".join))
@example(raw="1_000")
@example(raw="١")
@example(raw="１")
@example(raw="\xa01e5\u2003")
def test_record_check_reads_values_as_numpy_does(raw):
    # the check that places a load error accepts a value exactly when np.loadtxt
    # reads it, as the only record of a file
    try:
        read = np.loadtxt(io.StringIO(f"a,{raw},test\n"), delimiter=",", quotechar='"',
                          comments=None, usecols=1, ndmin=1)
    except ValueError:
        read = None
    problem = data._record_error(["a", raw, "test"], 0, 1, 2)
    if read is None:
        assert problem == f"bad value {raw.strip()!r}"
    else:
        assert problem == (None if np.isfinite(read[0]) else f"non-finite value {raw.strip()!r}")


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
# the pools tie on purpose, so the library's tie warning is expected
@pytest.mark.filterwarnings("ignore:.*exactly tie a negative control:RuntimeWarning")
def test_stepup_at_lambda_one_is_bh_on_modified_pvalues(tests, controls, q):
    # integer statistics tie each other and the controls
    s = make_statistic_set(np.array(tests, dtype=float), np.array(controls, dtype=float))
    stepup = stepup_threshold(s, lam=1.0, q=q)
    assert stepup.rejected == bh(modified_ranc_pvalues(s), q).rejected


# signed zeros tie each other and the other values tie across roles
_tied = st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.5, 2.0])
_tied_values = st.lists(_tied, min_size=1, max_size=12)
# a grid of any shape: a scalar, empty, 1-D or 2-D
_tied_grid = _tied | st.just([]) | _tied_values | st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(_tied, min_size=k, max_size=k), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(tests=_tied_values, controls=_tied_values, queries=st.none() | _tied_grid)
def test_ecdf_counts_are_the_counts_of_each_role(tests, controls, queries):
    s = make_statistic_set(np.array(tests), np.array(controls))
    t, c, r = ecdf_counts(s, queries)
    # which of -0.0 and 0.0 stands for a tie is what the CSVs print
    expected_t = np.unique(np.array(tests + controls)) if queries is None else np.array(queries)
    assert t.tobytes() == expected_t.tobytes()
    # the rank-count kernel keeps the value, dtype, shape and scalar type of one search
    for got, role in ((c, s.negative_controls), (r, s.investigation)):
        expected = np.searchsorted(np.sort(role), t, side="right")
        assert type(got) is type(expected) and got.shape == expected.shape
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


_rounded_normals = np.round(np.random.default_rng(2024).normal(size=(2, 300)), 1).tolist()


@settings(max_examples=200, deadline=None)
@given(tests=_tied_values, controls=_tied_values, modified=st.booleans())
# normals on a 0.1 grid: many cross ties, signed zeros among them
@example(tests=_rounded_normals[0], controls=_rounded_normals[1], modified=False)
def test_sorted_query_pvalues_equal_the_two_pass_form(tests, controls, modified):
    # a right and a left search over the tests in input order, whose
    # difference counts the cross ties; the kernel's one search and the
    # gather of the largest control at or below must reproduce both
    s = make_statistic_set(np.array(tests), np.array(controls))
    nc_sorted = np.sort(s.negative_controls)
    below = np.searchsorted(nc_sorted, s.investigation, side="right")
    tied = int(np.count_nonzero(below > np.searchsorted(nc_sorted, s.investigation, side="left")))
    shift = 2.0 if modified else 1.0
    expected = np.minimum((shift + below) / (1.0 + s.m), 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = (modified_ranc_pvalues if modified else ranc_pvalues)(s)
    assert p.values.tobytes() == expected.tobytes()
    assert [str(w.message).split(" ", 1)[0] for w in caught] == ([str(tied)] if tied else [])


def _ranc_and_warnings(statistics):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = ranc_pvalues(statistics)
    return p.values.tobytes(), [str(w.message) for w in caught]


_transforms = st.sampled_from([np.exp, lambda x: x**3 + x, lambda x: 2.0 * x - 7.0])


@settings(max_examples=150, deadline=None)
@given(tests=_int_values, controls=_int_values, transform=_transforms,
       q=st.sampled_from([0.1, 0.5, 0.9]), pi=st.sampled_from([0.5, 0.8, 1.0]))
def test_rank_only_routines_are_monotone_invariant(tests, controls, transform, q, pi):
    # a strictly increasing map changes the statistics, never their ranks
    t, nc = np.array(tests, dtype=float), np.array(controls, dtype=float)
    s, g = make_statistic_set(t, nc), make_statistic_set(transform(t), transform(nc))

    assert _ranc_and_warnings(s) == _ranc_and_warnings(g)

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


def _stack_envelope_curve(s, pi):
    """Breakpoints and values of the local-FDR curve by the stack loop over every line."""
    n, m = s.n, s.m
    cand_t, c, r = ecdf_counts(s, np.unique(s.investigation))
    a = c.astype(float) * n
    b = r.astype(float) * m
    stack = [(-1, 0.0)]

    def crossing(i, j):
        ai = 0.0 if i < 0 else a[i]
        bi = 0.0 if i < 0 else b[i]
        return (a[j] - ai) / (b[j] - bi)

    for k in range(cand_t.size):
        while stack:
            top, top_in = stack[-1]
            if crossing(top, k) <= top_in:
                stack.pop()
            else:
                break
        stack.append((k, crossing(stack[-1][0], k) if stack else 0.0))
    kept = [(cand_t[k], pi * lam_in) for k, lam_in in stack if k >= 0 and lam_in < 1.0]
    return np.array([t for t, _ in kept]), np.array([v for _, v in kept])


def _assert_reference_curve(s, pi):
    curve = localfdr_curve(s, pi)
    breakpoints, values = _stack_envelope_curve(s, pi)
    assert curve.breakpoints.tobytes() == breakpoints.tobytes()
    assert curve.values.tobytes() == values.tobytes()


# wide tied pools: runs of tests with no control between them, and controls
# shifted below or above most tests (every c = 0, or lam_in >= 1 throughout)
_wide_ties = st.lists(st.integers(-15, 15).map(float), min_size=1, max_size=150)


@settings(max_examples=300, deadline=None)
@given(tests=_wide_ties, controls=_wide_ties, shift=st.sampled_from([0.0, 0.5, -20.0, 20.0]),
       pi=st.sampled_from([0.3, 0.8, 1.0]))
def test_localfdr_curve_matches_the_stack_loop(tests, controls, shift, pi):
    s = make_statistic_set(np.array(tests), np.array(controls) + shift)
    _assert_reference_curve(s, pi)


def test_localfdr_curve_past_the_pass_cap(monkeypatch):
    # a strictly convex chain (i controls before test i) then a flat run of tests:
    # each pass drops only the last chain point, so the cap stops the passes and
    # the stack loop finishes the envelope
    chain, flat = 100, 1000
    tests = np.arange(chain + flat, dtype=float)
    controls = np.concatenate([np.full(i, i - 0.5) for i in range(1, chain + 1)]
                              + [np.full(20_000, chain + flat + 10.0)])
    s = make_statistic_set(tests, controls)
    cand_t, c, r = ecdf_counts(s, np.unique(s.investigation))
    a, b = c.astype(float) * s.n, r.astype(float) * s.m

    def passes_left(keep):
        ka, kb = np.append(0.0, a[keep]), np.append(0.0, b[keep])
        slopes = np.diff(ka) / np.diff(kb)
        return bool(np.any(slopes[:-1] >= slopes[1:]))

    assert passes_left(localfdr._envelope_candidates(a, b))
    _assert_reference_curve(s, 0.8)
    # uncapped passes alone reach the envelope; no passes leave the loop all of it
    monkeypatch.setattr(localfdr, "_PRUNE_PASSES", 10 * chain)
    hull = localfdr._envelope_candidates(a, b)
    assert not passes_left(hull) and hull.size < chain
    _assert_reference_curve(s, 0.8)
    monkeypatch.setattr(localfdr, "_PRUNE_PASSES", 0)
    assert localfdr._envelope_candidates(a, b).size == cand_t.size
    _assert_reference_curve(s, 0.8)


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
    fdp, tpr = _fdp_tpr_rows(p, q * np.arange(1, p.shape[1] + 1) / p.shape[1], null_mask)
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
def test_permutation_exact_agrees_with_monte_carlo(tests, controls, statistic, enumerate_simes):
    # integer statistics tie within and across roles
    s = make_statistic_set(np.array(tests, dtype=float), np.array(controls, dtype=float))
    if statistic == "fisher":
        exact, samples = permutation_global(s, statistic)
    else:
        exact, samples, _ = enumerate_simes(s)
    assert samples.size == math.comb(s.n + s.m, s.n)
    with mock.patch.object(procedures, "_MAX_ENUMERATION", 0):
        mc, _ = permutation_global(s, statistic, B=_MC_DRAWS, seed=0)
    # (1 + #extreme) / (1 + B), #extreme ~ Binomial(B, exact)
    mean = (1 + _MC_DRAWS * exact) / (1 + _MC_DRAWS)
    se = math.sqrt(_MC_DRAWS * exact * (1 - exact)) / (1 + _MC_DRAWS)
    assert abs(mc - mean) <= 3 * se, (exact, mc, se)


# integers and signed zeros tie within and across roles
_pool_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
# the shape of the permutation benchmark workload: 5 tests, 20 controls
_BENCH_RNG = np.random.default_rng(9401)
_BENCH_TESTS = (_BENCH_RNG.normal(size=5) - 1.0).tolist()
_BENCH_CONTROLS = _BENCH_RNG.normal(size=20).tolist()


@settings(max_examples=200, deadline=None)
@given(
    tests=st.lists(_pool_values, min_size=1, max_size=5),
    controls=st.lists(_pool_values, min_size=1, max_size=12),
)
@example(tests=[0.0], controls=[-0.0])
@example(tests=[-1.0], controls=[2.0])
@example(tests=[1.0] * 4, controls=[1.0] * 9)
@example(tests=[0.0, -0.0, 1.0, 1.0, 2.0], controls=[-0.0, 1.0])
@example(tests=_BENCH_TESTS, controls=_BENCH_CONTROLS)
# 3 * (3/17/3) is 3 * (1/17) in exact arithmetic, one ulp above it in floats:
# only the 1e-12 tolerance counts that relabeling as extreme
@example(tests=[-10.0, 10.0, 11.0], controls=[k / 16 for k in range(16)])
def test_simes_count_matches_enumeration(tests, controls, enumerate_simes):
    # the lattice-path count is the enumerator's p-value, bit for bit, on both
    # sides of n = m and with ties of any size
    s = make_statistic_set(np.array(tests), np.array(controls))
    p, samples, observed = enumerate_simes(s)
    result = permutation_global(s)
    assert (result[0], result.observed, result.draws) == (p, observed, samples.size)


@st.composite
def _simes_levels(draw):
    """(n, m, alpha): alpha any level, a Simes value n (1 + c) / ((m + 1) k) in
    the engine's float expression, one ulp either side of one, or one just
    inside the 1e-12 tolerance below one."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    c, k = draw(st.integers(0, m)), draw(st.integers(1, n))
    value = n * ((1.0 + c) / (m + 1.0) / k)
    alpha = draw(st.sampled_from([value, np.nextafter(value, 0.0), np.nextafter(value, 2.0),
                                  value * (1 - 5e-13)])
                 | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    assume(0.0 < alpha < 1.0)
    return n, m, float(alpha)


@settings(max_examples=100, deadline=None)
@given(levels=_simes_levels())
@example(levels=(3, 16, 3 * (3 / 17 / 3)))
def test_simes_diagnostic_matches_enumeration(levels, enumerate_simes):
    # the counted CDF at alpha is the share of all C(n + m, n) relabelings
    # at or below _extreme_bound(alpha), bit for bit
    n, m, alpha = levels
    _, samples, _ = enumerate_simes(make_statistic_set(np.arange(n, dtype=float),
                                                       np.arange(n, n + m, dtype=float)))
    share = int(_count_extreme(samples, alpha, "small")) / samples.size
    assert simes_permutation_diagnostic(n, (m,), alpha) == {m: share}


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


@st.composite
def _null_samples(draw):
    # sizes up to a few thousand draws, three scales, a quarter of them integer-tied
    n = draw(st.integers(1, 3000))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        return rng.integers(-20, 21, size=n).astype(float)
    return rng.normal(size=n) * scale


# -0.0 and 0.0 compare equal, so which of them a sort or a partition puts at
# an index is the algorithm's choice; the samples hold no -0.0 (a permutation
# null statistic is positive), and every other pair of equal floats shares its bits
@settings(max_examples=300, deadline=None)
@given(samples=_null_samples() | st.lists(
    st.floats(min_value=-1e300, max_value=1e300).map(lambda v: v + 0.0) | st.sampled_from([0.0, 1.0]),
    min_size=1, max_size=40).map(np.array))
@example(samples=np.array([0.0]))
@example(samples=np.array([2.0, 2.0, 3.0]))
def test_null_quantiles_are_numpys_bit_for_bit(samples):
    ordered = np.sort(samples)
    for q in (0.05, 0.5, 0.95):
        got = np.float64(cli._quantile(ordered, q))
        assert got.tobytes() == np.quantile(samples, q).tobytes(), (q, got)


_qhat_pool = st.one_of(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=40),
    st.lists(st.integers(-6, 6).map(float), min_size=1, max_size=40),  # ties within and across roles
)


@settings(max_examples=200, deadline=None)
@given(tests=_qhat_pool, controls=_qhat_pool, shift=st.sampled_from([0.0, -2.0]),
       levels=st.sampled_from([(0.2, 0.8), (0.1, 1.0), (0.3, 0.5), (0.05, 0.9)]))
def test_localfdr_qhat_is_the_smallest_rejecting_level(tests, controls, shift, levels):
    # a row whose q_hat is below q is rejected at q, a rejected row has q_hat
    # at most q, and q_hat is the library curve's value at the row's statistic
    q, pi = levels
    tests = [t + shift for t in tests]
    lines = ["id,value,role"] + [f"t{k},{v!r},test" for k, v in enumerate(tests)]
    lines += [f"c{k},{v!r},nc" for k, v in enumerate(controls)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["localfdr", "--in", path, "--q", repr(q), "--pi", repr(pi)]) == 0
    payload = json.loads(out.getvalue())
    rejected = set(payload["threshold"]["rejected_ids"])
    curve = localfdr_curve(make_statistic_set(np.array(tests), np.array(controls)), pi)
    names = [f"t{k}" for k in range(len(tests))]
    assert list(payload["qhat"]) == names
    for name, t in zip(names, tests):
        qhat, want = payload["qhat"][name], curve.value_at(t)
        assert (qhat is None) == math.isnan(want)
        if qhat is None:
            assert name not in rejected
            continue
        assert qhat == want
        if name in rejected:
            assert qhat <= q * (1 + 1e-12)
        if qhat < q * (1 - 1e-12):
            assert name in rejected


def _typed(kind, value):
    """value as a numpy integer of that kind where it holds it, else a Python int."""
    return kind(value) if kind is not int and value <= np.iinfo(kind).max else value


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), rep=st.integers(0, 2**40 - 1), count=st.integers(1, 4),
       kind=st.sampled_from([int, np.int64, np.uint32]))
@example(seed=0, rep=0, count=1, kind=int)
@example(seed=2**32 - 1, rep=2**32 - 1, count=1, kind=np.uint32)
@example(seed=2**32, rep=2**32, count=1, kind=np.int64)
@example(seed=2**64, rep=2**64, count=1, kind=int)
@example(seed=3, rep=2**32 - 2, count=4, kind=np.int64)  # one and two spawn words in a block
def test_stream_states_are_numpys_seeding(seed, rep, count, kind):
    # stream (seed, rep) is numpy's PCG64 seeded by SeedSequence(seed, spawn_key=(rep,))
    want = [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,))).state
            for r in range(rep, rep + count)]
    assert stream_states(_typed(kind, seed), range(_typed(kind, rep), rep + count)) == want
    assert rep_rng(_typed(kind, seed), _typed(kind, rep)).bit_generator.state == want[0]


@settings(max_examples=200, deadline=None)
@given(tests=_tied_values, controls=_tied_values)
@example(tests=_rounded_normals[0], controls=_rounded_normals[1])
@example(tests=[1.0, 2.0], controls=[3.0])
def test_pooled_tie_ends_are_the_rank_counts(tests, controls):
    # the last position of each pooled value's tie group, read off distinct's
    # run starts, is the rank count of the sorted pool at that value, less one
    s = make_statistic_set(np.array(tests), np.array(controls))
    pool = np.sort(np.concatenate([s.investigation, s.negative_controls]))
    tie_end, _ = procedures._pooled(s, procedures.simes_statistic)
    if np.all(pool[1:] != pool[:-1]):
        assert tie_end is None
    else:
        expected = _counts(pool, pool) - 1
        assert tie_end.dtype == expected.dtype and tie_end.tobytes() == expected.tobytes()
