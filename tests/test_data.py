import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from nctest import (
    DataError,
    LocalFdrCurve,
    PValueVector,
    StatisticSet,
    StepCurve,
    load_csv,
    make_statistic_set,
    ranc_pvalues,
    ranc_values,
    with_jitter,
)
from nctest import data

BASIC_CSV = """id,value,role
a,0.1,test
b,0.5,test
c,0.9,test
n1,0.3,nc
n2,0.7,nc
"""


def test_load_csv_basic():
    s = load_csv(io.StringIO(BASIC_CSV))
    assert s.n == 3
    assert s.m == 2
    assert s.investigation_ids == ("a", "b", "c")
    assert s.nc_ids == ("n1", "n2")
    np.testing.assert_array_equal(s.investigation, [0.1, 0.5, 0.9])
    np.testing.assert_array_equal(s.negative_controls, [0.3, 0.7])


def test_load_csv_no_nc_is_error():
    csv_text = "id,value,role\na,0.1,test\n"
    with pytest.raises(DataError, match="no negative controls"):
        load_csv(io.StringIO(csv_text))


def test_load_csv_no_test_is_error():
    csv_text = "id,value,role\na,0.1,nc\n"
    with pytest.raises(DataError):
        load_csv(io.StringIO(csv_text))


def test_orientation_flips_sign():
    s = make_statistic_set([1.0, 2.0], [3.0], orientation="large_is_significant")
    np.testing.assert_array_equal(s.investigation, [-1.0, -2.0])
    np.testing.assert_array_equal(s.negative_controls, [-3.0])
    np.testing.assert_array_equal(s.to_original(s.investigation), [1.0, 2.0])


def test_duplicate_id_rejected():
    with pytest.raises(DataError, match="duplicate id"):
        make_statistic_set([0.1], [0.2], investigation_ids=["x"], nc_ids=["x"])
    # ids are kept as strings, so an integer id and its text are the same id
    s = make_statistic_set([0.1, 0.2], [0.3], investigation_ids=[1, 2])
    assert s.investigation_ids == ("1", "2") and s.nc_ids == ("c1",)
    with pytest.raises(DataError) as excinfo:
        make_statistic_set([0.1], [0.2], investigation_ids=[1], nc_ids=["1"])
    assert str(excinfo.value) == "duplicate id '1'"


def test_non_finite_rejected():
    with pytest.raises(DataError):
        make_statistic_set([np.inf], [0.2])
    csv_text = "id,value,role\na,nan,test\nn,0.1,nc\n"
    with pytest.raises(DataError, match="non-finite"):
        load_csv(io.StringIO(csv_text))


def test_unknown_role_rejected():
    csv_text = "id,value,role\na,0.1,banana\nn,0.1,nc\n"
    with pytest.raises(DataError, match="unknown role"):
        load_csv(io.StringIO(csv_text))


def test_optional_columns():
    csv_text = (
        "id,value,role,subgroup,treatment,control,truth\n"
        "a,0.1,test,nuclear,1.5,1.2,nonnull\n"
        "b,0.4,test,,,,null\n"
        "n1,0.3,nc,nuclear,0.9,1.0,\n"
    )
    s = load_csv(io.StringIO(csv_text))
    assert s.subgroup == {"a": "nuclear", "n1": "nuclear"}
    assert s.paired_raw == {"a": (1.5, 1.2), "n1": (0.9, 1.0)}
    assert s.truth == {"a": "nonnull", "b": "null"}
    np.testing.assert_array_equal(s.truth_mask(), [True, False])


def test_truth_label_validated():
    with pytest.raises(DataError, match="truth"):
        make_statistic_set([0.1], [0.2], truth={"t1": "maybe"})


def test_load_csv_blank_short_and_long_rows():
    # blank lines are skipped; missing trailing fields read as empty;
    # fields beyond the header are ignored
    csv_text = (
        "id,value,role,subgroup,truth\n"
        "\n"
        "a,0.1,test\n"
        "b,0.2,test,g1,null,extra,more\n"
        "\n"
        "n1,0.3,nc,g2\n"
    )
    s = load_csv(io.StringIO(csv_text))
    assert s.investigation_ids == ("a", "b")
    assert s.nc_ids == ("n1",)
    assert s.subgroup == {"b": "g1", "n1": "g2"}
    assert s.truth == {"b": "null"}


def test_load_csv_duplicate_header_uses_last_column():
    csv_text = "id,value,role,value\na,9,test,0.1\nn1,9,nc,0.3\n"
    s = load_csv(io.StringIO(csv_text))
    np.testing.assert_array_equal(s.investigation, [0.1])
    np.testing.assert_array_equal(s.negative_controls, [0.3])


def test_load_csv_byte_stream_and_path(tmp_path):
    data = "id,value,role\n\u00e9,0.1,test\nn1,0.3,nc\n".encode("utf-8")
    stream = io.BytesIO(data)
    from_bytes = load_csv(stream)
    assert not stream.closed  # the caller's stream is left open
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        from_binary_file = load_csv(fh)
        assert not fh.closed
    read, write = os.pipe()  # a stream that cannot seek, as stdin may be
    os.write(write, data)
    os.close(write)
    with open(read, "rb") as fh:
        from_pipe = load_csv(fh)
    for s in (from_bytes, from_binary_file, from_pipe, load_csv(path), load_csv(str(path))):
        assert s.investigation_ids == ("\u00e9",)
        assert s.nc_ids == ("n1",)


@pytest.mark.parametrize(
    "csv_text, message",
    [
        ("", "empty CSV: missing header"),
        ("id,role\na,test\n", "missing required column 'value'"),
        ("id,value,role\na,0.1,test\n ,0.2,nc\n", "line 3: empty id"),
        ("id,value,role\na,0.1,test\nb\n", "line 3: bad value ''"),
        # line numbers are file lines: blank lines count, and a quoted
        # field spanning lines moves later records down
        ("id,value,role\n\na,0.1,test\n\nb, x ,nc\n", "line 5: bad value 'x'"),
        ('id,value,role\n"a\nb",0.1,test\n"c\nd",x,nc\n', "line 4: bad value 'x'"),
        ("id,value,role\na,0.1,test\nb,-inf,nc\n", "line 3: non-finite value '-inf'"),
        ("id,value,role\na,0.1,Test\n", "line 2: unknown role 'Test'"),
        ("id,value,role,treatment,control\na,0.1,test,1.0,\n",
         "line 2: treatment and control must both be present"),
        ("id,value,role,treatment\na,0.1,test,1.0\n",
         "line 2: treatment and control must both be present"),
        ("id,value,role,treatment,control\na,0.1,test,1.0,x\n",
         "line 2: bad treatment/control pair"),
        ("id,value,role,treatment,control\na,0.1,test,nan,1\n",
         "line 2: non-finite treatment/control pair"),
        ("id,value,role\nn1,0.1,nc\n", "no investigation statistics (role=test)"),
        ("id,value,role\na,0.1,test\n", "no negative controls (role=nc)"),
        ("id,value,role\na,0.1,test\na,0.2,nc\n", "duplicate id 'a'"),
        # keyword arguments of make_statistic_set, which leaves every check to StatisticSet
        pytest.param({"orientation": "up"}, "unknown orientation 'up'", id="make-orientation"),
        pytest.param({"investigation_values": [[0.1]]},
                     "investigation values must be one-dimensional", id="make-2d"),
        pytest.param({"nc_values": [0.2, np.inf]},
                     "non-finite value in negative control values", id="make-inf"),
        pytest.param({"orientation": "large_is_significant", "investigation_values": [np.nan]},
                     "non-finite value in investigation values", id="make-nan-large"),
    ],
)
def test_load_csv_error_messages(csv_text, message):
    with pytest.raises(DataError) as excinfo:
        if isinstance(csv_text, dict):
            make_statistic_set(**{"investigation_values": [0.1], "nc_values": [0.2], **csv_text})
        else:
            load_csv(io.StringIO(csv_text))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("raw", ["1_000", "١"])
def test_values_numpy_cannot_parse_are_bad(raw):
    # float() reads digit-group underscores and non-ASCII digits; the C parser
    # of np.loadtxt does not, and load_csv follows the parser
    csv_text = f"id,value,role\na,0.1,test\nb,{raw},nc\n"
    with pytest.raises(DataError) as excinfo:
        load_csv(io.StringIO(csv_text))
    assert str(excinfo.value) == f"line 3: bad value {raw!r}"


@pytest.mark.parametrize("kind", ["value", "short", "role"])
@pytest.mark.parametrize("bad_row", [0, 1, 2, 7, 31, 32, 33, 63, 1999])
def test_first_refused_record_is_found_anywhere(monkeypatch, kind, bad_row):
    # a bad record after blank lines and a quoted line break; np.loadtxt refuses
    # the first two kinds, and every load parses the file once
    loadtxt, calls = np.loadtxt, []

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(data.np, "loadtxt", counted)
    rows = [f"t{k},{k / 8!r},test" for k in range(2000)]
    rows[5] = '"t\n5",0.625,nc'

    def text():
        return "id,value,role\n\n" + "\n".join(rows[:20]) + "\n\n\n" + "\n".join(rows[20:]) + "\n"

    s = load_csv(io.StringIO(text()))
    assert (s.n, s.m, len(calls)) == (1999, 1, 1)
    rows[bad_row] = {"value": f"t{bad_row},x,nc", "short": f"t{bad_row}", "role": f"t{bad_row},0.5,Nc"}[kind]
    line = 3 + bad_row + (bad_row > 5) + 2 * (bad_row >= 20)
    message = {"value": "bad value 'x'", "short": "bad value ''", "role": "unknown role 'Nc'"}[kind]
    with pytest.raises(DataError) as excinfo:
        load_csv(io.StringIO(text()))
    assert str(excinfo.value) == f"line {line}: {message}"
    assert len(calls) == 2


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    text = "\ufeffid,value,role\na,0.1,test\nn1,0.3,nc\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(text.encode("utf-8"))
    for source in (path, io.BytesIO(text.encode("utf-8")), io.StringIO(text)):
        s = load_csv(source)
        assert (s.investigation_ids, s.nc_ids) == (("a",), ("n1",))


def test_values_read_only():
    s = make_statistic_set([0.1], [0.2])
    with pytest.raises(ValueError):
        s.investigation[0] = 5.0
    # the set freezes its own copy of a writeable array; the caller's stays writeable
    for orientation in data.ORIENTATIONS:
        a, b = np.array([0.1, 0.4]), np.array([0.2, 0.3])
        s = make_statistic_set(a, b, orientation=orientation)
        assert a.flags.writeable and b.flags.writeable
        a[0] = b[0] = 5.0
        assert s.investigation.tolist() in ([0.1, 0.4], [-0.1, -0.4])
        assert not (s.investigation.flags.writeable or s.negative_controls.flags.writeable)
    s = StatisticSet(investigation_ids=("t1", "t2"), investigation=a, nc_ids=("c1", "c2"),
                     negative_controls=b)
    assert a.flags.writeable and b.flags.writeable
    assert not (s.investigation.flags.writeable or s.negative_controls.flags.writeable)
    # a read-only array is taken as it is, so a loaded set's arrays are not copied again
    a.flags.writeable = False
    assert make_statistic_set(a, [0.2]).investigation is a
    s = load_csv(io.StringIO(BASIC_CSV))
    assert make_statistic_set(s.investigation, s.negative_controls).investigation is s.investigation
    assert not (s.investigation.flags.writeable or s.negative_controls.flags.writeable)
    j = with_jitter(s, seed=1)
    assert not (j.investigation.flags.writeable or j.negative_controls.flags.writeable)
    # a p-value vector follows the same rule
    p = np.array([0.2, 0.6])
    v = PValueVector(values=p, ids=("a", "b"), kind="external")
    assert p.flags.writeable and not v.values.flags.writeable
    p[0] = 0.9
    assert v.values.tolist() == [0.2, 0.6]
    p.flags.writeable = False
    assert PValueVector(values=p, ids=("a", "b"), kind="external").values is p
    assert not ranc_pvalues(s).values.flags.writeable


def _traced_peak(build, values) -> int:
    tracemalloc.start()
    try:
        build(values)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda values: data._as_float_array(values, "values"),
    lambda values: make_statistic_set(values, [0.5]).investigation,
], ids=["_as_float_array", "make_statistic_set"])
def test_list_values_are_converted_once(build):
    # the array built from a list is frozen in place, not copied again: it
    # costs one conversion more than a read-only array, which is taken as it is
    values = [float(k) for k in range(100_000)]
    arr = build(values)
    assert not arr.flags.writeable and arr.tolist() == values
    extra = _traced_peak(build, values) - _traced_peak(build, arr)
    assert extra <= 1.1 * arr.nbytes, extra / arr.nbytes


def test_extremes_find_every_non_finite_value():
    # the finiteness check reads the minimum and maximum, which NaN and both infinities reach
    for bad in ([0.1, math.nan], (math.inf, 0.2), np.array([0.3, -math.inf]), [math.nan] * 3):
        with pytest.raises(DataError, match="non-finite value in values"):
            data._as_float_array(bad, "values")
    assert data._as_float_array([], "values").size == 0  # left to its callers to refuse


@pytest.mark.parametrize("curve", [lambda b, v: StepCurve(b, v, 0.0),
                                   lambda b, v: LocalFdrCurve(b, v, 1.0)],
                         ids=["StepCurve", "LocalFdrCurve"])
def test_curves_leave_caller_arrays_writeable(curve):
    # a curve freezes its own copy of a writeable array, as StatisticSet does
    breakpoints, values = np.array([1.0, 2.0]), np.array([0.1, 0.3])
    c = curve(breakpoints, values)
    assert breakpoints.flags.writeable and values.flags.writeable
    assert not (c.breakpoints.flags.writeable or c.values.flags.writeable)
    breakpoints[0], values[0] = 0.5, 0.2
    assert c.breakpoints.tolist() == [1.0, 2.0] and c.values.tolist() == [0.1, 0.3]


def test_jitter_breaks_ties_and_preserves_order():
    s = make_statistic_set([0.5, 0.1, 0.9], [0.5, 0.5, 2.0], subgroup={"t1": "g"},
                           paired_raw={"c1": (1.0, 2.0)}, truth={"t2": "null"})
    j = with_jitter(s, seed=7)
    assert (j.investigation_ids, j.nc_ids, j.orientation) == (s.investigation_ids, s.nc_ids, s.orientation)
    for name in ("subgroup", "paired_raw", "truth"):  # equal, but the jittered set's own copies
        assert getattr(j, name) == getattr(s, name) and getattr(j, name) is not getattr(s, name)
    pooled = np.concatenate([s.investigation, s.negative_controls])
    jittered = np.concatenate([j.investigation, j.negative_controls])
    assert np.unique(jittered).size == jittered.size
    # distinct values must keep their relative order
    for a in range(pooled.size):
        for b in range(pooled.size):
            if pooled[a] < pooled[b]:
                assert jittered[a] < jittered[b]
    j2 = with_jitter(s, seed=7)
    np.testing.assert_array_equal(j.investigation, j2.investigation)
    j3 = with_jitter(s, seed=8)
    assert not np.array_equal(j.investigation, j3.investigation)


def test_orientation_invariance_of_ranks():
    # applying a strictly increasing map on the original scale must not
    # change rank based p-values after normalization
    rng = np.random.default_rng(3)
    raw_t = rng.normal(size=20)
    raw_nc = rng.normal(size=50)
    s1 = make_statistic_set(raw_t, raw_nc, orientation="large_is_significant")
    s2 = make_statistic_set(
        np.expm1(raw_t), np.expm1(raw_nc), orientation="large_is_significant"
    )
    p1 = ranc_values(s1.investigation, s1.negative_controls)
    p2 = ranc_values(s2.investigation, s2.negative_controls)
    np.testing.assert_array_equal(p1, p2)


def test_statistic_set_requires_data():
    with pytest.raises(DataError):
        StatisticSet(investigation_ids=(), investigation=np.array([]), nc_ids=("c",), negative_controls=np.array([1.0]))
