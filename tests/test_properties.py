"""Property tests of the input contract, generated with hypothesis."""

import csv
import io
import string

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nctest import load_csv  # noqa: E402

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
