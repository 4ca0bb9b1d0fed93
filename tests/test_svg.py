import xml.etree.ElementTree as ET

import numpy as np
import pytest

from nctest.errors import DataError
from nctest import svg


def _parse(text):
    assert text.startswith("<svg")
    assert text.endswith("</svg>\n")
    return ET.fromstring(text)


NS = "{http://www.w3.org/2000/svg}"


def test_histogram_is_valid_xml_with_desc():
    rng = np.random.default_rng(0)
    doc = svg.histogram_svg(rng.normal(size=500), bins=30, desc="meta: seed=0")
    root = _parse(doc)
    descs = root.findall(f"{NS}desc")
    assert len(descs) == 1
    assert descs[0].text == "meta: seed=0"


def test_histogram_bars_and_threshold():
    values = np.concatenate([np.zeros(10), np.ones(10)])
    doc = svg.histogram_svg(values, bins=4, thresholds=[(0.5, "tau")])
    root = _parse(doc)
    rects = [r for r in root.iter(f"{NS}rect") if r.get("fill") == svg.BAR_COLOR]
    assert len(rects) == 2
    red = [l for l in root.iter(f"{NS}line") if l.get("stroke") == svg.THRESHOLD_COLOR]
    assert len(red) == 1
    labels = [t.text for t in root.iter(f"{NS}text")]
    assert "tau" in labels


def test_histogram_bare_threshold_and_degenerate_data():
    doc = svg.histogram_svg([2.0, 2.0, 2.0], bins=5, thresholds=[(2.0, "")])
    root = _parse(doc)
    assert any(l.get("stroke") == svg.THRESHOLD_COLOR for l in root.iter(f"{NS}line"))


def test_histogram_deterministic():
    values = np.linspace(-1, 1, 77)
    assert svg.histogram_svg(values, bins=12) == svg.histogram_svg(values, bins=12)


def test_histogram_rejects_bad_input():
    with pytest.raises(DataError):
        svg.histogram_svg([])
    with pytest.raises(DataError):
        svg.histogram_svg([np.nan, 1.0])
    with pytest.raises(DataError):
        svg.histogram_svg([1.0], bins=0)


def test_step_curve_staircase_inside_frame():
    doc = svg.step_curve_svg([0.0, 1.0, 2.0], [0.1, 0.5, 0.3],
                             left_value=0.0, thresholds=[(1.0, "cut")],
                             ylabel="objective")
    root = _parse(doc)
    polys = list(root.iter(f"{NS}polyline"))
    assert len(polys) == 1
    coords = [tuple(map(float, pt.split(","))) for pt in polys[0].get("points").split()]
    # left extension plus one (start, end) pair per segment
    assert len(coords) == 8
    for x, y in coords:
        assert 0 <= x <= svg.WIDTH and 0 <= y <= svg.HEIGHT
    # staircase: consecutive points share an x or a y
    for (x0, y0), (x1, y1) in zip(coords, coords[1:]):
        assert np.isclose(x0, x1) or np.isclose(y0, y1)


# threshold lines at the plot edges fix the x range to (0, 568), so data x
# maps to canvas x + 56 and a breakpoint col + frac sits inside pixel column
# col + 56 whatever the rounding
_EDGES = [(0.0, ""), (568.0, "")]


def _full_staircase(bp, vals, left_value):
    """Points attribute of the staircase that draws every step."""
    ys = list(vals) + ([left_value] if left_value is not None else [])
    frame = svg._Frame((0.0, 568.0), (min(ys), max(ys)))
    xs = [frame.x(v) for v in list(bp) + [568.0]]
    steps = list(zip(xs, xs[1:], vals))
    if left_value is not None:
        steps.insert(0, (frame.x(0.0), xs[0], left_value))
    return " ".join(f"{svg._fmt(a)},{svg._fmt(frame.y(v))} {svg._fmt(b)},{svg._fmt(frame.y(v))}"
                    for a, b, v in steps)


def _points(points):
    return [tuple(map(float, pt.split(","))) for pt in points.split()]


def _drawn_points(doc):
    (poly,) = _parse(doc).iter(f"{NS}polyline")
    return poly.get("points")


def _by_column(points):
    columns = {}
    for x, y in points:
        columns.setdefault(int(x), []).append((x, y))
    return columns


def test_dense_step_curve_keeps_each_column():
    rng = np.random.default_rng(5)
    # dense columns, then columns of one to four steps
    columns = np.concatenate([rng.integers(30, 280, 20_000),
                              np.repeat(np.arange(300, 530), rng.integers(1, 5, 230))])
    bp = np.sort(columns + rng.uniform(0.1, 0.9, columns.size))
    vals = rng.normal(size=bp.size)
    drawn = _points(_drawn_points(svg.step_curve_svg(bp, vals, 0.0, _EDGES)))
    full = _points(_full_staircase(bp, vals, 0.0))
    assert len(drawn) < len(full) // 10
    # the left-value and end points are the full staircase's
    assert drawn[0] == full[0] and drawn[-1] == full[-1]
    drawn_columns, full_columns = _by_column(drawn[1:-1]), _by_column(full[1:-1])
    assert drawn_columns.keys() == full_columns.keys()
    for column, points in full_columns.items():
        kept = drawn_columns[column]
        ys = [y for _, y in points]
        assert (min(y for _, y in kept), max(y for _, y in kept)) == (min(ys), max(ys))
        # the join from the column before and the exit to the next are the full ones
        assert kept[:2] == points[:2] and kept[-1] == points[-1]
        assert len({x for x, _ in kept}) <= 4
        if len({x for x, _ in points}) <= 4:
            assert kept == points


@pytest.mark.parametrize("left_value", [0.0, None])
def test_step_curve_with_four_steps_per_column_draws_every_step(left_value):
    rng = np.random.default_rng(6)
    columns = np.repeat(np.arange(40, 500, 3), rng.integers(1, 5, 154))
    bp = np.sort(columns + rng.uniform(0.1, 0.9, columns.size))
    vals = rng.normal(size=bp.size)
    doc = svg.step_curve_svg(bp, vals, left_value, _EDGES)
    assert _drawn_points(doc) == _full_staircase(bp, vals, left_value)


def test_step_curve_rejects_mismatch():
    with pytest.raises(DataError):
        svg.step_curve_svg([0.0, 1.0], [0.1])
    with pytest.raises(DataError):
        svg.step_curve_svg([], [])


def test_qq_points_and_diagonal():
    qa = np.linspace(0, 1, 9)
    qb = qa**2
    doc = svg.qq_svg(qa, qb, title="subgroup A vs B")
    root = _parse(doc)
    circles = list(root.iter(f"{NS}circle"))
    assert len(circles) == 9
    dashed = [l for l in root.iter(f"{NS}line") if l.get("stroke-dasharray") == "3,3"]
    assert len(dashed) == 1


def test_qq_rejects_mismatch():
    with pytest.raises(DataError):
        svg.qq_svg([0.1, 0.2], [0.1])


def test_title_is_escaped():
    doc = svg.histogram_svg([1.0, 2.0], bins=2, title='a<b & "c"')
    _parse(doc)
    assert "a&lt;b &amp; &quot;c&quot;" in doc
