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
