"""Self-contained SVG drawing for reports: histogram, step curve, QQ.

No plotting dependency; every figure is a single <svg> string with the
data mapped through a fixed margin box.  Numbers are formatted with %g
so identical inputs give identical bytes.  A step curve denser than four
steps per pixel column is thinned to four per column (first, last,
lowest, highest), the M4 reduction of Jugel et al. (VLDB 2014).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

WIDTH = 640
HEIGHT = 400
MARGIN = {"left": 56, "right": 16, "top": 34, "bottom": 42}
THRESHOLD_COLOR = "#c0392b"
BAR_COLOR = "#4878a8"
LINE_COLOR = "#2f2f2f"
AXIS_COLOR = "#444444"
FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    return format(float(x), ".6g")


def _tick_label(x: float) -> str:
    return format(float(x), ".4g")


class _Frame:
    """Maps data coordinates into the plot box of a fixed-size canvas."""

    def __init__(self, xlim, ylim):
        x0, x1 = float(xlim[0]), float(xlim[1])
        y0, y1 = float(ylim[0]), float(ylim[1])
        if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(y0) and math.isfinite(y1)):
            raise DataError("plot limits must be finite")
        if x1 <= x0:
            pad = 0.5 if x0 == x1 else 0.0
            x0, x1 = x0 - pad, x1 + pad
        if y1 <= y0:
            pad = 0.5 if y0 == y1 else 0.0
            y0, y1 = y0 - pad, y1 + pad
        self.xlim = (x0, x1)
        self.ylim = (y0, y1)
        self.box = (
            MARGIN["left"],
            MARGIN["top"],
            WIDTH - MARGIN["right"],
            HEIGHT - MARGIN["bottom"],
        )

    def x(self, v):
        """Canvas x of a number, or of each element of an array."""
        left, _, right, _ = self.box
        x0, x1 = self.xlim
        return left + (v - x0) / (x1 - x0) * (right - left)

    def y(self, v):
        """Canvas y of a number, or of each element of an array."""
        _, top, _, bottom = self.box
        y0, y1 = self.ylim
        return bottom - (v - y0) / (y1 - y0) * (bottom - top)

    def _ticks(self, lo: float, hi: float, count: int = 5):
        return np.linspace(lo, hi, count)

    def axes(self, title: str, xlabel: str, ylabel: str) -> list:
        left, top, right, bottom = self.box
        parts = [
            f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
            f'fill="none" stroke="{AXIS_COLOR}" stroke-width="1"/>'
        ]
        for v in self._ticks(*self.xlim):
            px = self.x(v)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}" y2="{bottom + 4}" '
                f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(px)}" y="{bottom + 16}" {FONT} font-size="11" '
                f'text-anchor="middle" fill="{AXIS_COLOR}">{_tick_label(v)}</text>'
            )
        for v in self._ticks(*self.ylim):
            py = self.y(v)
            parts.append(
                f'<line x1="{left - 4}" y1="{_fmt(py)}" x2="{left}" y2="{_fmt(py)}" '
                f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{left - 6}" y="{_fmt(py + 4)}" {FONT} font-size="11" '
                f'text-anchor="end" fill="{AXIS_COLOR}">{_tick_label(v)}</text>'
            )
        if title:
            parts.append(
                f'<text x="{(left + right) / 2}" y="{top - 12}" {FONT} font-size="14" '
                f'text-anchor="middle" fill="{LINE_COLOR}">{_escape(title)}</text>'
            )
        if xlabel:
            parts.append(
                f'<text x="{(left + right) / 2}" y="{HEIGHT - 8}" {FONT} font-size="12" '
                f'text-anchor="middle" fill="{AXIS_COLOR}">{_escape(xlabel)}</text>'
            )
        if ylabel:
            cx, cy = 14, (top + bottom) / 2
            parts.append(
                f'<text x="{cx}" y="{_fmt(cy)}" {FONT} font-size="12" text-anchor="middle" '
                f'fill="{AXIS_COLOR}" transform="rotate(-90 {cx} {_fmt(cy)})">{_escape(ylabel)}</text>'
            )
        return parts

    def vline(self, x: float, label: str = "") -> list:
        _, top, _, bottom = self.box
        px = self.x(x)
        parts = [
            f'<line x1="{_fmt(px)}" y1="{top}" x2="{_fmt(px)}" y2="{bottom}" '
            f'stroke="{THRESHOLD_COLOR}" stroke-width="1.5" stroke-dasharray="5,3"/>'
        ]
        if label:
            parts.append(
                f'<text x="{_fmt(px + 4)}" y="{top + 14}" {FONT} font-size="11" '
                f'fill="{THRESHOLD_COLOR}">{_escape(label)}</text>'
            )
        return parts


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _document(elements, desc: str) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f"<desc>{_escape(desc)}</desc>\n"
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


def _marks(thresholds) -> list:
    """Threshold lines as (x, label) pairs of a float and a string."""
    return [(float(t), str(label)) for t, label in thresholds]


def histogram_svg(values, bins: int = 40, thresholds=(), title: str = "",
                  xlabel: str = "value", desc: str = "") -> str:
    """Histogram with optional red threshold lines, as (x, label) pairs."""
    data = np.asarray(values, dtype=float).ravel()
    if data.size == 0:
        raise DataError("cannot draw a histogram of nothing")
    if not np.all(np.isfinite(data)):
        raise DataError("histogram values must be finite")
    if bins < 1:
        raise DataError("bins must be positive")
    counts, edges = np.histogram(data, bins=int(bins))
    marks = _marks(thresholds)
    xlo = min([edges[0]] + [t for t, _ in marks])
    xhi = max([edges[-1]] + [t for t, _ in marks])
    frame = _Frame((xlo, xhi), (0, max(1, counts.max())))
    parts = frame.axes(title, xlabel, "count")
    for k in range(counts.size):
        if counts[k] == 0:
            continue
        x0, x1 = frame.x(edges[k]), frame.x(edges[k + 1])
        y0, y1 = frame.y(counts[k]), frame.y(0)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{BAR_COLOR}" stroke="#ffffff" stroke-width="0.5"/>'
        )
    for t, label in marks:
        parts.extend(frame.vline(t, label))
    return _document(parts, desc)


def _column_steps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the steps drawn when each 1-px canvas column keeps four.

    x is nondecreasing.  Each column keeps the first, last, lowest and
    highest of the steps that start in it, so the drawn line keeps the
    column's vertical extent and its joins to the neighbouring columns;
    a column with at most four steps keeps all of them.
    """
    column = np.floor(x)
    first = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    sizes = np.diff(np.append(first, x.size))
    owner = np.repeat(np.arange(first.size), sizes)
    keep = np.repeat(sizes <= 4, sizes)
    keep[first] = True
    keep[first + sizes - 1] = True
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(y == extreme.reduceat(y, first)[owner])
        # the first hit in each column
        keep[hits[np.r_[True, owner[hits[1:]] != owner[hits[:-1]]]]] = True
    return np.flatnonzero(keep)


def step_curve_svg(breakpoints, values, left_value=None, thresholds=(),
                   title: str = "", xlabel: str = "t", ylabel: str = "",
                   desc: str = "") -> str:
    """Piecewise-constant curve drawn as a staircase.

    values[k] applies from breakpoints[k] onward; left_value, when
    given, extends a flat segment before the first breakpoint.  A
    1-px canvas column that holds more than four steps draws only its
    first, last, lowest and highest step (each then runs on to the
    next step drawn), so a dense curve keeps every column's vertical
    extent at a few vertices per column; sparser curves draw every step.
    """
    bp = np.asarray(breakpoints, dtype=float).ravel()
    vals = np.asarray(values, dtype=float).ravel()
    if bp.size == 0 or bp.size != vals.size:
        raise DataError("step curve needs equal, nonempty breakpoints and values")
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
        raise DataError("step curve points must be finite")
    marks = _marks(thresholds)
    span = bp[-1] - bp[0] if bp.size > 1 else 1.0
    pad = 0.05 * span
    xlo = min([bp[0] - pad] + [t for t, _ in marks])
    xhi = max([bp[-1] + pad] + [t for t, _ in marks])
    # the first lowest and highest value, as min and max of the whole list
    # pick them, so a tie of -0.0 and 0.0 keeps the same sign
    ys = [vals[vals.argmin()], vals[vals.argmax()]] + ([left_value] if left_value is not None else [])
    frame = _Frame((xlo, xhi), (min(ys), max(ys)))
    parts = frame.axes(title, xlabel, ylabel)
    x, y = frame.x(bp), frame.y(vals)
    kept = _column_steps(x, y)
    # the staircase visits each x and each y twice, so each is formatted once
    px = [_fmt(v) for v in np.append(x[kept], frame.x(xhi)).tolist()]
    py = [_fmt(v) for v in y[kept].tolist()]
    if left_value is not None:
        px.insert(0, _fmt(frame.x(xlo)))
        py.insert(0, _fmt(frame.y(float(left_value))))
    path = " ".join([f"{a},{y} {b},{y}" for a, b, y in zip(px, px[1:], py)])
    parts.append(
        f'<polyline points="{path}" fill="none" stroke="{LINE_COLOR}" stroke-width="1.5"/>'
    )
    for t, label in marks:
        parts.extend(frame.vline(t, label))
    return _document(parts, desc)


def qq_svg(quantiles_a, quantiles_b, title: str = "", xlabel: str = "",
           ylabel: str = "", desc: str = "") -> str:
    """Quantile-quantile scatter with the identity diagonal."""
    qa = np.asarray(quantiles_a, dtype=float).ravel()
    qb = np.asarray(quantiles_b, dtype=float).ravel()
    if qa.size == 0 or qa.size != qb.size:
        raise DataError("QQ plot needs equal, nonempty quantile vectors")
    if not (np.all(np.isfinite(qa)) and np.all(np.isfinite(qb))):
        raise DataError("QQ quantiles must be finite")
    lo = min(qa.min(), qb.min())
    hi = max(qa.max(), qb.max())
    frame = _Frame((lo, hi), (lo, hi))
    parts = frame.axes(title, xlabel, ylabel)
    parts.append(
        f'<line x1="{_fmt(frame.x(lo))}" y1="{_fmt(frame.y(lo))}" '
        f'x2="{_fmt(frame.x(hi))}" y2="{_fmt(frame.y(hi))}" '
        f'stroke="#999999" stroke-width="1" stroke-dasharray="3,3"/>'
    )
    for x, y in zip(qa, qb):
        parts.append(
            f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" r="3" '
            f'fill="{BAR_COLOR}" fill-opacity="0.75"/>'
        )
    return _document(parts, desc)
