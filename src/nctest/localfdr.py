"""Local false discovery rate thresholding from negative controls.

The rejection threshold at weight lam minimizes the weighted ECDF
difference

    objective(t) = F0m(t) - lam * Fn(t),

where F0m is the plain ECDF of the m negative controls and Fn the plain
ECDF of the n investigation statistics.  With lam = q/pi this estimates
the largest threshold whose local FDR stays at or below q.  Both the
direct scan and the order-statistic formulation reduce to comparing the
integer pair (c, r) = (#controls <= t, #investigations <= t) through
one shared score

    score = c*n - lam * (m*r)  =  n*m * objective(t),

so the two routes agree bit for bit and are cross-checked in tests.

The monotone local-FDR curve inverts the threshold map exactly: the
threshold as a function of lam is the lower envelope of the candidate
lines score_k(lam), so its switch points are computed as exact line
crossings instead of a grid sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import float_list
from .data import StatisticSet
from .errors import DataError
from .procedures import _check_level
from .ranc import ecdf_counts, ranc_values
from .stepup import StepCurve

__all__ = [
    "LocalFdrResult",
    "LocalFdrCurve",
    "cdf_threshold",
    "cdf_threshold_orderstat",
    "localfdr_curve",
    "bayes_risk_curves",
    "pdf_localfdr_baseline",
    "neighborhood_threshold",
]


@dataclass(frozen=True, eq=False)
class LocalFdrResult:
    """Threshold chosen by minimizing the weighted ECDF difference.

    tau_hat is an observed investigation statistic, or None when the
    minimum sits at the below-everything boundary (reject nothing).
    candidates holds the scanned thresholds in scan order and objective
    the weighted ECDF difference at each; argmin_index counts the
    boundary as 0, so a threshold is candidates[argmin_index - 1].
    rejected_positions index ids, the investigation ids.  rejected and
    objective_at_candidates present these as ids and (t, objective)
    pairs, with (None, 0.0) for the boundary first; to_dict gives the
    same pairs as two equal-length columns, "t" and "objective".
    """

    tau_hat: float | None
    lam: float
    ids: tuple = field(repr=False)
    rejected_positions: np.ndarray = field(repr=False)
    candidates: np.ndarray = field(repr=False)
    objective: np.ndarray = field(repr=False)
    argmin_index: int
    q: float | None = None
    pi: float | None = None

    @property
    def n_rejected(self) -> int:
        return self.rejected_positions.size

    @cached_property
    def rejected(self) -> frozenset:
        return frozenset(map(self.ids.__getitem__, self.rejected_positions.tolist()))

    @cached_property
    def objective_at_candidates(self) -> tuple:
        return tuple(zip([None] + self.candidates.tolist(), [0.0] + self.objective.tolist()))

    def to_dict(self) -> dict:
        return {
            "tau_hat": self.tau_hat,
            "lambda": self.lam,
            "q": self.q,
            "pi": self.pi,
            "n_rejected": self.n_rejected,
            "rejected_ids": sorted(self.rejected),
            "argmin_index": self.argmin_index,
            "objective_at_candidates": {
                "t": [None] + self.candidates.tolist(),
                "objective": [0.0] + self.objective.tolist(),
            },
        }


@dataclass(frozen=True)
class LocalFdrCurve:
    """Monotone local-FDR curve q_hat(t), stored piecewise constant.

    values[k] applies on (breakpoints[k-1], breakpoints[k]], and
    values[0] below the first breakpoint, making the curve
    left-continuous and nondecreasing with jumps only at observed
    investigation statistics.  Beyond the last breakpoint no level in
    (0, pi] rejects, so value_at returns NaN there.  A value of 0
    marks statistics below every negative control: any positive level
    already rejects them.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    pi: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.size != vals.size:
            raise DataError("breakpoints and values must have equal length")
        if not (np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0)):
            raise DataError("breakpoints must be finite and strictly increasing")
        if not (np.all(np.isfinite(vals)) and np.all(np.diff(vals) >= 0)):
            raise DataError("local-FDR curve values must be finite and nondecreasing")
        bp.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def value_at(self, t):
        """Left-continuous evaluation, NaN beyond the largest breakpoint."""
        if self.breakpoints.size == 0:
            result = np.full(np.shape(t), np.nan)
        else:
            idx = np.searchsorted(self.breakpoints, t, side="left")
            inside = idx < self.breakpoints.size
            result = np.where(inside, self.values[np.minimum(idx, self.values.size - 1)], np.nan)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(result)
        return result

    def to_dict(self) -> dict:
        return {
            "breakpoints": float_list(self.breakpoints),
            "values": float_list(self.values),
            "pi": self.pi,
            "continuity": "left",
        }


def _check_lam(lam: float):
    if not (lam >= 0 and np.isfinite(lam)):
        raise DataError("lambda must be finite and nonnegative")


def _check_levels(q: float | None = None, pi: float | None = None):
    """Reject q outside (0, 1) and pi outside (0, 1]; None is not checked."""
    if q is not None:
        _check_level(q, "q")
    if pi is not None and not 0 < pi <= 1:
        raise DataError("pi must lie in (0, 1]")


def _scored(statistics, lam, c, r):
    """Scores of the candidates and their objective values."""
    n, m = statistics.n, statistics.m
    # scores are n*m times the objective; one product with lam and one
    # subtraction so both threshold routes round identically
    scores = c.astype(float) * float(n) - lam * (float(m) * r.astype(float))
    return scores, scores / (n * m)


def _result_at(statistics, lam, cand_t, objective, k, q=None, pi=None):
    """The result with threshold at candidate k, counted from 1; 0 rejects nothing."""
    tau, rejected = None, np.empty(0, dtype=np.intp)
    if k:
        tau = float(cand_t[k - 1])
        rejected = np.flatnonzero(statistics.investigation <= tau)
    return LocalFdrResult(
        tau_hat=tau,
        lam=lam,
        ids=statistics.investigation_ids,
        rejected_positions=rejected,
        candidates=cand_t,
        objective=objective,
        argmin_index=k,
        q=q,
        pi=pi,
    )


def _result_from_candidates(statistics, lam, cand_t, c, r, q, pi):
    scores, objective = _scored(statistics, lam, c, r)
    # first minimum: ties go to the smallest t
    k = int(np.argmin(np.concatenate([[0.0], scores])))
    return _result_at(statistics, lam, cand_t, objective, k, q, pi)


def cdf_threshold(statistics: StatisticSet, lam: float, q: float | None = None, pi: float | None = None) -> LocalFdrResult:
    """Minimize F0m(t) - lam*Fn(t) over every observed statistic.

    Candidates are the pooled observed values of both roles plus the
    below-everything boundary; ties break toward the smallest t, so the
    reported threshold is the most conservative minimizer.  lam = 0 is
    allowed and always yields the empty rejection.  q and pi, when
    given, are recorded in the result and must lie in (0, 1) and
    (0, 1].
    """
    _check_levels(q, pi)
    _check_lam(lam)
    cand_t, c, r = ecdf_counts(statistics)
    return _result_from_candidates(statistics, lam, cand_t, c, r, q, pi)


def cdf_threshold_orderstat(statistics: StatisticSet, lam: float, q: float | None = None, pi: float | None = None) -> LocalFdrResult:
    """Same threshold via the rank based p-values of the order statistics.

    Scans only the investigation order statistics: the count of
    controls below T_(i) is recovered from the p-value p_(i) as
    (m+1)*p_(i) - 1, and the candidate score is compared through the
    same kernel as cdf_threshold, so the rejected sets always agree.
    """
    _check_levels(q, pi)
    _check_lam(lam)
    m = statistics.m
    pvals = ranc_values(statistics.investigation, statistics.negative_controls)
    order = np.argsort(statistics.investigation, kind="stable")
    t_sorted = statistics.investigation[order]
    p_sorted = pvals[order]
    cand_t = np.unique(t_sorted)
    # rank r of each distinct value = count of statistics at or below it
    r = np.searchsorted(t_sorted, cand_t, side="right")
    # controls at or below, recovered from the p-value at each distinct value
    p_at = p_sorted[r - 1]
    c = np.rint(p_at * (m + 1) - 1.0).astype(int)
    return _result_from_candidates(statistics, lam, cand_t, c, r, q, pi)


def localfdr_curve(statistics: StatisticSet, pi: float) -> LocalFdrCurve:
    """Smallest level q at which each statistic would be rejected.

    q_hat(t) = inf{q in (0, pi]: threshold(q/pi) >= t}.  The threshold
    as a function of lam is the lower envelope of the candidate score
    lines, so the curve's switch points are exact line crossings; no
    grid is involved.
    """
    _check_levels(pi=pi)
    n, m = statistics.n, statistics.m
    cand_t, c, r = ecdf_counts(statistics, np.unique(statistics.investigation))
    # lines score_k(lam) = a_k - b_k*lam; the boundary is the zero line
    a = c.astype(float) * n
    b = r.astype(float) * m
    # lower envelope, processing in increasing slope magnitude b
    stack = [(-1, 0.0)]  # (candidate index, lam at which it becomes optimal)

    def crossing(i, j):
        ai = 0.0 if i < 0 else a[i]
        bi = 0.0 if i < 0 else b[i]
        return (a[j] - ai) / (b[j] - bi)

    for k in range(cand_t.size):
        while stack:
            top, top_in = stack[-1]
            lam_in = crossing(top, k)
            if lam_in <= top_in:
                stack.pop()
            else:
                break
        if stack:
            stack.append((k, crossing(stack[-1][0], k)))
        else:
            stack.append((k, 0.0))

    breakpoints, values = [], []
    for k, lam_in in stack:
        if k < 0 or lam_in >= 1.0:
            continue
        breakpoints.append(cand_t[k])
        values.append(pi * lam_in)
    return LocalFdrCurve(np.asarray(breakpoints), np.asarray(values), pi)


def neighborhood_threshold(statistics: StatisticSet, lam: float, h: float) -> list:
    """All local minimizers of the objective within radius h.

    A candidate t qualifies when its objective does not exceed the
    objective of any observed statistic in [t-h, t+h].  With a
    monotone likelihood ratio there is exactly one such point, the
    global minimizer; non-monotone alternatives can produce several.
    """
    _check_lam(lam)
    if not (h > 0):
        raise DataError("h must be positive")
    cand_t, c, r = ecdf_counts(statistics)
    scores, objective = _scored(statistics, lam, c, r)
    # minima can only sit at investigation statistics, where r steps up
    at_test = np.flatnonzero(np.diff(r, prepend=0) > 0)
    lo = np.searchsorted(cand_t, cand_t[at_test] - h, side="left")
    hi = np.searchsorted(cand_t, cand_t[at_test] + h, side="right")
    minima = at_test[scores[at_test] <= _range_min(scores, lo, hi)]
    return [_result_at(statistics, lam, cand_t, objective, int(k) + 1) for k in minima]


def _range_min(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(values[lo[k]:hi[k]]) for every k; each range must be nonempty.

    Row j of a sparse table holds the minima of the windows of length
    2**j, so each range is covered by two windows of one row.
    """
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(length))
    n = values.size
    table = np.full((int(level.max()) + 1, n), np.inf)
    table[0] = values
    for j in range(1, table.shape[0]):
        half = 1 << (j - 1)
        table[j, : n - 2 * half + 1] = np.minimum(
            table[j - 1, : n - 2 * half + 1], table[j - 1, half : n - half + 1]
        )
    return np.minimum(table[level, lo], table[level, hi - (1 << level)])


def bayes_risk_curves(source, q: float, pi: float, grid=None):
    """Weighted misclassification error curves.

    Returns (type1, type2, risk) step curves with
    type1(t) = (1-q) * F0(t), type2(t) = q*(1-pi)/pi * (1 - F1(t)),
    and risk their sum, which is the weighted risk up to a constant.

    source is either a StatisticSet (F0 from the controls, F1 backed
    out of the mixture ECDF) or a pair (F0, F1) of vectorized CDF
    callables, in which case grid is required.
    """
    _check_levels(q, pi)
    if isinstance(source, StatisticSet):
        grid, c, r = ecdf_counts(source, grid)
        f0 = c / source.m
        fn = r / source.n
        f1 = (fn - pi * f0) / (1 - pi) if pi < 1 else np.zeros_like(grid)
    else:
        cdf0, cdf1 = source
        if grid is None:
            raise DataError("population mode requires an explicit grid")
        grid = np.asarray(grid, dtype=float)
        f0 = np.asarray(cdf0(grid), dtype=float)
        f1 = np.asarray(cdf1(grid), dtype=float)
    type1 = (1 - q) * f0
    weight2 = q * (1 - pi) / pi
    type2 = weight2 * (1.0 - f1)
    risk = type1 + type2
    return (
        StepCurve(grid, type1, 0.0),
        StepCurve(grid, type2, weight2),
        StepCurve(grid, risk, weight2),
    )


def pdf_localfdr_baseline(statistics: StatisticSet, pi: float) -> StepCurve:
    """Density-ratio local-FDR baseline pi * f0_hat(t) / f_hat(t).

    Gaussian kernel density estimates with Silverman's bandwidth, on a
    uniform grid of 512 points spanning the pooled data.  Unlike the
    CDF threshold this is not invariant to monotone transforms of the
    data; it exists as the comparison baseline.  Grid points where the
    mixture density estimate vanishes are clipped to a large sentinel.
    """
    if not (0 <= pi <= 1):
        raise DataError("pi must lie in [0, 1]")
    if statistics.m < 2 or statistics.n < 2:
        raise DataError("kernel density estimation needs at least two points per role")
    from scipy.stats import gaussian_kde

    f0_hat = gaussian_kde(statistics.negative_controls, bw_method="silverman")
    f_hat = gaussian_kde(statistics.investigation, bw_method="silverman")
    pooled = np.concatenate([statistics.investigation, statistics.negative_controls])
    grid = np.linspace(pooled.min(), pooled.max(), 512)
    dens0 = f0_hat(grid)
    dens = f_hat(grid)
    sentinel = 1e6
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pi * dens0 / dens
    bad = ~np.isfinite(ratio)
    if bad.any():
        warnings.warn(
            f"mixture density vanished at {int(bad.sum())} grid points; clipped",
            RuntimeWarning,
        )
        ratio[bad] = sentinel
    ratio = np.minimum(ratio, sentinel)
    return StepCurve(grid, ratio, float(ratio[0]))
