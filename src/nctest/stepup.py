"""Empirical-process FDR estimation from negative controls.

For a threshold t, the number of false rejections among the statistics
under investigation is estimated from how many negative controls fall
below t.  With R(t) rejections and V_nc(t) controls at or below t, the
estimated FDR is

    FDRhat_lambda(t) = pi_hat(lambda) * n * (V_nc(t) + 2)
                       / ((m + 1) * max(R(t), 1)),

and the step-up threshold is the largest t not exceeding lambda whose
estimated FDR stays at or below the target q.

lambda and the reported threshold live on the rank scale: every
statistic is replaced by its value under the negative-control ECDF, so
the procedure is invariant under monotone transformations of the data.
With lambda = 1 the procedure coincides exactly with Benjamini-Hochberg
applied to the modified rank based p-values.

The threshold, pi_hat and the FDR curve are all read from one
ranc.ecdf_counts table (t, c, r): a row's rank is (1 + c) / (1 + m),
the candidates are the counts c at which a test sits, and R at a
candidate is r at the last row with that count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import float_list
from .data import StatisticSet, _frozen
from .errors import DataError
from .procedures import _check_level, _step_prefix, bh
from .ranc import _rank_pvalues, ecdf_counts, modified_ranc_pvalues

__all__ = [
    "StepCurve",
    "FdrStepupResult",
    "pi_hat",
    "fdr_hat",
    "stepup_threshold",
    "bh_equivalence_check",
]


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous piecewise-constant function.

    values[k] applies on [breakpoints[k], breakpoints[k+1]);
    left_value applies below the first breakpoint.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    left_value: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.size != vals.size:
            raise DataError("breakpoints and values must have equal length")
        if bp.size == 0:
            raise DataError("a step curve needs at least one breakpoint")
        if not (np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0)):
            raise DataError("breakpoints must be finite and strictly increasing")
        if not (np.all(np.isfinite(vals)) and np.isfinite(self.left_value)):
            raise DataError("step curve values must be finite")
        object.__setattr__(self, "breakpoints", _frozen(bp))
        object.__setattr__(self, "values", _frozen(vals))

    def value_at(self, t):
        """Evaluate the curve, scalar in scalar out."""
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        result = np.where(idx < 0, self.left_value, self.values[np.maximum(idx, 0)])
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(result)
        return result

    def to_dict(self) -> dict:
        return {
            "breakpoints": float_list(self.breakpoints),
            "values": float_list(self.values),
            "left_value": float(self.left_value),
        }


@dataclass(frozen=True, eq=False)
class FdrStepupResult:
    """Threshold and rejections of the FDR step-up rule.

    tau is the rank-scale threshold (a p-value cutoff in (0,1], None if
    nothing is rejected); tau_statistic is the corresponding raw
    statistic cutoff on the internal scale.  rejected_positions index
    ids, the investigation ids; rejected presents them as ids.
    fdr_curve is the estimated FDR as a function of the raw statistic
    threshold.
    """

    tau: float | None
    tau_statistic: float | None
    ids: tuple = field(repr=False)
    rejected_positions: np.ndarray = field(repr=False)
    pi_hat: float
    lam: float
    q: float
    fdr_curve: StepCurve | None

    @property
    def n_rejected(self) -> int:
        return self.rejected_positions.size

    @cached_property
    def rejected(self) -> frozenset:
        return frozenset(map(self.ids.__getitem__, self.rejected_positions.tolist()))

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "tau_statistic": self.tau_statistic,
            "pi_hat": self.pi_hat if np.isfinite(self.pi_hat) else "infinite",
            "lambda": self.lam,
            "q": self.q,
            "n_rejected": self.n_rejected,
            "rejected_ids": sorted(self.rejected),
            "fdr_curve": self.fdr_curve.to_dict() if self.fdr_curve else None,
        }


def _check_lambda(lam: float):
    if not (0 < lam <= 1):
        raise DataError("lambda must lie in (0, 1]")


def _rank_table(statistics: StatisticSet):
    """ecdf_counts with the rank (1 + c) / (1 + m) of each row, on ranc's grid.

    A statistic's rank is the rank of its row, and the rank grows with
    c, so the rows at or below any lambda form a prefix of the table.
    """
    t, c, r = ecdf_counts(statistics)
    return t, c, r, _rank_pvalues(c, statistics.m)


def _pi_hat(n, m, c, r, rank, lam):
    if lam == 1.0:
        return 1.0
    # the last row of the prefix with rank <= lam counts R and V_nc there
    k = int(np.searchsorted(rank, lam, side="right"))
    r_lam, v_lam = (int(r[k - 1]), int(c[k - 1])) if k else (0, 0)
    if v_lam >= m:
        return float("inf")
    return (n + 1 - r_lam) / n * (m + 1) / (m - v_lam)


def pi_hat(statistics: StatisticSet, lam: float) -> float:
    """Estimated proportion of true nulls among the investigation.

    Exactly 1 when lam = 1; otherwise
    (n + 1 - R(lambda)) / n * (m + 1) / (m - V_nc(lambda)) on the rank
    scale.  Not capped at 1.  Returns +inf if every control sits at or
    below lambda, which cannot happen on the rank scale but is kept as
    a guard for degenerate inputs.
    """
    _check_lambda(lam)
    _, c, r, rank = _rank_table(statistics)
    return _pi_hat(statistics.n, statistics.m, c, r, rank, lam)


def _fdr_hat(pi, n, m, v, r):
    # pi * n * (V + 2) / ((m + 1) * max(R, 1)); the stepup CSV prints
    # the curve, so this operation order is part of the output
    return pi * n * (v + 2.0) / ((m + 1.0) * np.maximum(r, 1))


def fdr_hat(statistics: StatisticSet, lam: float, t: float) -> float:
    """Estimated FDR of the rule "reject every T_i <= t".

    t is on the internal statistic scale (NaN refused); lam on the rank
    scale.  May exceed 1; propagates an infinite pi_hat.
    """
    if np.isnan(t):
        raise DataError("t must not be NaN")
    _, v_t, r_t = ecdf_counts(statistics, [t])
    return float(_fdr_hat(pi_hat(statistics, lam), statistics.n, statistics.m, v_t, r_t)[0])


def stepup_threshold(statistics: StatisticSet, lam: float = 1.0, q: float = 0.1) -> FdrStepupResult:
    """Largest rank-scale threshold tau <= lambda with estimated FDR <= q.

    Candidate thresholds are the observed statistics: the estimated FDR
    is piecewise constant between them, so the supremum over the
    continuum is attained on that grid.  Rejects {i: rank(T_i) <= tau};
    with no qualifying candidate the rejection set is empty and tau is
    None.  The exact estimated FDR at the continuum supremum may exceed
    q due to discreteness; at the reported tau it never does.
    """
    _check_lambda(lam)
    _check_level(q, "q")
    n, m = statistics.n, statistics.m
    t, c, r, rank = _rank_table(statistics)
    pi = _pi_hat(n, m, c, r, rank, lam)

    # the last row of each run of equal c holds R at that rank; a run
    # whose R grows holds a test, so its c is a candidate count
    ends = np.flatnonzero(np.diff(c, append=m + 1))
    ends = ends[(np.diff(r[ends], prepend=0) > 0) & (rank[ends] <= lam)]
    tau = tau_stat = None
    rejected = np.empty(0, dtype=np.intp)
    if ends.size and np.isfinite(pi):
        k = _step_prefix(_fdr_hat(pi, n, m, c[ends], r[ends]), q, step_up=True)
        if k:
            tau = float(rank[ends[k - 1]])
            rejected = np.flatnonzero(statistics.investigation <= t[ends[k - 1]])
            tau_stat = float(np.max(statistics.investigation[rejected]))

    curve = None
    if np.isfinite(pi):
        left = float(_fdr_hat(pi, n, m, 0, 0))
        curve = StepCurve(t, _fdr_hat(pi, n, m, c, r), left)

    return FdrStepupResult(
        tau=tau,
        tau_statistic=tau_stat,
        ids=statistics.investigation_ids,
        rejected_positions=rejected,
        pi_hat=pi,
        lam=lam,
        q=q,
        fdr_curve=curve,
    )


def bh_equivalence_check(statistics: StatisticSet, q: float) -> bool:
    """True iff the lambda=1 step-up rejects exactly the BH rejections
    computed from the modified rank based p-values.  Always true."""
    stepup = stepup_threshold(statistics, lam=1.0, q=q)
    benjamini = bh(modified_ranc_pvalues(statistics), q)
    return stepup.rejected == benjamini.rejected
