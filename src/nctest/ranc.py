"""Rank-among-negative-controls p-values.

The negative controls define an empirical null distribution.  The
p-value of an investigation statistic T is its normalized rank among
the controls,

    p = (1 + #{controls <= T}) / (1 + m),

which is a valid p-value whenever the controls are exchangeable with
the statistic under its null.  The modified variant adds one to the
numerator and caps at 1; it is what the FDR step-up procedure of this
package implicitly uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StatisticSet
from .errors import DataError

PVALUE_KINDS = ("ranc", "modified_ranc", "parametric_null", "external")


@dataclass(frozen=True)
class PValueVector:
    """P-values aligned with investigation ids, small = evidence."""

    values: np.ndarray
    ids: tuple
    kind: str
    m: int | None = None
    warnings: tuple = ()

    def __post_init__(self):
        if self.kind not in PVALUE_KINDS:
            raise DataError(f"unknown p-value kind {self.kind!r}")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("p-value vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(arr) & (arr > 0) & (arr <= 1)):
            raise DataError("p-values must be finite and lie in (0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "ids", tuple(self.ids))


def counts_at_or_below(nc_values, queries) -> np.ndarray:
    """#{j: nc_j <= t} for each query t.  Ties count as below-or-equal.

    Two-dimensional controls are taken row by row: row r of queries is
    counted against row r of nc_values.
    """
    nc_sorted = np.sort(np.asarray(nc_values, dtype=float), axis=-1)
    queries = np.asarray(queries, dtype=float)
    if nc_sorted.ndim == 1:
        return np.searchsorted(nc_sorted, queries, side="right")
    counts = np.empty(queries.shape, dtype=np.intp)
    for r, row in enumerate(nc_sorted):
        counts[r] = np.searchsorted(row, queries[r], side="right")
    return counts


def empirical_null_cdf(nc_values, t):
    """ECDF of the controls extended by a point at minus infinity.

    Returns (1 + #{j: nc_j <= t}) / (1 + m), a right-continuous step
    function with values in (0, 1].  The implicit point below every
    control keeps the result strictly positive.  Accepts scalar or
    array t.
    """
    m = np.size(nc_values)
    if m < 1:
        raise DataError("need at least one negative control")
    return (1.0 + counts_at_or_below(nc_values, t)) / (1.0 + m)


def ranc_values(test_values, nc_values) -> np.ndarray:
    """Array form of the RANC p-value, (1 + #{nc <= T_i}) / (1 + m).

    Two-dimensional inputs give one vector of p-values per row.
    """
    nc = np.asarray(nc_values, dtype=float)
    return (1.0 + counts_at_or_below(nc, test_values)) / (1.0 + nc.shape[-1])


def modified_ranc_values(test_values, nc_values) -> np.ndarray:
    """Array form of the modified p-value, min{(2 + #{nc <= T_i}) / (1 + m), 1}."""
    nc = np.asarray(nc_values, dtype=float)
    raw = (2.0 + counts_at_or_below(nc, test_values)) / (1.0 + nc.shape[-1])
    return np.minimum(raw, 1.0)


def _cross_tie_warning(statistics: StatisticSet) -> tuple:
    nc_sorted = np.sort(statistics.negative_controls)
    lo = np.searchsorted(nc_sorted, statistics.investigation, side="left")
    hi = np.searchsorted(nc_sorted, statistics.investigation, side="right")
    tied = int(np.sum(hi > lo))
    if tied:
        return (
            f"{tied} investigation value(s) exactly tie a negative control; "
            "ties counted as below-or-equal (use with_jitter for a random break)",
        )
    return ()


def ranc_pvalues(statistics: StatisticSet) -> PValueVector:
    """RANC p-values for every investigation statistic.

    Order preserving: T_i <= T_k implies p_i <= p_k.  Each value lies on
    the grid {1/(m+1), ..., 1}.  Exact cross ties are counted as
    below-or-equal and flagged in the result's warnings.
    """
    return PValueVector(
        values=ranc_values(statistics.investigation, statistics.negative_controls),
        ids=statistics.investigation_ids,
        kind="ranc",
        m=statistics.m,
        warnings=_cross_tie_warning(statistics),
    )


def modified_ranc_pvalues(statistics: StatisticSet) -> PValueVector:
    """Modified RANC p-values, one grid step larger and capped at 1."""
    return PValueVector(
        values=modified_ranc_values(statistics.investigation, statistics.negative_controls),
        ids=statistics.investigation_ids,
        kind="modified_ranc",
        m=statistics.m,
        warnings=_cross_tie_warning(statistics),
    )
