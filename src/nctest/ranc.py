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

import warnings
from dataclasses import dataclass

import numpy as np

from .data import StatisticSet, _frozen, _read_only
from .errors import DataError

PVALUE_KINDS = ("ranc", "modified_ranc", "parametric_null", "external")


@dataclass(frozen=True)
class PValueVector:
    """P-values aligned with investigation ids, small = evidence."""

    values: np.ndarray
    ids: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in PVALUE_KINDS:
            raise DataError(f"unknown p-value kind {self.kind!r}")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("p-value vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(arr) & (arr > 0) & (arr <= 1)):
            raise DataError("p-values must be finite and lie in (0, 1]")
        object.__setattr__(self, "values", _frozen(arr))
        object.__setattr__(self, "ids", tuple(self.ids))


def counts_at_or_below(nc_values, queries) -> np.ndarray:
    """#{j: nc_j <= t} for each query t, of any shape.  Ties count as below-or-equal.

    The controls must be one-dimensional.
    """
    nc = np.asarray(nc_values, dtype=float)
    if nc.ndim != 1:
        raise DataError("negative controls must be one-dimensional")
    return np.searchsorted(np.sort(nc), np.asarray(queries, dtype=float), side="right")


def ecdf_counts(statistics: StatisticSet, at=None):
    """Counts of both roles at or below each point t: (t, c, r).

    c[k] = #{j: nc_j <= t[k]} and r[k] = #{i: T_i <= t[k]}, the
    negative-control and investigation ECDFs times m and n.  t defaults
    to the distinct pooled values, found as np.unique finds them without
    the numpy.ma it loads: the roles concatenated in input order are
    sorted and the first value of each run is kept, which decides
    whether -0.0 or 0.0 stands for a tie.
    """
    inv, nc = statistics.investigation, statistics.negative_controls
    if at is None:
        t = np.sort(np.concatenate([inv, nc]))
        first = np.empty(t.shape, dtype=bool)
        first[:1] = True
        np.not_equal(t[1:], t[:-1], out=first[1:])
        t = t[first]
    else:
        t = np.asarray(at, dtype=float)
    return t, counts_at_or_below(nc, t), counts_at_or_below(inv, t)


def _rank_pvalues(counts, m, shift=1.0):
    # the package's one rank grid, (shift + counts) / (1 + m) capped at 1:
    # shift 1 is RANC, and with m = B draws the add-one Monte-Carlo p-value
    # (1 + #extreme) / (1 + B); shift 2 is the modified value.  The cap
    # binds only for shift 2; skipping it at shift 1 saves a copy of each
    # permutation mask block.
    p = (shift + counts) / (1.0 + m)
    return p if shift == 1.0 else np.minimum(p, 1.0)


def ranc_values(test_values, nc_values) -> np.ndarray:
    """Array form of the RANC p-value, (1 + #{nc <= T_i}) / (1 + m).

    The controls must be one-dimensional; the tests may have any shape.
    """
    return _rank_pvalues(counts_at_or_below(nc_values, test_values), np.size(nc_values))


def modified_ranc_values(test_values, nc_values) -> np.ndarray:
    """Array form of the modified p-value, min{(2 + #{nc <= T_i}) / (1 + m), 1}."""
    return _rank_pvalues(counts_at_or_below(nc_values, test_values), np.size(nc_values), 2.0)


def _pvalue_vector(statistics: StatisticSet, kind: str, shift: float) -> PValueVector:
    # one sort of the controls: right counts give the p-values, and a
    # left count below the right one flags an exact cross tie.  The tests
    # are searched in sorted order, which halves the time of each pass at
    # 1e6 rows, and the counts are scattered back to the input order.
    nc_sorted = np.sort(statistics.negative_controls)
    order = np.argsort(statistics.investigation)
    queries = statistics.investigation[order]
    below_sorted = np.searchsorted(nc_sorted, queries, side="right")
    strictly = np.searchsorted(nc_sorted, queries, side="left")
    tied = int(np.count_nonzero(below_sorted > strictly))
    below = np.empty_like(below_sorted)
    below[order] = below_sorted
    if tied:
        warnings.warn(
            f"{tied} investigation value(s) exactly tie a negative control; "
            "ties counted as below-or-equal (use with_jitter for a random break)",
            RuntimeWarning, stacklevel=3,  # points at the caller of ranc_pvalues
        )
    return PValueVector(
        values=_read_only(_rank_pvalues(below, statistics.m, shift)),
        ids=statistics.investigation_ids,
        kind=kind,
    )


def ranc_pvalues(statistics: StatisticSet) -> PValueVector:
    """RANC p-values for every investigation statistic.

    Order preserving: T_i <= T_k implies p_i <= p_k.  Each value lies on
    the grid {1/(m+1), ..., 1}.  Exact cross ties are counted as
    below-or-equal, and a RuntimeWarning gives their number.
    """
    return _pvalue_vector(statistics, "ranc", 1.0)


def modified_ranc_pvalues(statistics: StatisticSet) -> PValueVector:
    """Modified RANC p-values, one grid step larger and capped at 1."""
    return _pvalue_vector(statistics, "modified_ranc", 2.0)
