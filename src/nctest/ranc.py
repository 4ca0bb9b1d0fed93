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

from ._util import distinct
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


def _counts(sorted_values, queries):
    """#{v in sorted_values: v <= t} for each query t, in the queries' shape: the one rank-count kernel."""
    q = np.asarray(queries)
    order = np.argsort(q, axis=None)  # sorted queries search several times faster at 1e6 rows
    counts = np.empty(q.size, dtype=np.intp)
    counts[order] = np.searchsorted(sorted_values, q.ravel()[order], side="right")
    return counts.reshape(q.shape)[()]


def counts_at_or_below(nc_values, queries) -> np.ndarray:
    """#{j: nc_j <= t} for each query t, of any shape.  Ties count as below-or-equal.

    The controls must be one-dimensional.
    """
    nc = np.asarray(nc_values, dtype=float)
    if nc.ndim != 1:
        raise DataError("negative controls must be one-dimensional")
    return _counts(np.sort(nc), np.asarray(queries, dtype=float))


def ecdf_counts(statistics: StatisticSet, at=None):
    """Counts of both roles at or below each point t: (t, c, r).

    c[k] = #{j: nc_j <= t[k]} and r[k] = #{i: T_i <= t[k]}, the
    negative-control and investigation ECDFs times m and n.  t defaults
    to the distinct pooled values, _util.distinct of the roles
    concatenated in input order.
    """
    inv, nc = statistics.investigation, statistics.negative_controls
    if at is None:
        t, pooled = distinct(np.concatenate([inv, nc]))
        c = counts_at_or_below(nc, t)
        return t, c, pooled - c
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
    # one sort of the controls and one count; a test ties a control
    # exactly when the largest control at or below it equals it
    nc_sorted = np.sort(statistics.negative_controls)
    below = _counts(nc_sorted, statistics.investigation)
    tied = int(np.count_nonzero(nc_sorted[np.maximum(below - 1, 0)] == statistics.investigation))
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
