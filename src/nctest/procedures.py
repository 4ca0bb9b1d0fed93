"""Classical multiple-testing procedures over a p-value vector.

All step-up and step-down procedures here sort the p-values once
(stable in (p, id) so ties are deterministic) and reject a prefix of
that order.  Each returns a RejectionResult whose audit view holds the
sorted p-values, the comparison boundary actually used and the id
order.  The audit is a library view only: the CLI's JSON leaves it
out, since the p-values by id and the parameters determine it.

The Fisher combination statistic is provided only to demonstrate its
miscalibration on rank based p-values; it assumes independent uniform
p-values, which rank based p-values are not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import check_integer, distinct, rep_rng
from .data import StatisticSet
from .errors import DataError
from .ranc import PValueVector, _rank_pvalues


def _checked_pvalues(p) -> np.ndarray:
    """Validated p-values; an array may hold one vector per last-axis row."""
    if isinstance(p, PValueVector):
        return np.asarray(p.values, dtype=float)
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DataError("need a non-empty p-value vector")
    if not np.all(np.isfinite(arr) & (arr > 0) & (arr <= 1)):
        raise DataError("p-values must be finite and lie in (0, 1]")
    return arr


def _pvalues_and_ids(p):
    """Accept a PValueVector or a bare array, yielding (values, ids)."""
    arr = _checked_pvalues(p)
    if arr.ndim != 1:
        raise DataError("need a one-dimensional p-value vector")
    ids = p.ids if isinstance(p, PValueVector) else (f"p{k}" for k in range(1, arr.size + 1))
    return arr, tuple(ids)


def _sorted_order(values: np.ndarray, ids):
    # stable order by (p, id) keeps tied results deterministic
    return np.lexsort((np.asarray(ids, dtype=object), values))


@dataclass(frozen=True, eq=False)
class RejectionResult:
    """Outcome of an individual-testing procedure.

    order lists positions into ids in rejection order, ascending in
    (p, id), and the first n_rejected of them are rejected.  threshold
    is the largest rejected p-value (None when nothing is rejected).
    rejected and audit present the arrays as ids and Python floats:
    audit holds the sorted p-values, the boundary vector the procedure
    compared against, and the id order used.  to_dict, the JSON form,
    leaves the audit out: it is the p-values sorted by (p, id), and the
    boundaries follow from the parameters.
    """

    ids: tuple = field(repr=False)
    order: np.ndarray = field(repr=False)
    sorted_pvalues: np.ndarray = field(repr=False)
    boundaries: np.ndarray = field(repr=False)
    n_rejected: int
    procedure: str
    parameters: dict

    @property
    def threshold(self) -> float | None:
        return float(self.sorted_pvalues[self.n_rejected - 1]) if self.n_rejected else None

    def _ordered_ids(self, stop=None) -> list:
        return list(map(self.ids.__getitem__, self.order[:stop].tolist()))

    @cached_property
    def rejected(self) -> frozenset:
        return frozenset(self._ordered_ids(self.n_rejected))

    @cached_property
    def audit(self) -> dict:
        return {
            "sorted_pvalues": tuple(self.sorted_pvalues.tolist()),
            "boundaries": tuple(self.boundaries.tolist()),
            "order": tuple(self._ordered_ids()),
        }

    def to_dict(self) -> dict:
        return {
            "procedure": self.procedure,
            "parameters": dict(self.parameters),
            "n_rejected": self.n_rejected,
            "threshold": self.threshold,
            "rejected_ids": self._ordered_ids(self.n_rejected),
        }


def _step_prefix(sorted_p: np.ndarray, boundaries, step_up: bool):
    """Size of the rejected prefix of each last-axis row of sorted_p.

    sorted_p holds p-values (or any statistic) in rejection order.
    Step-up: one past the last position with sorted_p <= boundaries, or 0.
    Step-down: the first position where that fails, or n if none does.
    """
    passing = sorted_p <= boundaries
    n = passing.shape[-1]
    if step_up:
        # j = 0 when the last position passes or none does; the last column tells which
        j = np.argmax(passing[..., ::-1], axis=-1)
        return np.where((j > 0) | passing[..., -1], n - j, 0)
    return np.where(passing.all(axis=-1), n, np.argmin(passing, axis=-1))


def _prefix_result(name, params, values, ids, boundaries, step_up) -> RejectionResult:
    order = _sorted_order(values, ids)
    sorted_p = values[order]
    return RejectionResult(
        ids=ids,
        order=order,
        sorted_pvalues=sorted_p,
        boundaries=np.asarray(boundaries, dtype=float),
        n_rejected=int(_step_prefix(sorted_p, boundaries, step_up)),
        procedure=name,
        parameters=params,
    )


def _check_level(value: float, name: str):
    if not (0 < value < 1):
        raise DataError(f"{name} must lie strictly between 0 and 1")


def _bh_boundaries(level: float, n: int) -> np.ndarray:
    """BH's boundaries k * level / n, k = 1..n; Simes' at level alpha."""
    return level * np.arange(1, n + 1) / n


def bonferroni_global(p, alpha: float) -> bool:
    """Global test: reject the intersection null iff min p <= alpha/n."""
    _check_level(alpha, "alpha")
    values, _ = _pvalues_and_ids(p)
    return bool(np.min(values) <= alpha / values.size)


def simes_global(p, alpha: float) -> bool:
    """Global test: reject iff p_(i) <= i*alpha/n for some i."""
    _check_level(alpha, "alpha")
    values, _ = _pvalues_and_ids(p)
    return bool(_step_prefix(np.sort(values), _bh_boundaries(alpha, values.size), step_up=True))


def holm(p, alpha: float) -> RejectionResult:
    """Step-down FWER control: reject while p_(i) <= alpha/(n-i+1)."""
    _check_level(alpha, "alpha")
    values, ids = _pvalues_and_ids(p)
    boundaries = alpha / (values.size - np.arange(values.size))
    return _prefix_result("holm", {"alpha": alpha}, values, ids, boundaries, step_up=False)


def hochberg(p, alpha: float) -> RejectionResult:
    """Step-up counterpart of Holm on the same boundaries."""
    _check_level(alpha, "alpha")
    values, ids = _pvalues_and_ids(p)
    boundaries = alpha / (values.size - np.arange(values.size))
    return _prefix_result("hochberg", {"alpha": alpha}, values, ids, boundaries, step_up=True)


def lehmann_romano(p, alpha: float, gamma: float) -> RejectionResult:
    """Step-down control of P(FDP > gamma) at level alpha.

    Boundary: p_(i) <= (floor(gamma*i)+1) * alpha / (n + floor(gamma*i) + 1 - i).
    """
    _check_level(alpha, "alpha")
    _check_level(gamma, "gamma")
    values, ids = _pvalues_and_ids(p)
    n = values.size
    i = np.arange(1, n + 1)
    g = np.floor(gamma * i)
    boundaries = (g + 1) * alpha / (n + g + 1 - i)
    return _prefix_result(
        "lehmann_romano", {"alpha": alpha, "gamma": gamma}, values, ids, boundaries, step_up=False
    )


def bh(p, q: float) -> RejectionResult:
    """Benjamini-Hochberg step-up: reject p_(1..k), k = max{i: p_(i) <= i*q/n}."""
    _check_level(q, "q")
    values, ids = _pvalues_and_ids(p)
    boundaries = _bh_boundaries(q, values.size)
    return _prefix_result("bh", {"q": q}, values, ids, boundaries, step_up=True)


def fisher_global_statistic(p):
    """Fisher's combination statistic, -2 * sum(log p), per last-axis row.

    Invalid as a chi-square test on rank based p-values; kept for the
    miscalibration demonstration.
    """
    values = _checked_pvalues(p)
    out = -2.0 * np.sum(np.log(values), axis=-1)
    return float(out) if values.ndim == 1 else out


def confusion_counts(result: RejectionResult, statistics: StatisticSet) -> dict:
    """Rejection outcome table against simulation ground truth."""
    nonnull = statistics.truth_mask()
    ids = statistics.investigation_ids
    rejected = np.array([i in result.rejected for i in ids])
    r = int(rejected.sum())
    v = int((rejected & ~nonnull).sum())
    s = int((rejected & nonnull).sum())
    n1 = int(nonnull.sum())
    return {
        "n_rejected": r,
        "false_rejections": v,
        "true_rejections": s,
        "n_null": int((~nonnull).sum()),
        "n_nonnull": n1,
        "fdp": v / max(r, 1),
        "tpr": s / n1 if n1 > 0 else float("nan"),
    }


def simes_statistic(pvalues):
    """Simes combination: n * min_i p_(i)/i per last-axis row, small
    values are extreme."""
    p = np.sort(_checked_pvalues(pvalues), axis=-1)
    n = p.shape[-1]
    out = n * np.min(p / np.arange(1, n + 1), axis=-1)
    return float(out) if p.ndim == 1 else out


_STATISTICS = {
    "simes_min_ratio": (simes_statistic, "small"),
    "fisher": (fisher_global_statistic, "large"),
}

# the largest orbit C(n + m, n) over which permutation_global is exact
_MAX_ENUMERATION = 1_000_000

# Mask elements (arrangements x pool size) per block: 1 byte each, plus 8
# for the control counts when the pool has ties.
_BLOCK_ELEMENTS = 1 << 16


def _index_masks(chosen: np.ndarray, size: int) -> np.ndarray:
    """Masks of width `size` that mark the positions in each row of chosen."""
    masks = np.zeros((len(chosen), size), dtype=bool)
    np.put_along_axis(masks, chosen, True, axis=1)
    return masks


def _subset_masks(rng, b: int, size: int, n_test: int) -> np.ndarray:
    """b random n_test-subsets of the sorted pool positions, as masks.

    Row r holds the positions of the n_test smallest of `size` uniform
    keys drawn by one rng.random call.
    """
    return _index_masks(np.argpartition(rng.random((b, size)), n_test - 1)[:, :n_test], size)


def _random_null(rng, b: int, size: int, n_test: int, stat_rows, tie_end=None) -> np.ndarray:
    """stat_rows of b random relabelings of a pool of `size`, tie_end as in _mask_pvalues.

    Draws _subset_masks block by block.  Consecutive rng.random calls
    continue one stream, so the samples equal those of one (b, size)
    draw, while working memory stays at one block.
    """
    rows = max(1, _BLOCK_ELEMENTS // size)
    return np.concatenate([
        stat_rows(_mask_pvalues(_subset_masks(rng, min(rows, b - start), size, n_test), tie_end))
        for start in range(0, b, rows)
    ])


def _extreme_bound(observed, direction: str):
    """The least extreme value that still counts as extreme: observed moved
    by a relative 1e-12 toward the less extreme side.

    Values within that tolerance count as ties, hence as extreme:
    statistics equal in exact arithmetic (Fisher's sum of logs of equal
    products, say) can differ in the last bits.
    """
    tol = 1e-12 * np.abs(observed)
    return observed + tol if direction == "small" else observed - tol


def _count_extreme(samples: np.ndarray, observed, direction: str):
    """Samples at least as extreme as each observed value in `direction`.

    Extreme means at or beyond _extreme_bound.  The samples are sorted
    once, and each count is one searchsorted.
    """
    bound = _extreme_bound(np.asarray(observed, dtype=float), direction)
    ordered = np.sort(samples)
    if direction == "small":
        return np.searchsorted(ordered, bound, side="right")
    return ordered.size - np.searchsorted(ordered, bound, side="left")


def _mask_pvalues(masks: np.ndarray, tie_end: np.ndarray | None = None) -> np.ndarray:
    """(1 + #controls at or below) / (m + 1) of each test, (rows, n) in pooled order.

    masks[r, k] marks position k of the ascending pool as a test in
    arrangement r.  Controls up to tie_end[k], the end of k's tie group,
    count as below k, as in ranc_values; None means a pool without ties.
    """
    rows, size = masks.shape
    positions = np.flatnonzero(masks).reshape(rows, -1) - np.arange(0, rows * size, size)[:, None]
    if tie_end is None:
        counts = positions - np.arange(positions.shape[1])
    else:
        counts = np.take_along_axis(np.cumsum(~masks, axis=1), tie_end[positions], axis=1)
    return _rank_pvalues(counts, size - positions.shape[1])


def _mask_blocks(size: int, n: int):
    """Masks of every n-subset of range(size), in lexicographic order, in blocks."""
    subsets = itertools.combinations(range(size), n)
    rows = max(1, _BLOCK_ELEMENTS // size)
    while len(chosen := np.fromiter(itertools.islice(subsets, rows), np.dtype((np.intp, n)))):
        yield _index_masks(chosen, size)


def _within_cap(n: int, m: int, cap: int) -> bool:
    """C(n + m, n) <= cap, without the full binomial of a large pool.

    C(n + m, n) is the last of the integers C(max(n, m) + i, i) for
    i = 0..min(n, m), which rise with i, so the first one past cap
    decides; that takes at most about log2(cap) steps.  The full
    binomial at n = m = 1e6 has about 600,000 digits.
    """
    low, high = min(n, m), max(n, m)
    count = 1
    for i in range(1, low + 1):
        count = count * (high + i) // i
        if count > cap:
            return False
    return count <= cap


def _pooled(statistics: StatisticSet, stat_rows):
    """Tie ends of the ascending pool (None without ties) and the observed statistic.

    tie_end[k] is the last position of k's tie group.  The observed
    statistic is the identity relabeling evaluated by the engine's own
    mask kernel, so input row order cannot change it.
    """
    values = np.concatenate([statistics.investigation, statistics.negative_controls])
    order = np.argsort(values)
    pool = values[order]
    tie_end = None
    if np.any(pool[1:] == pool[:-1]):
        _, ends = distinct(pool)  # where the next tie group starts, once per group
        tie_end = np.repeat(ends - 1, np.diff(ends, prepend=0))
    observed = float(stat_rows(_mask_pvalues((order < statistics.n)[None], tie_end))[0])
    return tie_end, observed


def _monotone_paths(lower: np.ndarray, width: int) -> int:
    """Sequences c_1 <= ... <= c_K of integers in [0, width] with c_k >= lower[k].

    Each is one lattice path; one cumulative sum per k counts them, as
    in the recursion behind exact two-sample Kolmogorov-Smirnov
    p-values (Gnedenko and Korolyuk 1951; Hodges 1958).  A partial
    count never exceeds the total C(K + width, K), so int64 is exact
    below 2**63; a larger orbit counts in Python ints.
    """
    dtype = np.int64 if math.comb(len(lower) + width, width) < 2**63 else object
    ways = np.zeros(width + 1, dtype=dtype)
    ways[0] = 1
    for low in lower.tolist():
        np.cumsum(ways, out=ways)
        ways[:low] = 0
    return int(ways.sum())


def _simes_extreme(n: int, m: int, tie_end, observed: float) -> int:
    """Relabelings whose Simes statistic is at least as extreme as observed,
    by counting, in O(n * m) steps and without a mask.

    tie_end and observed are as _pooled gives them; simes_permutation_diagnostic
    passes None and alpha.  A relabeling is not extreme when, for every
    k, its k-th smallest test, with c controls at or below its tie
    group, has n * ((1 + c) / (m + 1) / k) above _extreme_bound, the
    p-value read off ranc's grid as the engine's mask kernel reads it.
    That rises with c, so the condition is c >= f[k].  The tests of one
    tie group share c, so the group's largest k binds; with q(x) the pool
    positions at or below x's tie group, the condition is
    q(x_k) - k >= f[k] at the position x_k of every test k.  That bounds
    the controls before each test from below, so the relabelings that
    are not extreme are lattice paths, counted position by position;
    a group that holds t of its s positions is so weighted C(s, t).
    The count equals that of enumerating all C(n + m, n) relabelings.
    """
    bound = _extreme_bound(observed, "small")
    k = np.arange(1, n + 1)
    f = np.count_nonzero(n * (_rank_pvalues(np.arange(m + 1), m) / k[:, None]) <= bound, axis=1)
    q = np.arange(1, n + m + 1) if tie_end is None else tie_end + 1
    # controls before test k, at least; a bound past m leaves no path
    lower = np.maximum.accumulate(np.searchsorted(q, f + k) - (k - 1))
    return math.comb(n + m, n) - _monotone_paths(lower, m)


class PermutationResult(tuple):
    """(p_value, null_samples), with the observed statistic as .observed and
    the number of relabelings the p-value is taken over as .draws.

    draws is C(n + m, n) for an exact p-value and B for Monte Carlo.  An
    exact Simes p-value is counted, so its null_samples is empty.
    """

    def __new__(cls, p_value: float, samples: np.ndarray, observed: float, draws: int):
        result = super().__new__(cls, (p_value, samples))
        result.observed = observed
        result.draws = draws
        return result


def permutation_global(statistics: StatisticSet, statistic: str = "simes_min_ratio",
                       B: int = 999, seed: int = 0):
    """Permutation test of the global null that the investigation
    statistics are exchangeable with the negative controls.

    The statistic, "simes_min_ratio" (small values are extreme) or
    "fisher" (large values are extreme), is computed from the rank based
    p-values of each relabeled sample, in pooled order.  When C(n+m, n)
    does not exceed _MAX_ENUMERATION the p-value is exact, #extreme /
    C(n+m, n): Simes counts the extreme relabelings as lattice paths and
    returns an empty sample, Fisher enumerates every relabeling.  Above
    it, Monte Carlo draws B relabelings from the one stream
    rep_rng(seed, 0), with the add-one correction p = (1 + #extreme) / (1 + B).
    The observed statistic is the identity relabeling evaluated by the
    same code, so input row order cannot change it.  Blocks of 2**16
    mask elements bound working memory beyond the pool and samples to
    about 1 MB.  Unpacks as (p_value, null_samples); .observed holds
    the observed statistic and .draws the number of relabelings.
    """
    check_integer(B, "B", 1)
    check_integer(seed, "seed")
    try:
        stat_rows, direction = _STATISTICS[statistic]
    except KeyError:
        raise DataError(f"unknown statistic {statistic!r}") from None

    n, m = statistics.n, statistics.m
    tie_end, observed = _pooled(statistics, stat_rows)
    if not _within_cap(n, m, _MAX_ENUMERATION):
        samples = _random_null(rep_rng(seed, 0), B, n + m, n, stat_rows, tie_end)
        extreme = int(_count_extreme(samples, observed, direction))
        return PermutationResult(_rank_pvalues(extreme, B), samples, observed, B)
    total = math.comb(n + m, n)
    if statistic == "simes_min_ratio":
        samples = np.empty(0)
        extreme = _simes_extreme(n, m, tie_end, observed)
    else:
        samples = np.concatenate([stat_rows(_mask_pvalues(masks, tie_end))
                                  for masks in _mask_blocks(n + m, n)])
        extreme = int(_count_extreme(samples, observed, direction))
    return PermutationResult(extreme / total, samples, observed, total)
