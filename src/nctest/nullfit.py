"""Empirical-null fitting and diagnostics.

When no trustworthy theoretical null is available, the null
distribution of the statistics can be estimated from the data itself:
robust scale estimates from raw replicate columns (``fit_mad1``,
``fit_mad2``), a smooth-density fit around the central peak
(``fit_efron``), or the negative-control empirical distribution
(``fit_nc_ecdf``).  ``pvalues_from_null`` converts any fitted model
into one-sided p-values, ``uniformity_tests`` checks the bulk of those
p-values for uniformity, and ``falsify_subgroups`` compares
negative-control subgroups against each other.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import float_list
from .data import StatisticSet, _read_only
from .errors import DataError
from .procedures import _check_level, bh
from .ranc import PValueVector, ranc_pvalues

__all__ = [
    "MAD_FACTOR",
    "NULL_SOURCES",
    "NullModel",
    "UniformityReport",
    "FalsificationReport",
    "mad_scale",
    "fit_mad1",
    "fit_mad2",
    "fit_efron",
    "fit_nc_ecdf",
    "pvalues_from_null",
    "uniformity_tests",
    "falsify_subgroups",
    "null_diagnostics_table",
]

# consistency factor for the normal distribution
MAD_FACTOR = 1.4826

NULL_SOURCES = ("investigation", "all", "negative_controls")


@dataclass(frozen=True)
class NullModel:
    """A fitted null distribution for the internal statistic scale."""

    kind: str  # "gaussian" or "nc_ecdf"
    method: str  # "mad1", "mad2", "efron" or "ecdf"
    source: str
    mu: float | None = None
    sigma: float | None = None
    nc_values: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.source not in NULL_SOURCES:
            raise DataError(f"unknown source {self.source!r}")
        if self.kind == "gaussian":
            if self.mu is None or not np.isfinite(self.mu):
                raise DataError("gaussian null needs a finite mu")
            if self.sigma is None or not self.sigma > 0:
                raise DataError("gaussian null needs sigma > 0")
        elif self.kind == "nc_ecdf":
            if self.nc_values is None or len(self.nc_values) == 0:
                raise DataError("nc_ecdf null needs the control sample")
        else:
            raise DataError(f"unknown null kind {self.kind!r}")

    def to_dict(self):
        out = {"kind": self.kind, "method": self.method, "source": self.source}
        if self.kind == "gaussian":
            out["mu"] = float(self.mu)
            out["sigma"] = float(self.sigma)
        else:
            out["n_controls"] = int(len(self.nc_values))
        if self.details:
            out["details"] = dict(self.details)
        return out


@dataclass(frozen=True)
class UniformityReport:
    ks_pvalue: float
    ad_pvalue: float
    window: tuple
    n_in_window: int

    def to_dict(self):
        return {
            "ks_pvalue": float(self.ks_pvalue),
            "ad_pvalue": float(self.ad_pvalue),
            "window": [float(self.window[0]), float(self.window[1])],
            "n_in_window": int(self.n_in_window),
        }


@dataclass(frozen=True)
class FalsificationReport:
    """Pairwise two-sample KS comparison of negative-control subgroups."""

    subgroups: tuple
    pvalues: np.ndarray  # symmetric, diagonal 1
    qq: dict  # (label_a, label_b) -> (quantiles_a, quantiles_b)

    def to_dict(self):
        return {
            "subgroups": list(self.subgroups),
            "pvalues": float_list(self.pvalues),
        }


def mad_scale(x) -> float:
    """Median absolute deviation from the median, scaled by 1.4826."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DataError("mad_scale needs at least two values")
    if not np.all(np.isfinite(x)):
        raise DataError("mad_scale requires finite values")
    scale = MAD_FACTOR * float(np.median(np.abs(x - np.median(x))))
    if scale == 0.0:
        warnings.warn("degenerate sample: MAD scale is zero", RuntimeWarning)
    return scale


def _source_mask(statistics: StatisticSet, source: str):
    if source not in NULL_SOURCES:
        raise DataError(f"unknown source {source!r}; expected one of {NULL_SOURCES}")
    ids, values = [], []
    if source in ("investigation", "all"):
        ids.extend(statistics.investigation_ids)
        values.append(statistics.investigation)
    if source in ("negative_controls", "all"):
        ids.extend(statistics.nc_ids)
        values.append(statistics.negative_controls)
    return ids, np.concatenate(values)


def _paired_columns(statistics: StatisticSet, source: str):
    ids, _ = _source_mask(statistics, source)
    missing = [i for i in ids if i not in statistics.paired_raw]
    if missing:
        raise DataError(
            f"paired treatment/control values missing for {len(missing)} "
            f"statistics (first: {missing[0]!r})"
        )
    pairs = np.array([statistics.paired_raw[i] for i in ids], dtype=float)
    return pairs[:, 0], pairs[:, 1]


def fit_mad1(statistics: StatisticSet, source: str = "negative_controls") -> NullModel:
    """Robust scale from the two raw replicate columns separately.

    sigma is the root-sum-of-squares of the per-column MAD scales; the
    null mean is pinned at zero.
    """
    treat, ctrl = _paired_columns(statistics, source)
    s1, s2 = mad_scale(treat), mad_scale(ctrl)
    sigma = float(np.hypot(s1, s2))
    if sigma == 0.0:
        raise DataError("degenerate MAD1 fit: both column scales are zero")
    return NullModel(kind="gaussian", method="mad1", source=source, mu=0.0, sigma=sigma)


def fit_mad2(statistics: StatisticSet, source: str = "negative_controls") -> NullModel:
    """Robust scale of the paired differences.

    Uses the raw treatment-minus-control differences when raw pairs are
    attached, otherwise treats the statistic values themselves as the
    differences.
    """
    ids, values = _source_mask(statistics, source)
    if all(i in statistics.paired_raw for i in ids):
        treat, ctrl = _paired_columns(statistics, source)
        diffs = treat - ctrl
    else:
        diffs = values
    sigma = mad_scale(diffs)
    if sigma == 0.0:
        raise DataError("degenerate MAD2 fit: difference scale is zero")
    return NullModel(kind="gaussian", method="mad2", source=source, mu=0.0, sigma=sigma)


def _poisson_irls(design, counts, max_iter=100, tol=1e-8):
    # log-linear Poisson fit; returns coefficients on the design scale
    mu = counts + 0.5
    eta = np.log(mu)
    deviance = np.inf
    for _ in range(max_iter):
        w = mu
        z = eta + (counts - mu) / mu
        wx = design * w[:, None]
        beta, *_ = np.linalg.lstsq(
            design.T @ wx, (wx * z[:, None]).sum(axis=0), rcond=None
        )
        eta = design @ beta
        eta = np.clip(eta, -30.0, 30.0)
        mu = np.exp(eta)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(counts > 0, counts * np.log(counts / mu), 0.0)
        new_dev = 2.0 * float(np.sum(ratio - (counts - mu)))
        if abs(new_dev - deviance) < tol:
            return beta
        deviance = new_dev
    raise DataError("density fit did not converge in 100 iterations")


def fit_efron(
    statistics: StatisticSet,
    source: str = "negative_controls",
    bins: int = 60,
    degree: int = 4,
) -> NullModel:
    """Central-peak null via a smooth log-density fit.

    Histogram counts are regressed on a polynomial of the bin centers
    with a Poisson log link (Lindsey's method).  The mode of the fitted
    log-density gives mu, and the curvature there gives sigma.
    """
    if bins < 20:
        raise DataError("need at least 20 bins")
    if degree < 2:
        raise DataError("need polynomial degree >= 2")
    _, values = _source_mask(statistics, source)
    if values.size < 50:
        raise DataError("need at least 50 statistics for a density fit")
    counts, edges = np.histogram(values, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # standardized centers keep the polynomial basis well conditioned
    loc, scale = float(centers.mean()), float(centers.std())
    z = (centers - loc) / scale
    design = np.vander(z, degree + 1, increasing=True)
    beta = _poisson_irls(design, counts.astype(float))

    deriv = np.polynomial.polynomial.polyder(beta)
    roots = np.polynomial.polynomial.polyroots(deriv)
    real = roots[np.abs(roots.imag) < 1e-9].real
    interior = real[(real > z.min()) & (real < z.max())]
    if interior.size == 0:
        raise DataError("fitted density has no interior mode")
    heights = np.polynomial.polynomial.polyval(interior, beta)
    z_mode = float(interior[np.argmax(heights)])
    curv = float(np.polynomial.polynomial.polyval(
        z_mode, np.polynomial.polynomial.polyder(beta, 2)
    ))
    if curv >= 0:
        raise DataError("fitted density is not concave at its mode")
    mu = loc + scale * z_mode
    sigma = scale / np.sqrt(-curv)
    return NullModel(
        kind="gaussian",
        method="efron",
        source=source,
        mu=float(mu),
        sigma=float(sigma),
        details={"bins": int(bins), "degree": int(degree)},
    )


def fit_nc_ecdf(statistics: StatisticSet) -> NullModel:
    """The negative-control empirical distribution itself as the null."""
    return NullModel(
        kind="nc_ecdf",
        method="ecdf",
        source="negative_controls",
        nc_values=statistics.negative_controls,
    )


def pvalues_from_null(statistics: StatisticSet, model: NullModel) -> PValueVector:
    """One-sided p-values for the investigation statistics under a fitted null.

    A statistic so far in the lower tail that its p-value underflows to
    0 gets the smallest positive float instead.
    """
    if model.kind == "nc_ecdf":
        return ranc_pvalues(statistics)
    from scipy.special import ndtr

    z = (statistics.investigation - model.mu) / model.sigma
    return PValueVector(
        values=_read_only(np.clip(ndtr(z), np.finfo(float).tiny, 1.0)),
        ids=statistics.investigation_ids,
        kind="parametric_null",
    )


def _anderson_darling_uniform_pvalue(u) -> float:
    # Marsaglia & Marsaglia asymptotic CDF for the A^2 statistic
    u = np.sort(np.clip(u, 1e-12, 1 - 1e-12))
    n = u.size
    k = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * k - 1) * (np.log(u) + np.log1p(-u[::-1])))
    if a2 < 0.01:
        return 1.0
    if a2 < 2.0:
        cdf = (
            np.exp(-1.2337141 / a2)
            / np.sqrt(a2)
            * (
                2.00012
                + (
                    0.247105
                    - (0.0649821 - (0.0347962 - (0.011672 - 0.00168691 * a2) * a2) * a2)
                    * a2
                )
                * a2
            )
        )
    else:
        cdf = np.exp(
            -np.exp(
                1.0776
                - (2.30695 - (0.43424 - (0.082433 - (0.008056 - 0.0003146 * a2) * a2) * a2) * a2)
                * a2
            )
        )
    return float(np.clip(1.0 - cdf, 0.0, 1.0))


def uniformity_tests(p, window=(0.5, 0.99)) -> UniformityReport:
    """KS and AD uniformity checks on the bulk of the p-values.

    p-values strictly inside the window are rescaled to (0,1) and
    tested against the uniform distribution.  The window targets the
    portion of the distribution dominated by true nulls.
    """
    values = p.values if isinstance(p, PValueVector) else np.asarray(p, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0) & (values <= 1)):
        raise DataError("p-values must be finite and lie in [0, 1]")
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 <= lo < hi <= 1.0:
        raise DataError("window must satisfy 0 <= lo < hi <= 1")
    inside = values[(values > lo) & (values < hi)]
    if inside.size < 10:
        raise DataError(
            f"only {inside.size} p-values inside ({lo}, {hi}); need at least 10"
        )
    rescaled = (inside - lo) / (hi - lo)
    from scipy.stats import kstest

    ks = kstest(rescaled, "uniform", mode="asymp")
    return UniformityReport(
        ks_pvalue=float(ks.pvalue),
        ad_pvalue=_anderson_darling_uniform_pvalue(rescaled),
        window=(lo, hi),
        n_in_window=int(inside.size),
    )


def falsify_subgroups(statistics: StatisticSet) -> FalsificationReport:
    """Compare negative-control subgroups pairwise.

    Exchangeability of the control pool implies every subgroup shares
    the same distribution; small KS p-values falsify that.  Every
    labelled subgroup needs at least five controls.
    """
    groups = {}
    for rid, value in zip(statistics.nc_ids, statistics.negative_controls):
        label = statistics.subgroup.get(rid)
        if label is not None:
            groups.setdefault(label, []).append(value)
    labels = sorted(groups)
    if len(labels) < 2:
        raise DataError("need at least two labelled negative-control subgroups")
    for label in labels:
        if len(groups[label]) < 5:
            raise DataError(
                f"subgroup {label!r} has {len(groups[label])} controls; need at least 5"
            )
    from scipy.stats import ks_2samp

    k = len(labels)
    pvalues = np.ones((k, k))
    qq = {}
    for i in range(k):
        for j in range(i + 1, k):
            a = np.asarray(groups[labels[i]], dtype=float)
            b = np.asarray(groups[labels[j]], dtype=float)
            pv = float(ks_2samp(a, b).pvalue)
            pvalues[i, j] = pvalues[j, i] = pv
            probs = (np.arange(1, min(a.size, b.size, 100) + 1) - 0.5) / min(
                a.size, b.size, 100
            )
            qq[(labels[i], labels[j])] = (
                np.quantile(a, probs),
                np.quantile(b, probs),
            )
    return FalsificationReport(subgroups=tuple(labels), pvalues=pvalues, qq=qq)


def null_diagnostics_table(
    statistics: StatisticSet,
    q: float = 0.2,
    sources=NULL_SOURCES,
    methods=("mad1", "mad2", "efron", "ecdf"),
    bins: int = 60,
    degree: int = 4,
):
    """Fit every (source, method) cell and summarize the resulting p-values.

    Each row reports the fitted null, the uniformity checks on
    uniformity_tests' default window (0.5, 0.99) and the BH rejection
    count at level q, which must lie in (0, 1).  Cells whose fit fails
    carry the error message instead of being dropped.
    """
    _check_level(q, "q")
    fitters = {
        "mad1": lambda source: fit_mad1(statistics, source),
        "mad2": lambda source: fit_mad2(statistics, source),
        "efron": lambda source: fit_efron(statistics, source, bins=bins, degree=degree),
        "ecdf": lambda source: fit_nc_ecdf(statistics),  # the nc ECDF ignores the source
    }
    rows = []
    for source in sources:
        for method in methods:
            if method not in fitters:
                raise DataError(f"unknown method {method!r}")
            row = {"source": source, "method": method, "error": None}
            try:
                model = fitters[method](source)
                p = pvalues_from_null(statistics, model)
                report = uniformity_tests(p)
                row.update(
                    mu=None if model.mu is None else float(model.mu),
                    sigma=None if model.sigma is None else float(model.sigma),
                    kind=model.kind,
                    ks_pvalue=report.ks_pvalue,
                    ad_pvalue=report.ad_pvalue,
                    n_in_window=report.n_in_window,
                    bh_rejections=bh(p, q).n_rejected,
                )
            except DataError as exc:
                row.update(
                    mu=None,
                    sigma=None,
                    kind=None,
                    ks_pvalue=None,
                    ad_pvalue=None,
                    n_in_window=None,
                    bh_rejections=None,
                    error=str(exc),
                )
            rows.append(row)
    return rows
