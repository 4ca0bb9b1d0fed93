"""Monte-Carlo studies on the equicorrelated normal model.

The generator draws z-scale statistics T_i = mu_i + sqrt(rho) Z +
sqrt(1-rho) X_i with one shared Z per replication, maps them through
the standard normal CDF, and labels investigation statistics
null/non-null.  On top of it sit the FDR/power comparison of BH on raw
statistics, on modified rank-based p-values, and on oracle-corrected
p-values; power-versus-m curves; two probability fixtures (a
non-PRDS construction and the miscalibration of Fisher's combination
test); and a permutation diagnostic for the Simes statistic.  The
studies never leave the z scale: all three p-values are monotone in
T, so BH runs on T itself.  Raw and oracle boundaries are
procedures._bh_boundaries mapped by Phi^-1; rank-based boundaries are
order statistics of each replication's controls, picked where
ranc._rank_pvalues' grid meets BH's, so the studies count no ranks.
Cells whose controls read the same normals sort them once per block,
and each cell sorts its tests once for all three BHs.

Every replication uses its own counter-derived RNG stream, so results
depend only on the seed.  A study runs its replications block by block:
it draws one block of streams' normals once, every cell of the study
(or point of a power curve) reads a prefix of them, and only each
replication's FDP and TPR outlive the block.  A block holds
procedures._BLOCK_ELEMENTS // width replications, so memory is bounded
by one block, not by the replication count, and the numbers do not
depend on the block size.
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import procedures
from ._util import check_integer, distinct, rep_rng, stream_states
from .data import TRUTH_NONNULL, TRUTH_NULL, _read_only, make_statistic_set
from .errors import DataError
from .procedures import (
    _bh_boundaries,
    _check_level,
    _count_extreme,
    _mask_pvalues,
    _random_null,
    _simes_extreme,
    _step_prefix,
    fisher_global_statistic,
)
from .ranc import PValueVector, _rank_pvalues

__all__ = [
    "DEPENDENCE_KINDS",
    "NULL_SETTINGS",
    "SimConfig",
    "SimReport",
    "generate_emn",
    "oracle_pvalues",
    "simulate_cell",
    "run_table1",
    "power_vs_m",
    "prds_counterexample",
    "fisher_miscalibration_demo",
    "simes_permutation_diagnostic",
    "rule_of_thumb_m",
]

DEPENDENCE_KINDS = ("independent", "exchangeable")

# null-mean settings on the z scale and what they do to the raw
# statistics when those are read as p-values
NULL_SETTINGS = {
    "anti-conservative": -0.5,
    "exact": 0.0,
    "conservative": 0.5,
}

METHODS = ("bh_raw", "bh_ranc", "bh_oracle")


@dataclass(frozen=True)
class SimConfig:
    n0: int = 100
    n1: int = 10
    m: int = 200
    rho: float = 0.0
    mu_null: float = 0.0
    mu_alt: float = -3.0
    q: float = 0.2
    reps: int = 10_000
    seed: int = 0
    dependence: str = "independent"

    def __post_init__(self):
        for name, minimum in (("n0", 0), ("n1", 0), ("m", 1), ("reps", 1), ("seed", 0)):
            check_integer(getattr(self, name), name, minimum)
        if self.n0 + self.n1 < 1:
            raise DataError("need at least one investigation statistic")
        for name in ("rho", "mu_null", "mu_alt"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite")
        if not 0.0 <= self.rho < 1.0:
            raise DataError("rho must be in [0, 1)")
        if self.dependence not in DEPENDENCE_KINDS:
            raise DataError(f"unknown dependence {self.dependence!r}")
        if self.dependence == "independent" and self.rho != 0.0:
            raise DataError("independent draws require rho = 0")
        if self.mu_null not in (-0.5, 0.0, 0.5):
            raise DataError("mu_null must be one of -0.5, 0, 0.5")
        _check_level(self.q, "q")

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    reps: int
    methods: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, cell in self.methods.items():
            for key in ("fdr", "power"):
                if key == "power" and self.config.n1 == 0 and math.isnan(cell[key]):
                    continue  # no non-nulls: the TPR is undefined, the FDR is not
                if not -1e-12 <= cell[key] <= 1 + 1e-12:
                    raise DataError(f"{name}.{key} outside [0, 1]")
                if not cell[f"{key}_sd"] >= 0:
                    raise DataError(f"{name}.{key}_sd negative or NaN")

    def to_dict(self):
        return asdict(self)


def _normals(seed: int, reps: range, width: int) -> np.ndarray:
    """Row k holds the first `width` standard normals of stream (seed, reps[k]).

    The first k draws of a stream do not depend on how many follow, so
    one draw at the widest cell serves every narrower cell of a study.
    One generator serves the block, set to each stream's start in turn,
    and standard_normal fills each row in place: the draws of
    normal(size=width) without its pass that adds loc 0 and multiplies
    by scale 1, which changes no value and only turns a -0.0 into 0.0.
    """
    out = np.empty((len(reps), width))
    rng = np.random.Generator(np.random.PCG64())
    for row, state in zip(out, stream_states(seed, reps)):
        rng.bit_generator.state = state
        rng.standard_normal(out=row)
    return out


def _blocks(seed: int, reps: int, width: int):
    """(start, normals) of streams (seed, 0..reps-1), one block at a time.

    A block holds procedures._BLOCK_ELEMENTS // width rows, the bound
    the permutation engine uses for its masks.
    """
    rows = max(1, procedures._BLOCK_ELEMENTS // width)
    for start in range(0, reps, rows):
        yield start, _normals(seed, range(start, min(start + rows, reps)), width)


def _noise_start(config: SimConfig) -> int:
    """The stream column where the cell's noise X starts: 1 when column 0 is the shared Z."""
    return int(config.dependence == "exchangeable")


def _zscale(config: SimConfig, noise: np.ndarray, normals: np.ndarray, mu) -> np.ndarray:
    """mu + sqrt(rho) Z + sqrt(1-rho) X for the noise X, Z read off `normals`.

    Every z-scale statistic of a cell is made here, by the same float
    operations in the same order, so any columns of X map to the bits
    that mapping all of them gives.
    """
    z = math.sqrt(1.0 - config.rho) * noise
    z += math.sqrt(config.rho) * (normals[..., :1] if _noise_start(config) else 0.0)
    z += mu
    return z


def _zvalues(config: SimConfig, normals: np.ndarray) -> np.ndarray:
    """The cell's z-scale statistics mu + sqrt(rho) Z + sqrt(1-rho) X.

    `normals` holds one stream per row (or is one stream).  Independent
    cells read columns [0, n+m) as X; exchangeable cells read column 0
    as the shared Z and columns [1, n+m+1) as X, in the order the stream
    draws them.
    """
    start = _noise_start(config)
    mu = np.repeat([config.mu_null, config.mu_alt, config.mu_null], [config.n0, config.n1, config.m])
    return _zscale(config, normals[..., start:start + config.n + config.m], normals, mu)


def generate_emn(config: SimConfig, rep_seed: int):
    """One replication of the equicorrelated normal model."""
    check_integer(rep_seed, "rep_seed")
    from scipy.special import ndtr

    normals = rep_rng(config.seed, rep_seed).normal(size=config.n + config.m + 1)
    t = ndtr(_zvalues(config, normals))
    n = config.n
    ids = [f"t{i}" for i in range(1, n + 1)]
    truth = {
        rid: TRUTH_NULL if i < config.n0 else TRUTH_NONNULL
        for i, rid in enumerate(ids)
    }
    return make_statistic_set(
        t[:n], t[n:], investigation_ids=ids, truth=truth
    )


def oracle_pvalues(statistics, config: SimConfig) -> PValueVector:
    """Exact marginal-null p-values for simulated statistics."""
    missing = [i for i in statistics.investigation_ids if i not in statistics.truth]
    if missing:
        raise DataError("oracle correction requires simulation truth labels")
    from scipy.special import ndtr, ndtri

    p = ndtr(ndtri(statistics.investigation) - config.mu_null)
    return PValueVector(
        values=_read_only(np.clip(p, np.finfo(float).tiny, 1.0)),
        ids=statistics.investigation_ids,
        kind="parametric_null",
    )


def _fdp_tpr_rows(values: np.ndarray, boundaries: np.ndarray, null_mask: np.ndarray,
                  vsort: np.ndarray = None):
    """Row-wise BH: false discovery proportion and true positive rate per row.

    boundaries are BH's on the scale of values (k q / n for p-values),
    broadcast against the sorted (rows, n) values: shape (n,) runs one
    BH on every row and (rows, n) one per row.  vsort is values sorted
    along each row, passed by a caller that runs several BHs on one sort.
    The step-up count k never splits a run of tied values: if v_(k+1) =
    v_(k) <= b_k <= b_(k+1), position k+1 passes too.  So BH rejects
    the k values {i: v_i <= v_(k)} for any order of the ties, and the
    sorted values alone give k and the cut; no sort order is needed.
    Counting the non-nulls at or below the cut gives the true
    discoveries, and k less them the false ones.
    """
    if vsort is None:
        vsort = np.sort(values, axis=1)
    k = _step_prefix(vsort, boundaries, step_up=True)
    cut = np.where(k > 0, vsort[np.arange(len(values)), np.maximum(k, 1) - 1], -np.inf)
    nonnull = values[:, ~null_mask]
    tp = np.count_nonzero(nonnull <= cut[:, None], axis=1)
    fdp = (k - tp) / np.maximum(k, 1)
    tpr = tp / nonnull.shape[1] if nonnull.shape[1] else np.full(k.shape, np.nan)
    return fdp, tpr


def simulate_cell(config: SimConfig) -> SimReport:
    """FDP and TPR of the three BH variants over config.reps replications."""
    return _run_study([config])[0]


def _run_study(configs) -> list:
    """The SimReport of each cell, all cells reading streams (seed, 0..reps-1).

    The cells share one seed and replication count.  Each block of
    normals, drawn at the widest cell, is evaluated by every cell before
    the next is drawn; only the per-replication FDP and TPR are kept.
    What a cell needs of its config alone is computed once, before the
    first block.
    """
    if not configs:
        return []
    seed, reps = configs[0].seed, configs[0].reps
    width = max(config.n + config.m for config in configs) + 1
    rows = [np.empty((len(METHODS), 2, reps)) for _ in configs]
    cells = [(config, _cell_constants(config)) for config in configs]
    for start, normals in _blocks(seed, reps, width):
        for out, block in zip(rows, _block_rows(cells, normals)):
            out[..., start:start + len(normals)] = block
    return [_report(config, out) for config, out in zip(configs, rows)]


def _boundaries(config: SimConfig):
    """BH's boundaries k q / n, and Phi^-1(k q / n) shifted by 0 and by mu_null."""
    from statistics import NormalDist

    p = _bh_boundaries(config.q, config.n)
    z = np.array([NormalDist().inv_cdf(b) for b in p.tolist()])
    return p, np.stack([z, config.mu_null + z])


def _cell_constants(config: SimConfig):
    """(z_bounds, cols, index): what _cell_rows needs of the config alone, once per study.

    z_bounds stacks raw and oracle BH's z-scale boundaries.  Rank-based
    BH's boundary k lies just below the (B_k + 1)-th smallest control,
    where B_k = cols[index[k]] is read off ranc's grid; cols holds the
    distinct B_k ascending, so each order statistic is mapped once.
    """
    p, z = _boundaries(config)
    counts = np.searchsorted(_rank_pvalues(np.arange(config.m + 1), config.m), p, side="right") - 1
    cols, _ = distinct(counts)
    return z, cols, np.searchsorted(cols, counts)


def _block_rows(cells, normals: np.ndarray) -> list:
    """_cell_rows of each (config, _cell_constants(config)) on one block of streams.

    Consecutive cells whose controls read the same stream columns, as
    the cells of one dependence kind do, share one sort of that noise.
    """
    span, out = None, []
    for config, constants in cells:
        start = _noise_start(config) + config.n
        if span != (start, start + config.m):
            span, sorted_noise = (start, start + config.m), None  # free the last sort first
            sorted_noise = np.sort(normals[:, start:start + config.m], axis=1)
        out.append(_cell_rows(config, normals, sorted_noise, *constants))
    return out


def _cell_rows(config: SimConfig, normals: np.ndarray, sorted_noise: np.ndarray,
               z_bounds, cols, index) -> np.ndarray:
    """FDP and TPR of each method, (method, fdp/tpr, row), on one block of streams.

    sorted_noise is each row's control noise X sorted, and the rest
    comes from _cell_constants.  BH on Phi(T - s) rejects where T <= s +
    Phi^-1(k q / n), so raw (s = 0) and oracle (s = mu_null) BH run on
    the z-scale T.  This equals BH on the p scale up to rounding:
    NormalDist().inv_cdf and scipy's ndtri differ by up to 4 ulp, so a T
    within a few ulp of a boundary may fall on the other side of it.

    Rank-based BH counts nothing.  (1 + c) / (1 + m) <= k q / n holds
    for the counts c <= B_k, and #{nc <= T} <= B_k holds exactly when
    T < nc_(B_k + 1), the (B_k + 1)-th smallest control of the row (a
    control tied with T counts as below it).  So its boundary is the
    largest float below that order statistic, or -inf where B_k = -1;
    B_k < m since q < 1.  Each float step of _zscale is monotone in X,
    so the order statistics of the controls' T are the sorted noise's
    columns mapped through it, bit for bit what sorting T gives.  BH on
    the test z's against these row-wise boundaries gives the same k and
    V as BH on the rank-based p-values.  All three BHs run on one sort
    of the test z's.
    """
    n = config.n
    start = _noise_start(config)
    tests = _zscale(config, normals[:, start:start + n], normals,
                    np.repeat([config.mu_null, config.mu_alt], [config.n0, config.n1]))
    rank = _zscale(config, sorted_noise[:, np.maximum(cols, 0)], normals, config.mu_null)
    np.nextafter(rank, -np.inf, out=rank)
    rank[:, cols < 0] = -np.inf
    null_mask = np.arange(n) < config.n0
    tsort = np.sort(tests, axis=1)
    return np.array([_fdp_tpr_rows(tests, bounds, null_mask, tsort)
                     for bounds in (z_bounds[0], rank[:, index], z_bounds[1])])


def _report(config: SimConfig, rows: np.ndarray) -> SimReport:
    """Means and SDs over the replications of _cell_rows' (method, fdp/tpr, rep) array."""
    methods = {}
    for name, (fdp, tpr) in zip(METHODS, rows):
        methods[name] = {
            "fdr": float(np.mean(fdp)),
            "fdr_sd": float(np.std(fdp, ddof=1)) if config.reps > 1 else 0.0,
            "power": float(np.mean(tpr)),
            "power_sd": float(np.std(tpr, ddof=1)) if config.reps > 1 else 0.0,
        }
    return SimReport(config=config, reps=config.reps, methods=methods)


def run_table1(reps: int = 10_000, seed: int = 0) -> dict:
    """The six-cell dependence-by-null-setting comparison."""
    base = SimConfig(reps=reps, seed=seed)
    cells = {
        f"{dependence}/{label}": replace(
            base,
            rho=0.5 if dependence == "exchangeable" else 0.0,
            mu_null=mu_null,
            dependence=dependence,
        )
        for dependence in DEPENDENCE_KINDS
        for label, mu_null in NULL_SETTINGS.items()
    }
    return dict(zip(cells, _run_study(list(cells.values()))))


def power_vs_m(config: SimConfig, m_grid) -> dict:
    """Mean TPR of each method as the control-pool size varies."""
    m_grid = [check_integer(v, "m", 1) for v in m_grid]
    reports = _run_study([replace(config, m=m) for m in m_grid])
    out = {"m": m_grid}
    for name in METHODS:
        out[name] = [report.methods[name]["power"] for report in reports]
    return out


def rule_of_thumb_m(n: int, n1: int, q: float, factor: float = 2.0) -> int:
    """Smallest recommended control-pool size for a target power gap."""
    check_integer(n, "n", 1)
    check_integer(n1, "n1", 1)
    m = factor * n / (q * n1) if 0 < q < 1 and factor > 0 else math.nan
    if not math.isfinite(m):
        raise DataError("need 0 < q < 1, factor > 0 and a finite pool size")
    return math.ceil(m)


def prds_counterexample(method: str = "exact", draws: int = 1_000_000, seed: int = 0):
    """Conditional probabilities showing rank-based p-values are not PRDS.

    Two independent uniform investigation statistics share two Beta(1,2)
    controls, CDF F(t) = 1 - (1-t)^2; returns (P(p2=1 | p1=1/3),
    P(p2=1 | p1=2/3)).  The first exceeds the second, so a larger p1 can
    make the extreme p2 value less likely.

    method "exact" returns the closed form.  p1 = 1/3 (2/3) says two
    (one) controls exceed T1 and p2 = 1 that none exceeds T2, so T1 < T2:
    P(p1=1/3) = int (1-F)^2 = 1/5, P(p1=2/3) = int 2F(1-F) = 4/15, and
    over t1 < t2, P(p1=1/3, p2=1) = int (F(t2)-F(t1))^2 = 4/45 and
    P(p1=2/3, p2=1) = int 2F(t1)(F(t2)-F(t1)) = 1/9; the ratios are 4/9
    and 5/12.  method "mc" estimates both from `draws` Monte-Carlo draws
    and raises DataError when a conditioning event has no draws.
    """
    if method == "exact":
        return 4 / 9, 5 / 12
    if method != "mc":
        raise DataError(f"unknown method {method!r}")
    check_integer(draws, "draws", 1)
    check_integer(seed, "seed")
    rng = rep_rng(seed, 0)
    t1, t2 = rng.uniform(size=(2, draws))
    c1, c2 = rng.beta(1.0, 2.0, size=(2, draws))
    count1 = (c1 <= t1).astype(int) + (c2 <= t1)
    count2 = (c1 <= t2).astype(int) + (c2 <= t2)
    p2_top = count2 == 2
    low = count1 == 0
    mid = count1 == 1
    if not (low.any() and mid.any()):
        raise DataError(f"{draws} draws leave a conditioning event empty; use more draws")
    return (
        float(p2_top[low].mean()),
        float(p2_top[mid].mean()),
    )


def _chi2_sf_even(x: np.ndarray, n: int) -> np.ndarray:
    """P(chi-square with 2n degrees of freedom > x), elementwise.

    With an even number of degrees of freedom the tail is a Poisson CDF,
    P(Poisson(x/2) <= n-1) = sum_{k<n} exp(k log(x/2) - x/2 - log k!).
    The terms are summed in log space, each from the one before
    (log t_k = log t_{k-1} + log(x/2) - log k), so memory stays at the
    size of x.  At x = 0 only t_0 = 1 is non-zero.
    """
    half = np.asarray(x, dtype=float) / 2.0
    with np.errstate(divide="ignore"):
        log_half = np.log(half)
    log_term = -half
    log_sum = log_term
    for k in range(1, n):
        log_term = log_term + log_half - math.log(k)
        log_sum = np.logaddexp(log_sum, log_term)
    return np.exp(log_sum)


def fisher_miscalibration_demo(
    n: int = 400,
    m: int = 400,
    reps: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
):
    """Global-null rejection rates of Fisher's combination statistic.

    Replication r pools n tests and m controls, the normals of stream
    (seed, r), and returns (chi2 rate, permutation rate).  The
    chi-square reference treats the rank-based p-values as independent
    uniforms, which they are not, so its rate is liberal.  Its tail
    P(chi2_2n > x) is computed in closed form: with an even number of
    degrees of freedom it equals P(Poisson(x/2) <= n-1).

    The pools have no ties, so the statistic depends only on which
    pooled positions hold tests, and its permutation null is the same
    for every replication.  One sample of b = 20 * reps random
    relabelings from stream (seed, reps) serves them all; replication r
    has p = (1 + #{null >= observed_r}) / (b + 1).  Each such p-value
    is valid, because the observed relabeling is exchangeable with the
    null draws.  Sharing the null adds about alpha(1-alpha)/b to the
    rate's Monte-Carlo variance; b = 20 * reps makes that term 5% of
    the alpha(1-alpha)/reps of independent replications.
    """
    for name, count in (("n", n), ("m", m), ("reps", reps)):
        check_integer(count, name, 1)
    _check_level(alpha, "alpha")
    check_integer(seed, "seed")
    observed = np.concatenate([
        fisher_global_statistic(_mask_pvalues(np.argsort(normals, axis=1, kind="stable") < n))
        for _, normals in _blocks(seed, reps, n + m)
    ])
    b = 20 * reps
    null = _random_null(rep_rng(seed, reps), b, n + m, n, fisher_global_statistic)
    p_perm = _rank_pvalues(_count_extreme(null, observed, "large"), b)
    return float(np.mean(_chi2_sf_even(observed, n) < alpha)), float(np.mean(p_perm <= alpha))


def simes_permutation_diagnostic(n: int = 25, m_values=(25, 500), alpha: float = 0.05) -> dict:
    """Permutation CDF of the Simes statistic at the nominal level.

    The Simes global test treats its statistic as uniform, so the CDF
    at alpha should be near alpha.  The statistic depends only on the
    pooled ranks, so the permutation distribution needs no data: the
    relabelings at or below alpha, within _extreme_bound's tolerance,
    are counted as lattice paths and divided by C(n + m, n).  Small
    control pools make the statistic too coarse for the uniform
    approximation to hold.
    """
    m_values = [check_integer(m, "m", 1) for m in m_values]
    n = check_integer(n, "n", 1)
    _check_level(alpha, "alpha")
    return {m: _simes_extreme(n, m, None, alpha) / math.comb(n + m, n) for m in m_values}
