import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from nctest import DataError, make_statistic_set, procedures, ranc_values, simulate, with_jitter
from nctest.cli import _json_text
from nctest._util import rep_rng, stream_states, thread_count
from nctest.procedures import (
    _extreme_bound,
    bh,
    confusion_counts,
    fisher_global_statistic,
    permutation_global,
    simes_statistic,
)
from nctest.ranc import PValueVector
from nctest.simulate import (
    SimConfig,
    SimReport,
    fisher_miscalibration_demo,
    generate_emn,
    oracle_pvalues,
    power_vs_m,
    prds_counterexample,
    rule_of_thumb_m,
    run_table1,
    simes_permutation_diagnostic,
    simulate_cell,
)
from nctest.simulate import (
    DEPENDENCE_KINDS,
    NULL_SETTINGS,
    _block_rows,
    _boundaries,
    _cell_constants,
    _chi2_sf_even,
    _fdp_tpr_rows,
    _normals,
)


def test_config_validation():
    with pytest.raises(DataError, match="rho"):
        SimConfig(rho=0.5, dependence="independent")
    with pytest.raises(DataError, match="mu_null"):
        SimConfig(mu_null=0.3)
    with pytest.raises(DataError, match="investigation"):
        SimConfig(n0=0, n1=0)
    with pytest.raises(DataError, match="dependence"):
        SimConfig(dependence="clustered")
    with pytest.raises(DataError, match="rho"):
        SimConfig(rho=1.0, dependence="exchangeable")
    with pytest.raises(DataError, match="seed"):
        SimConfig(seed=-1)
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(DataError, match="q must lie strictly between 0 and 1"):
            SimConfig(q=bad)


_SMALL = make_statistic_set([0.1, 0.4], [0.2, 0.3, 0.5])
# C(27, 12) relabelings exceed the enumeration cap, so permutation_global samples
_ABOVE_CAP = make_statistic_set(np.arange(12.0), np.arange(0.5, 15.0))


# every library entry point that takes a seed refuses a negative one itself,
# before any stream is derived; the first case is an exact enumeration, which draws
# nothing.  Counts are refused below their minimum at the entry point as well.
@pytest.mark.parametrize("message, call", [
    ("seed must be non-negative", lambda: permutation_global(_SMALL, seed=-1)),
    ("seed must be non-negative", lambda: permutation_global(_ABOVE_CAP, B=5, seed=-1)),
    ("seed must be non-negative", lambda: fisher_miscalibration_demo(n=3, m=3, reps=2, seed=-1)),
    ("seed must be non-negative", lambda: prds_counterexample(method="mc", draws=100, seed=-1)),
    ("seed must be non-negative", lambda: with_jitter(_SMALL, seed=-1)),
    ("seed must be non-negative", lambda: generate_emn(SimConfig(reps=1), rep_seed=-1)),
    ("B must be at least 1", lambda: permutation_global(_ABOVE_CAP, B=0)),
    ("n0 must be non-negative", lambda: SimConfig(n0=-1)),
    ("m must be at least 1", lambda: SimConfig(m=0)),
    ("draws must be at least 1", lambda: prds_counterexample(method="mc", draws=0)),
    ("m must be at least 1", lambda: power_vs_m(SimConfig(reps=2), [5, 0])),
], ids=["permutation-exact", "permutation-mc", "fisher-demo", "prds-mc", "with-jitter",
        "generate-emn", "permutation-B", "sim-config-n0", "sim-config-m", "prds-draws",
        "power-vs-m"])
def test_negative_seed_is_a_data_error(message, call):
    with pytest.raises(DataError, match=message):
        call()


# a seed or count that is not an integer is refused before numpy sees it, also on the
# exact path of permutation_global and in SimConfig, which draw nothing at that point;
# a float count is refused, never truncated, and so is a bool, which Python counts
# as an integer
@pytest.mark.parametrize("name, call", [
    ("seed", lambda seed: SimConfig(seed=seed)),
    ("seed", lambda seed: permutation_global(_SMALL, seed=seed)),
    ("seed", lambda seed: permutation_global(_ABOVE_CAP, B=5, seed=seed)),
    ("seed", lambda seed: with_jitter(_SMALL, seed=seed)),
    ("seed", lambda seed: fisher_miscalibration_demo(n=3, m=3, reps=2, seed=seed)),
    ("B", lambda B: permutation_global(_ABOVE_CAP, B=B)),
    ("n0", lambda n0: SimConfig(n0=n0)),
    ("reps", lambda reps: SimConfig(reps=reps)),
    ("reps", lambda reps: fisher_miscalibration_demo(n=3, m=3, reps=reps)),
    ("m", lambda m: simes_permutation_diagnostic(n=3, m_values=(m,))),
    # three draws of seed 0 fill both conditioning events
    ("draws", lambda draws: prds_counterexample(method="mc", draws=draws)),
    ("m", lambda m: power_vs_m(SimConfig(reps=2), [m])),
], ids=["sim-config", "permutation-exact", "permutation-mc", "with-jitter", "fisher-demo",
        "permutation-B", "sim-config-n0", "sim-config-reps", "fisher-demo-reps", "simes-perm-m",
        "prds-draws", "power-vs-m"])
def test_non_integer_seed_is_a_data_error(name, call):
    for bad in (1.5, 2.0, "3", None, True):
        with pytest.raises(DataError, match=f"{name} must be an integer"):
            call(bad)
    call(np.int64(3))
    call(np.uint32(3))


def test_bool_seed_is_a_data_error():
    # bool is an Integral, but True would be recorded as true and run seed 1
    for bad in (True, False):
        with pytest.raises(DataError, match="seed must be an integer, got"):
            SimConfig(seed=bad)
        with pytest.raises(DataError, match="seed must be an integer, got"):
            permutation_global(_SMALL, seed=bad)


def test_config_rejects_non_finite():
    for name in ("rho", "mu_null", "mu_alt"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DataError, match=f"{name} must be finite"):
                SimConfig(**{name: bad})


def test_generate_shapes_and_truth():
    cfg = SimConfig(n0=4, n1=2, m=3, reps=1)
    s = generate_emn(cfg, 0)
    assert s.n == 6 and s.m == 3
    mask = s.truth_mask()
    np.testing.assert_array_equal(mask, [False] * 4 + [True] * 2)
    assert np.all((s.investigation > 0) & (s.investigation < 1))
    # same rep seed reproduces, different one does not
    np.testing.assert_array_equal(
        generate_emn(cfg, 0).investigation, s.investigation
    )
    assert not np.array_equal(generate_emn(cfg, 1).investigation, s.investigation)


@pytest.mark.parametrize("dependence, rho, digest", [
    ("independent", 0.0, "c52fd806989744b0de1834d32b4fe7da14b29b0c55f20b4ced2ccdd15e5a54ff"),
    ("exchangeable", 0.5, "41a61da6922f3106abd4436b0df41d2dd601992461a3ac3b5f13dd6d2fed3a53"),
])
def test_generate_emn_pinned(dependence, rho, digest):
    cfg = SimConfig(n0=30, n1=5, m=40, rho=rho, mu_null=0.5, dependence=dependence, seed=11)
    s = generate_emn(cfg, 7)
    values = np.concatenate([s.investigation, s.negative_controls])
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_stream_prefix_facts():
    # a study draws each stream once at its widest cell: an exchangeable
    # cell's shared draw then noise is the wide draw, and a narrow cell's
    # draw is its prefix
    for seed, rep, k in itertools.product((0, 7, 9001), (0, 3, 250), (1, 9, 310)):
        rng = rep_rng(seed, rep)
        shared, noise = rng.normal(), rng.normal(size=k)
        wide = rep_rng(seed, rep).normal(size=k + 1)
        assert wide[0] == shared
        np.testing.assert_array_equal(wide[1:], noise)
        np.testing.assert_array_equal(rep_rng(seed, rep).normal(size=k), wide[:k])


@pytest.mark.parametrize("seed, reps, width", [
    (0, range(0, 5), 311),
    (9001, range(207, 214), 40),  # a block that starts past rep 0
    (2**64, range(2**32 - 2, 2**32 + 2), 7),  # reps of one and of two spawn words
])
def test_normals_are_the_per_rep_streams(seed, reps, width):
    # one reused generator per block draws what a fresh generator per stream draws
    want = np.array([
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,))).normal(size=width)
        for rep in reps
    ])
    np.testing.assert_array_equal(_normals(seed, reps, width).view(np.uint64), want.view(np.uint64))


def test_streams_refuse_a_negative_rep():
    with pytest.raises(DataError, match="rep must be non-negative"):
        rep_rng(0, -1)
    with pytest.raises(DataError, match="rep must be non-negative"):
        stream_states(0, range(-1, 2))
    assert stream_states(0, range(0)) == []


def test_simulate_cell_matches_study_cells():
    # a cell run alone draws its own streams; the studies share theirs
    reports = run_table1(reps=30, seed=21)
    for dependence, rho in (("independent", 0.0), ("exchangeable", 0.5)):
        for label, mu_null in (("anti-conservative", -0.5), ("conservative", 0.5)):
            alone = simulate_cell(SimConfig(
                rho=rho, mu_null=mu_null, reps=30, seed=21, dependence=dependence
            ))
            assert alone.to_dict() == reports[f"{dependence}/{label}"].to_dict()
    curves = power_vs_m(SimConfig(reps=30, seed=21), [5, 40])
    for k, m in enumerate(curves["m"]):
        alone = simulate_cell(SimConfig(m=m, reps=30, seed=21))
        for name, cell in alone.methods.items():
            assert curves[name][k] == cell["power"]


@pytest.mark.parametrize("reps", [1, 7, 8, 23])
def test_block_size_changes_no_number(monkeypatch, reps):
    # every kernel is row-wise and the means are taken once over all
    # replications, so blocks of 1 row, 7 rows, every rep and the default
    # give equal floats; width is each study's widest draw per replication
    studies = {
        "table1": (311, lambda: {cell: report.to_dict()
                                 for cell, report in run_table1(reps=reps, seed=5).items()}),
        "power-vs-m": (151, lambda: power_vs_m(SimConfig(reps=reps, seed=5), [40, 5])),
        "cell": (141, lambda: simulate_cell(SimConfig(
            m=30, rho=0.5, dependence="exchangeable", reps=reps, seed=5)).to_dict()),
        "b2": (800, lambda: fisher_miscalibration_demo(reps=reps, seed=5)),
    }
    for name, (width, study) in studies.items():
        results = [study()]
        for rows in (1, 7, reps):
            monkeypatch.setattr(procedures, "_BLOCK_ELEMENTS", rows * width)
            results.append(study())
        monkeypatch.undo()
        assert all(result == results[0] for result in results), name


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_memory_does_not_grow_with_reps():
    # a study holds one block of replications at a time, plus a few
    # floats per replication
    simulate_cell(SimConfig(reps=2))  # imports outside the measurement
    small = _peak_bytes(lambda: simulate_cell(SimConfig(reps=500)))
    large = _peak_bytes(lambda: simulate_cell(SimConfig(reps=2000)))
    assert abs(large - small) < 1 << 20, (small, large)
    small = _peak_bytes(lambda: fisher_miscalibration_demo(reps=200))
    large = _peak_bytes(lambda: fisher_miscalibration_demo(reps=800))
    assert abs(large - small) < 1 << 20, (small, large)


def test_generate_null_statistics_uniform():
    cfg = SimConfig(n0=200, n1=0, m=100, seed=2)
    pooled = np.concatenate(
        [
            np.concatenate(
                [generate_emn(cfg, rep).investigation, generate_emn(cfg, rep).negative_controls]
            )
            for rep in range(340)
        ]
    )
    assert pooled.size >= 100_000
    assert stats.kstest(pooled, "uniform").pvalue > 1e-3


def test_generate_exchangeable_correlation():
    cfg = SimConfig(
        n0=2, n1=0, m=1, rho=0.5, dependence="exchangeable", seed=3
    )
    z = np.array(
        [special.ndtri(generate_emn(cfg, rep).investigation) for rep in range(10_000)]
    )
    corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert corr == pytest.approx(0.5, abs=0.02)


def test_degenerate_alternative_rejects_at_base_rate():
    # indistinguishable non-nulls: rejected sets pick non-nulls in
    # proportion to their share of the investigation pool; the
    # anti-conservative setting supplies enough rejections to measure it
    cfg = SimConfig(n0=100, n1=10, m=50, mu_null=-0.5, mu_alt=-0.5, seed=4)
    rejected = nonnull = 0
    for rep in range(300):
        s = generate_emn(cfg, rep)
        p = PValueVector(values=s.investigation, ids=s.investigation_ids, kind="external")
        counts = confusion_counts(bh(p, 0.2), s)
        rejected += counts["n_rejected"]
        nonnull += counts["true_rejections"]
    assert rejected > 1000
    assert nonnull / rejected == pytest.approx(10 / 110, abs=0.03)


def test_oracle_identity_under_exact_nulls():
    cfg = SimConfig(seed=5)
    s = generate_emn(cfg, 0)
    p = oracle_pvalues(s, cfg)
    np.testing.assert_allclose(p.values, s.investigation, rtol=1e-12)


def test_oracle_shift_direction_and_truth_guard():
    cfg = SimConfig(mu_null=0.5, seed=6)
    s = generate_emn(cfg, 0)
    p = oracle_pvalues(s, cfg)
    assert np.all(p.values < s.investigation)
    bare = make_statistic_set(s.investigation, s.negative_controls)
    with pytest.raises(DataError, match="truth"):
        oracle_pvalues(bare, cfg)


def test_oracle_null_pvalues_uniform_all_settings():
    for seed, mu_null in enumerate((-0.5, 0.0, 0.5), start=7):
        cfg = SimConfig(n0=300, n1=0, m=1, mu_null=mu_null, seed=seed)
        pooled = np.concatenate(
            [oracle_pvalues(generate_emn(cfg, rep), cfg).values for rep in range(120)]
        )
        assert pooled.size >= 36_000
        assert stats.kstest(pooled, "uniform").pvalue > 1e-3


def test_vectorized_bh_matches_reference():
    rng = np.random.default_rng(11)
    p = np.maximum(np.round(rng.uniform(0.001, 1, size=(50, 12)), 2), 0.01)  # ties
    null_mask = np.array([True] * 8 + [False] * 4)
    fdp, tpr = _fdp_tpr_rows(p, 0.3 * np.arange(1, 13) / 12, null_mask)
    ids = [f"x{i}" for i in range(12)]
    truth = {
        rid: ("null" if is_null else "nonnull")
        for rid, is_null in zip(ids, null_mask)
    }
    for r in range(50):
        s = make_statistic_set(
            p[r], [0.5], investigation_ids=ids, truth=truth
        )
        vec = PValueVector(values=p[r], ids=ids, kind="external")
        counts = confusion_counts(bh(vec, 0.3), s)
        assert counts["fdp"] == fdp[r]
        assert counts["tpr"] == tpr[r]


def _pscale_cell_rows(config, normals):
    """The study kernel on the p scale: Phi of the statistics, BH at k q / n.

    Raw p-values are Phi(T), rank-based ones are counted on Phi(T) row
    by row with ranc_values, and oracle ones are
    Phi(Phi^-1(Phi(T)) - mu_null), all through scipy.special, each with
    its own sort.
    """
    n = config.n
    if config.dependence == "exchangeable":
        shared, noise = normals[:, :1], normals[:, 1:n + config.m + 1]
    else:
        shared, noise = 0.0, normals[:, :n + config.m]
    z = math.sqrt(1.0 - config.rho) * noise
    z += math.sqrt(config.rho) * shared
    z += np.concatenate([np.full(config.n0, config.mu_null), np.full(config.n1, config.mu_alt),
                         np.full(config.m, config.mu_null)])
    t = special.ndtr(z)
    inv, nc = t[:, :n], t[:, n:]
    null_mask = np.arange(n) < config.n0
    rows = []
    rank = np.array([ranc_values(row, controls) for row, controls in zip(inv, nc)])
    for p in (inv, rank, special.ndtr(special.ndtri(inv) - config.mu_null)):
        psort = np.sort(p, axis=1)
        k = procedures._step_prefix(psort, config.q * np.arange(1, n + 1) / n, step_up=True)
        cut = np.where(k > 0, psort[np.arange(len(p)), np.maximum(k, 1) - 1], -np.inf)
        v = np.count_nonzero((p <= cut[:, None]) & null_mask, axis=1)
        n1 = config.n1
        rows.append((v / np.maximum(k, 1), (k - v) / n1 if n1 else np.full(len(p), np.nan)))
    return np.array(rows)


def _cell_rows_alone(config, normals):
    """The study kernel's rows for one cell on one block, its controls sorted for it alone."""
    return _block_rows([(config, _cell_constants(config))], normals)[0]


_TABLE1_CELLS = [
    SimConfig(rho=0.5 if dependence == "exchangeable" else 0.0, mu_null=mu_null,
              dependence=dependence)
    for dependence in DEPENDENCE_KINDS for mu_null in NULL_SETTINGS.values()
]
_POWER_CELLS = [SimConfig(m=m, mu_alt=mu_alt) for mu_alt in (-2.0, -3.0)
                for m in (5, 25, 50, 100, 110, 200, 400)]
_SMALL_CELLS = [
    SimConfig(n0=4, n1=1, m=4, rho=0.3, dependence="exchangeable"),
    SimConfig(n0=80, n1=30, m=60, rho=0.7, mu_null=-0.5, dependence="exchangeable"),
    SimConfig(n0=1, n1=1, m=1),
    SimConfig(n0=2, n1=0, m=1, mu_null=0.5),
]


@pytest.mark.parametrize(
    "config", list(dict.fromkeys(_TABLE1_CELLS + _POWER_CELLS + _SMALL_CELLS)),
    ids=lambda c: f"{c.dependence[:3]}-n{c.n0}+{c.n1}-m{c.m}-rho{c.rho}-mu{c.mu_null}{c.mu_alt:+}")
def test_zscale_cell_rows_equal_pscale_reference(config):
    # BH on the z scale gives the p-scale study's FDP and TPR bit for bit
    normals = _normals(7, range(400), 511)
    got = _cell_rows_alone(config, normals)
    want = _pscale_cell_rows(config, normals)
    assert got.shape == want.shape == (3, 2, 400)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("config", [
    SimConfig(),
    SimConfig(n0=30, n1=10, m=40, q=0.5),
    SimConfig(n0=5, n1=5, m=5, q=0.5),
    SimConfig(n0=1, n1=1, m=1),  # no count passes k q / n: every rank boundary is -inf
], ids=lambda c: f"n{c.n0}+{c.n1}-m{c.m}-q{c.q}")
def test_zscale_cell_rows_equal_pscale_reference_on_ties(config):
    # normals on a 0.1 grid with rho = 0 and mu_null = 0: null tests tie
    # controls exactly, and a tie counts the control as below the test
    normals = np.round(_normals(8, range(400), config.n + config.m), 1)
    assert np.any(normals[:, :config.n0, None] == normals[:, None, config.n:])
    got = _cell_rows_alone(config, normals)
    want = _pscale_cell_rows(config, normals)
    assert got.tobytes() == want.tobytes()
    if config.m > 1:
        assert np.any(got[1, 0] > 0)  # rank-based BH rejects nulls in some rows
    else:
        np.testing.assert_array_equal(got[1], 0.0)


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("study", ["table1", "power-vs-m"])
def test_shared_sorts_give_each_cell_its_own_rows(monkeypatch, study, tied):
    # the cells of a study share each block's sort of the control noise and
    # each cell's BHs share one sort of its tests; every cell's rows are bit
    # for bit those of the cell run alone and of the p-scale reference, also
    # on normals rounded to a 0.1 grid, where tests and controls tie
    report, normals = simulate._report, simulate._normals
    rows = []
    monkeypatch.setattr(simulate, "_report", lambda config, out: (
        rows.append((config, out.copy())), report(config, out))[1])
    if tied:
        monkeypatch.setattr(simulate, "_normals", lambda *args: np.round(normals(*args), 1))
    if study == "table1":
        run_table1(reps=300, seed=13)
    else:
        power_vs_m(SimConfig(reps=300, seed=13), [5, 25, 50, 110, 400])
    studied = list(rows)
    assert len({(c.dependence, c.mu_null, c.m) for c, _ in studied}) == len(studied) >= 5
    for config, got in studied:
        rows.clear()
        simulate_cell(config)
        [(_, alone)] = rows
        streams = simulate._normals(config.seed, range(config.reps), config.n + config.m + 1)
        want = _pscale_cell_rows(config, streams)
        assert got.tobytes() == alone.tobytes() == want.tobytes(), config
    assert any(np.any(got[1, 0] > 0) for _, got in studied)  # rank-based BH rejects nulls


@pytest.mark.parametrize("shift", sorted(NULL_SETTINGS.values()))
def test_zscale_boundaries_match_pscale_within_ulps(shift):
    # the presets' grid, n = 110 and q = 0.2: raw BH is shift 0, oracle BH mu_null
    p_bounds, (raw, oracle) = _boundaries(SimConfig(mu_null=shift))
    np.testing.assert_array_equal(shift + raw, oracle)
    ndtri = special.ndtri(p_bounds)
    assert np.all(np.abs(raw - ndtri) <= 4 * np.spacing(np.abs(ndtri)))
    steps = np.arange(-256, 257)
    for b, z_bound in zip(p_bounds, oracle):
        # floats around the z boundary, in ulps of the larger of z and z - shift
        z = z_bound + steps * np.spacing(max(abs(z_bound), abs(z_bound - shift)))
        on_z = z <= z_bound
        for on_p in (special.ndtr(z - shift) <= b,
                     special.ndtr(special.ndtri(special.ndtr(z)) - shift) <= b):
            assert np.all(np.abs(steps[on_p != on_z]) <= 4), (b, shift)


def test_global_null_cell_reports_nan_power():
    # with no non-nulls the TPR is undefined but the FDR is not
    report = simulate_cell(SimConfig(n0=20, n1=0, m=30, reps=50, seed=4))
    for cell in report.methods.values():
        assert 0 <= cell["fdr"] <= 1 and cell["fdr_sd"] >= 0
        assert math.isnan(cell["power"]) and math.isnan(cell["power_sd"])
    out = report.to_dict()["methods"]["bh_raw"]
    assert math.isnan(out["power"])
    assert json.loads(_json_text(report.to_dict()))["methods"]["bh_raw"]["power"] is None

    cell = {"fdr": 0.1, "fdr_sd": 0.0, "power": math.nan, "power_sd": math.nan}
    with pytest.raises(DataError, match="power"):
        SimReport(config=SimConfig(), reps=1, methods={"bh_raw": cell})
    for key in ("fdr", "fdr_sd"):
        with pytest.raises(DataError, match=key):
            SimReport(config=SimConfig(n1=0), reps=1,
                      methods={"bh_raw": dict(cell, **{key: math.nan})})


def test_simulate_cell_published_values():
    rep = simulate_cell(SimConfig(reps=4000, seed=1))
    ranc = rep.methods["bh_ranc"]
    assert ranc["fdr"] == pytest.approx(0.16, abs=0.01)
    assert ranc["power"] == pytest.approx(0.76, abs=0.02)

    rep = simulate_cell(SimConfig(reps=4000, seed=1, mu_null=-0.5))
    assert rep.methods["bh_raw"]["fdr"] == pytest.approx(0.49, abs=0.015)

    rep = simulate_cell(
        SimConfig(reps=4000, seed=1, rho=0.5, dependence="exchangeable")
    )
    ranc = rep.methods["bh_ranc"]
    assert ranc["fdr"] == pytest.approx(0.17, abs=0.01)
    assert ranc["power"] == pytest.approx(0.98, abs=0.01)


def test_raw_equals_oracle_under_exact_independent_nulls():
    cfg = SimConfig(seed=12)
    for rep in range(30):
        s = generate_emn(cfg, rep)
        raw = PValueVector(
            values=s.investigation, ids=s.investigation_ids, kind="external"
        )
        assert bh(raw, cfg.q).rejected == bh(oracle_pvalues(s, cfg), cfg.q).rejected


def test_rank_method_controls_fdr_all_cells():
    reports = run_table1(reps=2000, seed=13)
    assert len(reports) == 6
    se = 0.14 / np.sqrt(2000)  # per-rep FDP sd is below 0.14 everywhere
    for rep in reports.values():
        assert rep.methods["bh_ranc"]["fdr"] <= 0.2 + 3 * se


def test_thread_count_setting(monkeypatch):
    monkeypatch.delenv("NCTEST_THREADS", raising=False)
    assert thread_count() >= 1
    monkeypatch.setenv("NCTEST_THREADS", "3")
    assert thread_count() == 3
    for bad in ("zero", "0", "-2", "1.5", ""):
        monkeypatch.setenv("NCTEST_THREADS", bad)
        with pytest.raises(ValueError, match="NCTEST_THREADS"):
            thread_count()


def test_power_vs_m_granularity_and_monotonicity():
    cfg = SimConfig(reps=1500, seed=15)
    curves = power_vs_m(cfg, [1, 5, 25, 100, 400])
    # a single control cannot produce a p-value below 1/2, which BH at
    # q=0.2 can never accept for n=110
    assert curves["bh_ranc"][0] == 0.0
    power = curves["bh_ranc"]
    for lo, hi in zip(power, power[1:]):
        assert hi >= lo - 0.03
    # oracle path ignores the controls entirely
    assert max(curves["bh_oracle"]) - min(curves["bh_oracle"]) < 0.03


def test_rule_of_thumb():
    assert rule_of_thumb_m(100, 10, 0.2) == 100
    assert rule_of_thumb_m(110, 10, 0.2) == 110
    assert rule_of_thumb_m(100, 10, 0.2, factor=5.0) == 250
    with pytest.raises(DataError):
        rule_of_thumb_m(0, 10, 0.2)
    with pytest.raises(DataError):
        rule_of_thumb_m(100, 10, 1.5)
    # an infinite factor, or a pool size that overflows to infinity
    for q, factor in ((0.2, math.inf), (0.2, 1e308), (1e-320, 2.0)):
        with pytest.raises(DataError):
            rule_of_thumb_m(100, 10, q, factor=factor)
    # counts are integers: a float or a bool is refused, never truncated
    for n, n1 in ((2.5, 1), (True, True), (100, 10.0), (np.int64(100), 10.5)):
        with pytest.raises(DataError, match="must be an integer"):
            rule_of_thumb_m(n, n1, 0.2)
    assert rule_of_thumb_m(np.int64(100), np.uint8(10), 0.2) == 100


def test_rule_of_thumb_rejects_nan_factor():
    with pytest.raises(DataError, match="factor > 0"):
        rule_of_thumb_m(100, 10, 0.2, factor=math.nan)


def test_rule_of_thumb_closes_power_gap():
    # 100 investigations with 20 strong non-nulls: 50 controls suffice
    m = rule_of_thumb_m(100, 20, 0.2)
    assert m == 50
    rep = simulate_cell(SimConfig(n0=80, n1=20, m=m, reps=5000, seed=0))
    ranc = rep.methods["bh_ranc"]["power"]
    oracle = rep.methods["bh_oracle"]["power"]
    assert ranc >= 0.9 * oracle - 0.03


def test_prds_exact_conditionals():
    p_a, p_b = prds_counterexample(method="exact")
    assert (p_a, p_b) == (4 / 9, 5 / 12)
    assert p_a > p_b


def test_prds_monte_carlo_agrees():
    p_a, p_b = prds_counterexample(method="mc", draws=200_000, seed=0)
    assert p_a == pytest.approx(4 / 9, abs=0.01)
    assert p_b == pytest.approx(5 / 12, abs=0.01)
    assert p_a > p_b
    with pytest.raises(DataError):
        prds_counterexample(method="bootstrap")


def test_mask_kernels_match_module_statistics(monkeypatch, enumerate_simes):
    # every sample of the engine, exact orbit and Monte-Carlo draws,
    # equals the module statistic of ranc_values on that relabeling; the
    # data tie test values with controls, so ties must count as
    # below-or-equal as in ranc_values
    def reference(pool, stat_fn, subset):
        mask = np.zeros(pool.size, dtype=bool)
        mask[subset] = True
        return stat_fn(ranc_values(pool[mask], pool[~mask]))

    rng = np.random.default_rng(23)
    small = (np.array([0.3, 1.0, 1.0, 2.5]), np.array([1.0, -0.4, 2.5, 0.0, 1.0, 3.1, -1.2]))
    # n = 12 exercises the unrolled pairwise summation of the Fisher sum
    large = (np.round(rng.normal(size=12), 1), np.round(rng.normal(size=20), 1))
    for name, stat_fn in (("simes_min_ratio", simes_statistic),
                          ("fisher", fisher_global_statistic)):
        for test, nc in (small, large):
            s = make_statistic_set(test, nc)
            pool = np.sort(np.concatenate([test, nc]))
            with monkeypatch.context() as patch:
                patch.setattr(procedures, "_MAX_ENUMERATION", 0)
                _, samples = permutation_global(s, name, B=40, seed=8)
            # relabeling b puts the tests at the test.size smallest of row b's
            # uniform keys, all drawn from the one stream (8, 0)
            keys = rep_rng(8, 0).random((40, pool.size))
            expected = [reference(pool, stat_fn, subset)
                        for subset in np.argsort(keys, axis=1)[:, :test.size]]
            np.testing.assert_array_equal(samples, expected)
        # the library counts the Simes p-value, so its orbit comes from the oracle
        s = make_statistic_set(*small)
        samples = enumerate_simes(s)[1] if name == "simes_min_ratio" else permutation_global(s, name)[1]
        pool = np.sort(np.concatenate(small))
        expected = [reference(pool, stat_fn, list(subset))
                    for subset in itertools.combinations(range(pool.size), small[0].size)]
        np.testing.assert_array_equal(samples, expected)


def test_two_arrangement_permutation_pvalue():
    rng = np.random.default_rng(18)
    for _ in range(20):
        s = make_statistic_set(rng.normal(size=1), rng.normal(size=1))
        p, _ = permutation_global(s, statistic="fisher", B=8, seed=0)
        assert p in (0.5, 1.0)


def test_fisher_miscalibration_direction():
    # the statistic is rank-only, so the true chi-square rejection rate
    # at n=m=400 is a constant (about 0.09, measured at 1e5 samples);
    # assert significant liberality rather than a point value
    chi2_rate, perm_rate = fisher_miscalibration_demo(n=400, m=400, reps=1200, seed=19)
    se = np.sqrt(0.05 * 0.95 / 1200)
    assert chi2_rate >= 0.05 + 3 * se
    assert abs(perm_rate - 0.05) <= 3 * se


@pytest.mark.parametrize("n", [1, 2, 5, 25, 400, 1000])
def test_chi2_tail_closed_form_matches_scipy(n):
    # the Poisson-sum tail of the b2 chi-square reference against scipy's chdtrc
    levels = np.logspace(-6, 0, 61)[:-1]
    # quantiles from 1e-6 to 1 - 1e-6, and deep-tail points down to a tail of 1e-299
    levels = np.concatenate([levels, 1.0 - levels, [1e-20, 1e-100, 1e-250, 1e-299]])
    x = stats.chi2.isf(levels, 2 * n)
    want = special.chdtrc(2 * n, x)
    assert np.all(want >= 1e-300)
    np.testing.assert_allclose(_chi2_sf_even(x, n), want, rtol=1e-10, atol=0)
    # every test outranks every control: the statistic is 0 and the tail is 1
    assert _chi2_sf_even(np.zeros(3), n).tolist() == [1.0, 1.0, 1.0]
    far = np.array([2000.0 + 4.0 * n, 1e5, 1e300])
    assert np.all(_chi2_sf_even(far, n) <= 1e-300)


def test_permutation_studies_reject_bad_sizes():
    for kwargs in ({"reps": 0}, {"n": 0}, {"m": 0}, {"alpha": 1.5}, {"alpha": -1}):
        with pytest.raises(DataError):
            fisher_miscalibration_demo(**kwargs)
    for kwargs in ({"n": 0}, {"m_values": (0,)}, {"m_values": (25, 0)},
                   {"alpha": 1.5}, {"alpha": -1}):
        with pytest.raises(DataError):
            simes_permutation_diagnostic(**kwargs)


def test_simes_permutation_diagnostic_levels():
    # the exact permutation CDF at alpha = 0.05: 142,506 of the C(50, 25)
    # relabelings at m = 25, and n / (m + 1) at m = 500
    rates = simes_permutation_diagnostic()
    assert rates == {25: 142_506 / math.comb(50, 25), 500: 25 / 501}
    assert f"{rates[25]:.4e} {rates[500]:.6f}" == "1.1273e-09 0.049900"
    # a large pool makes the statistic's null CDF track the uniform one
    assert abs(rates[500] - 0.05) <= 0.03
    # a pool as small as n leaves it far too coarse
    assert abs(rates[25] - 0.05) > abs(rates[500] - 0.05)


def test_simes_diagnostic_defaults_hold_no_value_inside_the_tolerance():
    # "at or below alpha" takes _extreme_bound's relative 1e-12, as permtest
    # does; at the defaults no Simes value n (1 + c) / ((m + 1) k), in the
    # engine's float expression, lies in (alpha, bound], so a strict
    # "samples <= alpha" would count the same relabelings
    n, m_values, alpha = simes_permutation_diagnostic.__defaults__
    bound = _extreme_bound(alpha, "small")
    k = np.arange(1, n + 1)[:, None]
    for m in m_values:
        values = n * ((1.0 + np.arange(m + 1)) / (m + 1.0) / k)
        assert not np.any((values > alpha) & (values <= bound)), m
