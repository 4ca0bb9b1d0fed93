import importlib
import inspect
import pkgutil

import pytest

import nctest
from nctest.ranc import counts_at_or_below


def test_every_listed_name_resolves_once():
    # a deleted function must not stay listed in an __all__
    submodules = [
        importlib.import_module(f"nctest.{info.name}")
        for info in pkgutil.iter_modules(nctest.__path__)
    ]
    listed = [module for module in [nctest] + submodules if hasattr(module, "__all__")]
    assert {"nctest", "nctest.localfdr", "nctest.stepup"} <= {m.__name__ for m in listed}
    for module in listed:
        names = list(module.__all__)
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


# parameter names of every public callable, in signature order; adding or
# removing a setting of the public interface means editing this table
PUBLIC_PARAMETERS = {
    "FalsificationReport": "subgroups pvalues qq",
    "FdrStepupResult": (
        "tau tau_statistic ids rejected_positions "
        "pi_hat lam q fdr_curve"
    ),
    "LocalFdrCurve": "breakpoints values pi",
    "LocalFdrResult": "tau_hat lam ids rejected_positions candidates objective argmin_index q pi",
    "NullModel": "kind method source mu sigma nc_values details",
    "PValueVector": "values ids kind",
    "RejectionResult": "ids order sorted_pvalues boundaries n_rejected procedure parameters",
    "SimConfig": "n0 n1 m rho mu_null mu_alt q reps seed dependence",
    "SimReport": "config reps methods",
    "StatisticSet": (
        "investigation_ids investigation nc_ids negative_controls "
        "orientation subgroup paired_raw truth"
    ),
    "StepCurve": "breakpoints values left_value",
    "UniformityReport": "ks_pvalue ad_pvalue window n_in_window",
    "bayes_risk_curves": "source q pi grid",
    "bh": "p q",
    "bh_equivalence_check": "statistics q",
    "bonferroni_global": "p alpha",
    "cdf_threshold": "statistics lam q pi",
    "cdf_threshold_orderstat": "statistics lam q pi",
    "confusion_counts": "result statistics",
    "falsify_subgroups": "statistics",
    "fdr_hat": "statistics lam t",
    "fisher_global_statistic": "p",
    "fisher_miscalibration_demo": "n m reps seed alpha",
    "fit_efron": "statistics source bins degree",
    "fit_mad1": "statistics source",
    "fit_mad2": "statistics source",
    "fit_nc_ecdf": "statistics",
    "generate_emn": "config rep_seed",
    "hochberg": "p alpha",
    "holm": "p alpha",
    "lehmann_romano": "p alpha gamma",
    "load_csv": "source orientation",
    "localfdr_curve": "statistics pi",
    "mad_scale": "x",
    "make_statistic_set": (
        "investigation_values nc_values orientation investigation_ids "
        "nc_ids subgroup paired_raw truth"
    ),
    "modified_ranc_pvalues": "statistics",
    "modified_ranc_values": "test_values nc_values",
    "neighborhood_threshold": "statistics lam h",
    "null_diagnostics_table": "statistics q sources methods bins degree",
    "oracle_pvalues": "statistics config",
    "pdf_localfdr_baseline": "statistics pi",
    "permutation_global": "statistics statistic B seed",
    "pi_hat": "statistics lam",
    "power_vs_m": "config m_grid",
    "prds_counterexample": "method draws seed",
    "pvalues_from_null": "statistics model",
    "ranc_pvalues": "statistics",
    "ranc_values": "test_values nc_values",
    "rule_of_thumb_m": "n n1 q factor",
    "run_table1": "reps seed",
    "simes_global": "p alpha",
    "simes_permutation_diagnostic": "n m_values alpha",
    "simes_statistic": "pvalues",
    "simulate_cell": "config",
    "stepup_threshold": "statistics lam q",
    "uniformity_tests": "p window",
    "with_jitter": "statistics seed",
}


def test_public_parameters_recorded():
    # DataError, the one exception class, has no signature to record
    actual = {
        name: " ".join(inspect.signature(getattr(nctest, name)).parameters)
        for name in nctest.__all__
        if name != "DataError"
    }
    assert actual == PUBLIC_PARAMETERS


@pytest.mark.parametrize("count", [
    counts_at_or_below,
    lambda nc, queries: nctest.ranc_values(queries, nc),
    lambda nc, queries: nctest.modified_ranc_values(queries, nc),
], ids=["counts_at_or_below", "ranc_values", "modified_ranc_values"])
def test_rank_counts_take_one_dimensional_controls(count):
    # 2-D controls are rejected at the entry point;
    # the queries may keep any shape
    with pytest.raises(nctest.DataError, match="one-dimensional"):
        count([[0.1, 0.2], [0.3, 0.4]], [[0.15, 0.35], [0.25, 0.45]])
    assert count([0.2, 0.1], [[0.15, 0.35], [0.05, 0.2]]).shape == (2, 2)
