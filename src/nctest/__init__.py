"""Multiple hypothesis testing with internal negative controls.

The public names load lazily (PEP 562): `import nctest` loads no
submodule, and the first access to a name loads the one submodule that
defines it.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_NAMES = {
    "data": ("StatisticSet", "load_csv", "make_statistic_set", "with_jitter"),
    "errors": ("DataError",),
    "localfdr": (
        "LocalFdrCurve", "LocalFdrResult", "bayes_risk_curves", "cdf_threshold",
        "cdf_threshold_orderstat", "localfdr_curve", "neighborhood_threshold",
        "pdf_localfdr_baseline",
    ),
    "nullfit": (
        "FalsificationReport", "NullModel", "UniformityReport", "falsify_subgroups",
        "fit_efron", "fit_mad1", "fit_mad2", "fit_nc_ecdf", "mad_scale",
        "null_diagnostics_table", "pvalues_from_null", "uniformity_tests",
    ),
    "procedures": (
        "RejectionResult", "bh", "bonferroni_global", "confusion_counts",
        "fisher_global_statistic", "hochberg", "holm", "lehmann_romano",
        "permutation_global", "simes_global", "simes_statistic",
    ),
    "ranc": (
        "PValueVector", "modified_ranc_pvalues", "modified_ranc_values",
        "ranc_pvalues", "ranc_values",
    ),
    "simulate": (
        "SimConfig", "SimReport", "fisher_miscalibration_demo", "generate_emn",
        "oracle_pvalues", "power_vs_m", "prds_counterexample", "rule_of_thumb_m",
        "run_table1", "simes_permutation_diagnostic", "simulate_cell",
    ),
    "stepup": (
        "FdrStepupResult", "StepCurve", "bh_equivalence_check", "fdr_hat", "pi_hat",
        "stepup_threshold",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # called only for a name the package has not bound
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
