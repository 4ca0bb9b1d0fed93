"""Command-line front end.

Subcommands run analyses on user CSVs (analyze, stepup, localfdr,
null-fit, falsify, permtest) or canned simulation studies (simulate).
Results go to stdout as JSON, or into --out as a bundle of JSON, CSV
and optional SVG.  Every output embeds or references a run manifest so
a report can be traced back to the exact invocation.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, svg
from ._util import float_list
from .data import load_csv
from .errors import DataError
from .localfdr import cdf_threshold, localfdr_curve
from .nullfit import falsify_subgroups, null_diagnostics_table
from .procedures import (
    RejectionResult,
    bh,
    bonferroni_global,
    hochberg,
    holm,
    lehmann_romano,
    permutation_global,
    simes_global,
)
from .ranc import ranc_pvalues
from .simulate import (
    SimConfig,
    fisher_miscalibration_demo,
    power_vs_m,
    prds_counterexample,
    run_table1,
    simes_permutation_diagnostic,
)
from .stepup import stepup_threshold

# layout version of every JSON payload, pinned by the schemas in nctest/schemas
SCHEMA_VERSION = 2
PRESETS = ("table1", "power-vs-m", "power-vs-m-weak", "b1", "b2", "simes-perm")
_ORIENTATION = {"small": "small_is_significant", "large": "large_is_significant"}
_SOURCE_ALIASES = {
    "test": "investigation",
    "investigation": "investigation",
    "all": "all",
    "nc": "negative_controls",
    "negative_controls": "negative_controls",
}


class UsageError(Exception):
    """Bad flags or infeasible request; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _json_default(obj):
    """JSON form of the numpy values and sets the C encoder does not know."""
    if isinstance(obj, np.ndarray):
        return float_list(obj) if obj.dtype.kind == "f" else obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def _jsonify(obj):
    """Recursively coerce payloads into strict JSON (no NaN, no numpy)."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.ndarray, np.generic, set, frozenset)):
        return _jsonify(_json_default(obj))
    return obj


def _json_text(payload) -> str:
    """Compact strict JSON, with NaN and inf written as null.

    The C encoder walks the payload, converting numpy values through
    _json_default.  It refuses a NaN or inf float, and only then does
    the payload take the element-by-element walk of _jsonify.
    """
    try:
        return json.dumps(payload, default=_json_default, separators=(",", ":"), allow_nan=False)
    except ValueError:
        return _json_text(_jsonify(payload))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(subcommand: str, ns: argparse.Namespace) -> dict:
    flags = {
        key: _jsonify(value)
        for key, value in sorted(vars(ns).items())
        if key not in ("func", "subcommand")
    }
    infile = getattr(ns, "infile", None)
    return {
        "subcommand": subcommand,
        "flags": flags,
        "seed": getattr(ns, "seed", None),
        "version": __version__,
        "input_sha256": _sha256(infile) if infile else None,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _stable_manifest_line(manifest: dict) -> str:
    # timestamp and output destination excluded so the same computation
    # gives byte-identical CSVs wherever it is written
    stable = {k: v for k, v in manifest.items() if k != "created_utc"}
    stable["flags"] = {k: v for k, v in stable["flags"].items()
                       if k not in ("out", "plots")}
    return "# manifest: " + json.dumps(stable, sort_keys=True, separators=(",", ":"))


class Report:
    """One subcommand's results: JSON payload plus tabular/plot forms.

    rows is any iterable of CSV rows, read once when the CSV is written;
    None fields are written empty.
    """

    def __init__(self, payload, header, rows, svg_text=None):
        self.payload = payload
        self.header = header
        self.rows = rows
        self.svg_text = svg_text


def _emit(report: Report, manifest: dict, ns: argparse.Namespace) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **report.payload, "manifest": manifest}
    text = _json_text(payload) + "\n"
    out = getattr(ns, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    if out.endswith(".csv"):
        stem = out[: -len(".csv")]
        csv_path = out
        files = {stem + ".json": text, stem + ".svg": report.svg_text}
    else:
        csv_path = os.path.join(out, "result.csv")
        files = {
            os.path.join(out, "result.json"): text,
            os.path.join(out, "manifest.json"): _json_text(manifest) + "\n",
            os.path.join(out, "plot.svg"): report.svg_text,
        }
    os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_stable_manifest_line(manifest) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.header)
        writer.writerows(report.rows)
    for path, content in files.items():
        if content is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)


def _load(ns: argparse.Namespace):
    if not getattr(ns, "infile", None):
        raise UsageError("--in is required for this subcommand")
    return load_csv(ns.infile, orientation=_ORIENTATION[ns.direction])


def _want_svg(ns: argparse.Namespace) -> bool:
    return ns.plots == "svg"


def _desc(manifest: dict) -> str:
    return _stable_manifest_line(manifest)[2:]


# ---------------------------------------------------------------- analyze


def cmd_analyze(ns, manifest) -> Report:
    statistics = _load(ns)
    if ns.procedure == "stepup":
        return _stepup_report(ns, manifest, statistics)
    p = ranc_pvalues(statistics)
    q = 0.1 if ns.q is None else ns.q
    alpha = 0.05 if ns.alpha is None else ns.alpha
    result = {
        "bh": lambda: bh(p, q),
        "holm": lambda: holm(p, alpha),
        "hochberg": lambda: hochberg(p, alpha),
        "lr": lambda: lehmann_romano(p, alpha, ns.gamma),
        "bonferroni": lambda: bonferroni_global(p, alpha),
        "simes": lambda: simes_global(p, alpha),
    }[ns.procedure]()
    rejected = np.zeros(statistics.n, dtype=np.int8)
    if isinstance(result, RejectionResult):
        outcome, threshold = result.to_dict(), result.threshold
        rejected[result.order[: result.n_rejected]] = 1
    else:
        outcome = {"procedure": ns.procedure, "parameters": {"alpha": alpha},
                   "reject_global": result}
        # a global test makes no per-hypothesis claims
        threshold = None
    pvalues = float_list(p.values)
    payload = {
        "procedure": ns.procedure,
        "n": statistics.n,
        "m": statistics.m,
        "pvalue_kind": p.kind,
        "pvalues": dict(zip(p.ids, pvalues)),
        "result": outcome,
        "warnings": list(p.warnings),
    }
    header = ("id", "statistic", "pvalue", "rejected")
    # p follows the investigation rows, so the columns line up by position
    rows = zip(p.ids, statistics.investigation.tolist(), pvalues, rejected.tolist())
    svg_text = None
    if _want_svg(ns):
        marks = [] if threshold is None else [(threshold, "p cutoff")]
        svg_text = svg.histogram_svg(
            p.values, bins=min(40, max(5, statistics.n // 2)), thresholds=marks,
            title=f"{ns.procedure}: {int(rejected.sum())} rejections",
            xlabel="rank-based p-value", desc=_desc(manifest),
        )
    return Report(payload, header, rows, svg_text)


# ----------------------------------------------------------------- stepup


def _stepup_report(ns, manifest, statistics) -> Report:
    q = 0.1 if ns.q is None else ns.q
    lam = 1.0 if ns.lam is None else ns.lam
    result = stepup_threshold(statistics, lam=lam, q=q)
    payload = {"n": statistics.n, "m": statistics.m, "result": result.to_dict()}
    header = ("threshold", "fdr_hat")
    curve = result.fdr_curve
    rows = []
    if curve is not None:
        rows = zip(curve.breakpoints.tolist(), curve.values.tolist())
    svg_text = None
    if _want_svg(ns):
        marks = [] if result.tau_statistic is None else [(result.tau_statistic, "tau")]
        svg_text = svg.histogram_svg(
            statistics.investigation, bins=min(40, max(5, statistics.n // 2)),
            thresholds=marks, title=f"step-up at q={q:g}: {result.n_rejected} rejections",
            xlabel="statistic", desc=_desc(manifest),
        )
    return Report(payload, header, rows, svg_text)


def cmd_stepup(ns, manifest) -> Report:
    return _stepup_report(ns, manifest, _load(ns))


# --------------------------------------------------------------- localfdr


def cmd_localfdr(ns, manifest) -> Report:
    statistics = _load(ns)
    if ns.lam is not None:
        lam = ns.lam
    elif ns.q is not None and ns.pi is not None:
        lam = ns.q / ns.pi if ns.pi else math.inf  # cdf_threshold rejects pi = 0
    else:
        raise UsageError("localfdr needs --lambda, or --q together with --pi")
    result = cdf_threshold(statistics, lam, q=ns.q, pi=ns.pi)
    threshold = result.to_dict()
    payload = {"n": statistics.n, "m": statistics.m, "threshold": threshold}
    if ns.pi is not None:
        payload["curve"] = localfdr_curve(statistics, ns.pi).to_dict()
    header = ("t", "objective")
    columns = threshold["objective_at_candidates"]
    rows = zip(columns["t"], columns["objective"])
    svg_text = None
    if _want_svg(ns):
        marks = [] if result.tau_hat is None else [(result.tau_hat, "tau")]
        svg_text = svg.step_curve_svg(
            result.candidates, result.objective, left_value=0.0,
            thresholds=marks, title=f"objective at lambda={lam:g}",
            xlabel="candidate threshold", ylabel="objective", desc=_desc(manifest),
        )
    return Report(payload, header, rows, svg_text)


# ---------------------------------------------------------------- null-fit


def _split_csv_flag(raw: str, aliases: dict, what: str) -> tuple:
    names = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in aliases:
            raise UsageError(f"unknown {what} {token!r}")
        names.append(aliases[token])
    if not names:
        raise UsageError(f"no {what} given")
    return tuple(dict.fromkeys(names))


def cmd_null_fit(ns, manifest) -> Report:
    statistics = _load(ns)
    q = 0.2 if ns.q is None else ns.q
    sources = _split_csv_flag(ns.sources, _SOURCE_ALIASES, "source")
    methods = _split_csv_flag(
        ns.methods, {k: k for k in ("mad1", "mad2", "efron", "ecdf")}, "method"
    )
    table = null_diagnostics_table(
        statistics, q=q, sources=sources, methods=methods,
        bins=ns.bins, degree=ns.degree,
    )
    payload = {"n": statistics.n, "m": statistics.m, "q": q, "table": table}
    header = ("source", "method", "mu", "sigma", "kind",
              "ks_pvalue", "ad_pvalue", "n_in_window", "bh_rejections", "error")
    rows = [[row[key] for key in header] for row in table]
    svg_text = None
    if _want_svg(ns):
        svg_text = svg.histogram_svg(
            statistics.investigation, bins=min(60, max(5, statistics.n // 5)),
            title="investigation statistics", xlabel="statistic", desc=_desc(manifest),
        )
    return Report(payload, header, rows, svg_text)


# ----------------------------------------------------------------- falsify


def cmd_falsify(ns, manifest) -> Report:
    statistics = _load(ns)
    report = falsify_subgroups(statistics)
    qq = {
        f"{a}|{b}": {"a": float_list(qa), "b": float_list(qb)}
        for (a, b), (qa, qb) in report.qq.items()
    }
    payload = dict(report.to_dict())
    payload["qq"] = qq
    header = ("group_a", "group_b", "ks_pvalue")
    rows = []
    worst = None
    for i, a in enumerate(report.subgroups):
        for j, b in enumerate(report.subgroups):
            if j <= i:
                continue
            pv = float(report.pvalues[i, j])
            rows.append((a, b, repr(pv)))
            if worst is None or pv < worst[2]:
                worst = (a, b, pv)
    svg_text = None
    if _want_svg(ns) and worst is not None:
        qa, qb = report.qq[(worst[0], worst[1])]
        svg_text = svg.qq_svg(
            qa, qb, title=f"{worst[0]} vs {worst[1]} (KS p={worst[2]:.3g})",
            xlabel=worst[0], ylabel=worst[1], desc=_desc(manifest),
        )
    return Report(payload, header, rows, svg_text)


# ---------------------------------------------------------------- simulate


def _table1_rows(reports: dict):
    header = ("cell", "dependence", "null_setting", "method",
              "fdr", "fdr_sd", "power", "power_sd")
    rows = []
    for cell, report in reports.items():
        dependence, setting = cell.split("/", 1)
        for method, stats in report.methods.items():
            rows.append((
                cell, dependence, setting, method,
                repr(float(stats["fdr"])), repr(float(stats["fdr_sd"])),
                repr(float(stats["power"])), repr(float(stats["power_sd"])),
            ))
    return header, rows


def _power_rows(curves: dict):
    header = ("m", "method", "power")
    rows = []
    methods = [name for name in curves if name != "m"]
    for k, m in enumerate(curves["m"]):
        for method in methods:
            rows.append((m, method, repr(float(curves[method][k]))))
    return header, rows


def cmd_simulate(ns, manifest) -> Report:
    preset = ns.preset
    seed = ns.seed
    if preset == "table1":
        reps = 10_000 if ns.reps is None else ns.reps
        reports = run_table1(reps=reps, seed=seed)
        payload = {"preset": preset, "reps": reps,
                   "cells": {cell: rep.to_dict() for cell, rep in reports.items()}}
        header, rows = _table1_rows(reports)
    elif preset in ("power-vs-m", "power-vs-m-weak"):
        reps = 1000 if ns.reps is None else ns.reps
        mu_alt = -2.0 if preset.endswith("weak") else -3.0
        config = SimConfig(reps=reps, seed=seed, mu_alt=mu_alt)
        curves = power_vs_m(config, m_grid=(25, 50, 100, 200, 400))
        payload = {"preset": preset, "reps": reps, "config": config.to_dict(),
                   "m": curves["m"],
                   "power": {name: curves[name] for name in curves if name != "m"}}
        header, rows = _power_rows(curves)
    elif preset == "b1":
        draws = 1_000_000 if ns.reps is None else ns.reps
        exact = prds_counterexample(method="exact")
        mc = prds_counterexample(method="mc", draws=draws, seed=seed)
        payload = {"preset": preset, "draws": draws,
                   "exact": {"p_a": exact[0], "p_b": exact[1]},
                   "monte_carlo": {"p_a": mc[0], "p_b": mc[1]}}
        header = ("quantity", "exact", "monte_carlo")
        rows = [("p_a", repr(float(exact[0])), repr(float(mc[0]))),
                ("p_b", repr(float(exact[1])), repr(float(mc[1])))]
    elif preset == "b2":
        reps = 1000 if ns.reps is None else ns.reps
        chi2_rate, perm_rate = fisher_miscalibration_demo(reps=reps, seed=seed)
        payload = {"preset": preset, "reps": reps,
                   "chi2_reject_rate": chi2_rate, "perm_reject_rate": perm_rate}
        header = ("calibration", "reject_rate")
        rows = [("chi2", repr(float(chi2_rate))), ("permutation", repr(float(perm_rate)))]
    elif preset == "simes-perm":
        b = 20_000 if ns.reps is None else ns.reps
        rates = simes_permutation_diagnostic(b=b, seed=seed)
        payload = {"preset": preset, "b": b,
                   "reject_rates": {str(m): rate for m, rate in rates.items()}}
        header = ("m", "reject_rate")
        rows = [(m, repr(float(rate))) for m, rate in sorted(rates.items())]
    else:  # argparse choices make this unreachable
        raise UsageError(f"unknown preset {preset!r}")
    svg_text = None
    if _want_svg(ns) and preset in ("power-vs-m", "power-vs-m-weak"):
        svg_text = svg.step_curve_svg(
            curves["m"], curves["bh_ranc"],
            title=f"{preset}: rank-based BH power", xlabel="control pool size",
            ylabel="mean true-positive rate", desc=_desc(manifest),
        )
    return Report(payload, header, rows, svg_text)


# ---------------------------------------------------------------- permtest


def cmd_permtest(ns, manifest) -> Report:
    statistics = _load(ns)
    b = 999 if ns.reps is None else ns.reps
    result = permutation_global(statistics, statistic=ns.statistic, B=b, seed=ns.seed)
    p_value, samples = result
    payload = {
        "n": statistics.n,
        "m": statistics.m,
        "statistic": ns.statistic,
        "observed": result.observed,
        "p_value": float(p_value),
        "draws": int(samples.size),
        "null_summary": {
            "mean": float(samples.mean()),
            "sd": float(samples.std(ddof=1)) if samples.size > 1 else None,
            "q05": float(np.quantile(samples, 0.05)),
            "q50": float(np.quantile(samples, 0.50)),
            "q95": float(np.quantile(samples, 0.95)),
        },
    }
    header = ("draw", "statistic")
    rows = enumerate(samples.tolist())
    svg_text = None
    if _want_svg(ns):
        svg_text = svg.histogram_svg(
            samples, bins=min(50, max(5, samples.size // 20)),
            thresholds=[(result.observed, "observed")],
            title=f"{ns.statistic} permutation null (p={p_value:.3g})",
            xlabel="statistic", desc=_desc(manifest),
        )
    return Report(payload, header, rows, svg_text)


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    parser = _Parser(prog="nctest",
                     description="Multiple testing with negative control statistics.")
    parser.add_argument("--version", action="version", version=f"nctest {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def common(p, infile=True):
        if infile:
            p.add_argument("--in", dest="infile", metavar="PATH",
                           help="input CSV with columns id,value,role")
            p.add_argument("--direction", choices=("small", "large"), default="small",
                           help="which tail of the input values carries evidence")
        p.add_argument("--out", metavar="DIR",
                       help="write a report bundle here instead of stdout "
                            "(a path ending in .csv writes that file plus siblings)")
        p.add_argument("--plots", choices=("none", "svg"), default="none",
                       help="emit an SVG plot alongside the CSV (needs --out)")
        p.add_argument("--seed", type=int, default=0, help="random seed")

    p = sub.add_parser("analyze", help="rank-based p-values plus a testing procedure")
    common(p)
    p.add_argument("--procedure", default="bh",
                   choices=("bh", "holm", "hochberg", "lr", "bonferroni", "simes", "stepup"))
    p.add_argument("--q", type=float, help="FDR level (bh, stepup; default 0.1)")
    p.add_argument("--alpha", type=float, help="error level (default 0.05)")
    p.add_argument("--gamma", type=float, default=0.1,
                   help="false discovery proportion bound for lr")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="tuning parameter for stepup (default 1)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stepup", help="FDR step-up threshold on the statistic scale")
    common(p)
    p.add_argument("--q", type=float, help="FDR level (default 0.1)")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="null-proportion tuning parameter (default 1)")
    p.set_defaults(func=cmd_stepup)

    p = sub.add_parser("localfdr", help="local-FDR threshold by ECDF comparison")
    common(p)
    p.add_argument("--q", type=float, help="local-FDR level")
    p.add_argument("--pi", type=float, help="assumed null proportion")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="weight on the investigation ECDF (overrides --q/--pi)")
    p.set_defaults(func=cmd_localfdr)

    p = sub.add_parser("null-fit", help="fit null models and check calibration")
    common(p)
    p.add_argument("--q", type=float, help="BH level for the rejection-count column")
    p.add_argument("--sources", default="test,all,nc",
                   help="comma list from {test,all,nc}")
    p.add_argument("--methods", default="mad1,mad2,efron,ecdf",
                   help="comma list from {mad1,mad2,efron,ecdf}")
    p.add_argument("--bins", type=int, default=60, help="histogram bins for efron")
    p.add_argument("--degree", type=int, default=4, help="log-density degree for efron")
    p.set_defaults(func=cmd_null_fit)

    p = sub.add_parser("falsify", help="compare negative-control subgroups")
    common(p)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("simulate", help="run a canned simulation study")
    common(p, infile=False)
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--reps", type=int,
                   help="replications (b1: Monte-Carlo draws; simes-perm: samples)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("permtest", help="permutation test of the global null")
    common(p)
    p.add_argument("--statistic", default="simes_min_ratio",
                   choices=("simes_min_ratio", "fisher"))
    p.add_argument("--reps", type=int, help="permutation draws (default 999)")
    p.set_defaults(func=cmd_permtest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "subcommand", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        if getattr(ns, "reps", None) is not None and ns.reps < 1:
            raise UsageError("--reps must be positive")
        if ns.seed < 0:
            raise UsageError("--seed must be non-negative")
        if getattr(ns, "plots", "none") == "svg" and getattr(ns, "out", None) is None:
            raise UsageError("--plots svg requires --out")
        manifest = build_manifest(ns.subcommand, ns)
        report = ns.func(ns, manifest)
        _emit(report, manifest, ns)
        return 0
    except UsageError as exc:
        print(f"nctest: usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"nctest: data error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"nctest: data error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(run())
