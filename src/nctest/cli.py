"""Command-line front end.

Subcommands run analyses on user CSVs (analyze, stepup, localfdr,
null-fit, falsify, permtest) or canned simulation studies (simulate).
Results go to stdout as JSON, or into --out as a bundle of JSON, CSV
and optional SVG.  Every output embeds or references a run manifest so
a report can be traced back to the exact invocation.  Every JSON payload
lists, under "warnings", the messages the library raised while computing it.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import io
import itertools
import json
import math
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii

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
SCHEMA_VERSION = 5
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


class Spliced:
    """Placeholder in a payload for report columns that the JSON carries.

    values is the index of a column in Report.columns, written as a JSON
    array; with keys, the index of a column of strings, the two columns
    are written as one JSON object from key to value.
    """

    def __init__(self, values: int, keys: int | None = None):
        self.values = values
        self.keys = keys


def _cut_json(payload):
    # a placeholder is a JSON string that the payload may hold as data too,
    # so a new marker is tried until each placeholder occurs exactly once
    for attempt in itertools.count():
        splices = []

        def placeholder(obj):
            if isinstance(obj, Spliced):
                splices.append(obj)
                return f"@nctest-column-{attempt}-{len(splices) - 1}"
            return _json_default(obj)

        text = json.dumps(payload, default=placeholder, separators=(",", ":"), allow_nan=False)
        marks = [f'"@nctest-column-{attempt}-{k}"' for k in range(len(splices))]
        if all(text.count(mark) == 1 for mark in marks):
            break
    pieces = []
    for mark in marks:
        head, text = text.split(mark)
        pieces.append(head)
    return pieces + [text], splices


def _json_pieces(payload):
    """Compact strict JSON of payload, cut where its Spliced placeholders go.

    Returns the text pieces and the placeholders in text order: the
    JSON is pieces[0], the first placeholder's text, pieces[1], and so
    on.  The C encoder walks the payload, converting numpy values
    through _json_default.  It refuses a NaN or inf float, and only then
    does the payload take the element-by-element walk of _jsonify,
    which writes them as null.
    """
    try:
        return _cut_json(payload)
    except ValueError:
        return _cut_json(_jsonify(payload))


def _json_text(payload) -> str:
    """Compact strict JSON, with NaN and inf written as null."""
    (text,), _ = _json_pieces(payload)
    return text


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

    columns are the CSV's per-row columns, aligned with header: numpy
    arrays (a masked entry is a missing value) or sequences of Python
    values.  Missing values and None are written empty in the CSV and
    null in the JSON; floats are written by repr in the CSV, and NaN and
    inf as null in the JSON.  The payload holds Spliced placeholders for
    the columns that the JSON carries too.
    """

    def __init__(self, payload, header, columns, svg_text=None):
        if len({len(column) for column in columns}) > 1:
            raise ValueError("report columns differ in length")
        self.payload = payload
        self.header = header
        self.columns = columns
        self.svg_text = svg_text


# rows formatted at a time: each value is formatted once per chunk and the
# strings serve the CSV line and the JSON fragment, so only the chunk's
# strings and the joined fragments the JSON still needs are held
_CHUNK = 4096
# fields csv.writer writes as they are; any other string is quoted by it
_PLAIN = re.compile(r"[\w.+\-:/@]*", re.ASCII)


def _csv_quoted(text: str) -> str:
    if "\r" in text:
        # csv.writer leaves a carriage return unquoted before Python 3.12,
        # and a reader would end the row there
        return '"' + text.replace('"', '""') + '"'
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((text, ""))
    return line.getvalue()[:-2]  # the empty second field and the line end


def _csv_text(value) -> str:
    """The field csv.writer writes for one value of a row of several fields."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value if _PLAIN.fullmatch(value) else _csv_quoted(value)
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _json_value(value) -> str:
    return encode_basestring_ascii(value) if isinstance(value, str) else _json_text(value)


def _cell_texts(chunk):
    """CSV and JSON texts of a chunk of one column."""
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind == "f":
        if hasattr(chunk, "mask"):  # only a masked chunk loads numpy.ma
            data, missing = np.ma.getdata(chunk), np.ma.getmaskarray(chunk)
        else:
            data, missing = chunk, np.zeros(chunk.shape, dtype=bool)
        texts = list(map(float.__repr__, data.tolist()))
        null = np.flatnonzero(missing | ~np.isfinite(data)).tolist()
        if not null:
            return texts, texts
        json_texts = texts.copy()
        for k in null:
            json_texts[k] = "null"
        for k in np.flatnonzero(missing).tolist():
            texts[k] = ""
        return texts, json_texts
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu":
        texts = list(map(str, chunk.tolist()))
        return texts, texts
    values = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
    try:
        plain = _PLAIN.fullmatch("".join(values))
    except TypeError:  # not every value is a string
        plain = None
    if plain:
        # every string is plain, so it is its own CSV field and needs no JSON escape
        return values, list(map('"{}"'.format, values))
    return list(map(_csv_text, values)), list(map(_json_value, values))


def _format_rows(report: Report, splices: list, write=None) -> list:
    """Format the report's rows once, chunk by chunk.

    The CSV lines go to write, if given.  Returns, for each placeholder
    in splices, the JSON fragments of its columns, one per chunk.
    """
    columns = report.columns
    spliced = {k for splice in splices for k in (splice.values, splice.keys) if k is not None}
    fragments = [[] for _ in splices]
    rows = len(columns[0]) if columns else 0
    for lo in range(0, rows, _CHUNK):
        texts = {k: _cell_texts(column[lo:lo + _CHUNK])
                 for k, column in enumerate(columns) if write is not None or k in spliced}
        if write is not None:
            lines = zip(*(texts[k][0] for k in range(len(columns))))
            write("\n".join(map(",".join, lines)) + "\n")
        for splice, parts in zip(splices, fragments):
            values = texts[splice.values][1]
            if splice.keys is not None:
                values = map(":".join, zip(texts[splice.keys][1], values))
            parts.append(",".join(values))
    return fragments


def _write_json(pieces: list, splices: list, fragments: list, write) -> None:
    write(pieces[0])
    for piece, splice, parts in zip(pieces[1:], splices, fragments):
        write("[" if splice.keys is None else "{")
        for k, part in enumerate(parts):
            write("," + part if k else part)
        write("]" if splice.keys is None else "}")
        write(piece)
    write("\n")


@contextlib.contextmanager
def _replacing(paths):
    """Temporary siblings of paths, each moved over its path once all are written.

    A failure before then leaves every path as it was and removes the
    temporary files.
    """
    temps = {path: os.path.join(os.path.dirname(path),
                                f".{os.path.basename(path)}.{os.getpid()}.tmp")
             for path in paths}
    try:
        yield temps
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _emit(report: Report, manifest: dict, ns: argparse.Namespace) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **report.payload, "manifest": manifest}
    pieces, splices = _json_pieces(payload)
    out = getattr(ns, "out", None)
    if out is None:
        # everything is formatted before the first write
        fragments = _format_rows(report, splices)
        _write_json(pieces, splices, fragments, sys.stdout.write)
        return
    if out.endswith(".csv"):
        stem = out[: -len(".csv")]
        csv_path, json_path = out, stem + ".json"
        extra = {stem + ".svg": report.svg_text}
    else:
        csv_path = os.path.join(out, "result.csv")
        json_path = os.path.join(out, "result.json")
        extra = {os.path.join(out, "manifest.json"): _json_text(manifest) + "\n",
                 os.path.join(out, "plot.svg"): report.svg_text}
    extra = {path: text for path, text in extra.items() if text is not None}
    os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
    with _replacing([csv_path, json_path, *extra]) as temps:
        with open(temps[csv_path], "w", encoding="utf-8", newline="") as fh:
            fh.write(_stable_manifest_line(manifest) + "\n")
            fh.write(",".join(map(_csv_text, report.header)) + "\n")
            fragments = _format_rows(report, splices, fh.write)
        with open(temps[json_path], "w", encoding="utf-8") as fh:
            _write_json(pieces, splices, fragments, fh.write)
        for path, text in extra.items():
            with open(temps[path], "w", encoding="utf-8") as fh:
                fh.write(text)


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
    payload = {
        "procedure": ns.procedure,
        "n": statistics.n,
        "m": statistics.m,
        "pvalue_kind": p.kind,
        "pvalues": Spliced(2, keys=0),
        "result": outcome,
    }
    header = ("id", "statistic", "pvalue", "rejected")
    # p follows the investigation rows, so the columns line up by position
    columns = (p.ids, statistics.investigation, p.values, rejected)
    svg_text = None
    if _want_svg(ns):
        marks = [] if threshold is None else [(threshold, "p cutoff")]
        svg_text = svg.histogram_svg(
            p.values, bins=min(40, max(5, statistics.n // 2)), thresholds=marks,
            title=f"{ns.procedure}: {int(rejected.sum())} rejections",
            xlabel="rank-based p-value", desc=_desc(manifest),
        )
    return Report(payload, header, columns, svg_text)


# ----------------------------------------------------------------- stepup


def _stepup_report(ns, manifest, statistics) -> Report:
    q = 0.1 if ns.q is None else ns.q
    lam = 1.0 if ns.lam is None else ns.lam
    result = stepup_threshold(statistics, lam=lam, q=q)
    payload = {"n": statistics.n, "m": statistics.m, "result": result.to_dict()}
    header = ("threshold", "fdr_hat")
    curve = result.fdr_curve
    columns = ((), ())
    if curve is not None:
        columns = (curve.breakpoints, curve.values)
        payload["result"]["fdr_curve"].update(breakpoints=Spliced(0), values=Spliced(1))
    svg_text = None
    if _want_svg(ns):
        marks = [] if result.tau_statistic is None else [(result.tau_statistic, "tau")]
        svg_text = svg.histogram_svg(
            statistics.investigation, bins=min(40, max(5, statistics.n // 2)),
            thresholds=marks, title=f"step-up at q={q:g}: {result.n_rejected} rejections",
            xlabel="statistic", desc=_desc(manifest),
        )
    return Report(payload, header, columns, svg_text)


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
    # the boundary row that rejects nothing comes first: no t, objective 0
    columns = (np.ma.concatenate([np.ma.masked_all(1), result.candidates]),
               np.concatenate([[0.0], result.objective]))
    threshold["objective_at_candidates"] = {"t": Spliced(0), "objective": Spliced(1)}
    svg_text = None
    if _want_svg(ns):
        marks = [] if result.tau_hat is None else [(result.tau_hat, "tau")]
        svg_text = svg.step_curve_svg(
            result.candidates, result.objective, left_value=0.0,
            thresholds=marks, title=f"objective at lambda={lam:g}",
            xlabel="candidate threshold", ylabel="objective", desc=_desc(manifest),
        )
    return Report(payload, header, columns, svg_text)


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
    columns = [[row[key] for row in table] for key in header]
    svg_text = None
    if _want_svg(ns):
        svg_text = svg.histogram_svg(
            statistics.investigation, bins=min(60, max(5, statistics.n // 5)),
            title="investigation statistics", xlabel="statistic", desc=_desc(manifest),
        )
    return Report(payload, header, columns, svg_text)


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
    rows = [(a, b, float(report.pvalues[i, j]))
            for i, a in enumerate(report.subgroups)
            for j, b in enumerate(report.subgroups) if j > i]
    worst = min(rows, key=lambda row: row[2], default=None)
    svg_text = None
    if _want_svg(ns) and worst is not None:
        qa, qb = report.qq[(worst[0], worst[1])]
        svg_text = svg.qq_svg(
            qa, qb, title=f"{worst[0]} vs {worst[1]} (KS p={worst[2]:.3g})",
            xlabel=worst[0], ylabel=worst[1], desc=_desc(manifest),
        )
    return Report(payload, header, list(zip(*rows)), svg_text)


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
                float(stats["fdr"]), float(stats["fdr_sd"]),
                float(stats["power"]), float(stats["power_sd"]),
            ))
    return header, rows


def _power_rows(curves: dict):
    header = ("m", "method", "power")
    rows = []
    methods = [name for name in curves if name != "m"]
    for k, m in enumerate(curves["m"]):
        for method in methods:
            rows.append((m, method, float(curves[method][k])))
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
        rows = [("p_a", float(exact[0]), float(mc[0])),
                ("p_b", float(exact[1]), float(mc[1]))]
    elif preset == "b2":
        reps = 1000 if ns.reps is None else ns.reps
        chi2_rate, perm_rate = fisher_miscalibration_demo(reps=reps, seed=seed)
        payload = {"preset": preset, "reps": reps,
                   "chi2_reject_rate": chi2_rate, "perm_reject_rate": perm_rate}
        header = ("calibration", "reject_rate")
        rows = [("chi2", float(chi2_rate)), ("permutation", float(perm_rate))]
    elif preset == "simes-perm":
        if ns.reps is not None:
            raise UsageError("simes-perm is exact and takes no --reps")
        rates = simes_permutation_diagnostic()
        payload = {"preset": preset, "reject_rates": {str(m): rate for m, rate in rates.items()}}
        header = ("m", "reject_rate")
        rows = [(m, float(rate)) for m, rate in sorted(rates.items())]
    else:  # argparse choices make this unreachable
        raise UsageError(f"unknown preset {preset!r}")
    svg_text = None
    if _want_svg(ns) and preset in ("power-vs-m", "power-vs-m-weak"):
        svg_text = svg.step_curve_svg(
            curves["m"], curves["bh_ranc"],
            title=f"{preset}: rank-based BH power", xlabel="control pool size",
            ylabel="mean true-positive rate", desc=_desc(manifest),
        )
    return Report(payload, header, list(zip(*rows)), svg_text)


# ---------------------------------------------------------------- permtest


def cmd_permtest(ns, manifest) -> Report:
    statistics = _load(ns)
    b = 999 if ns.reps is None else ns.reps
    result = permutation_global(statistics, statistic=ns.statistic, B=b, seed=ns.seed)
    p_value, samples = result
    # an exact Simes p-value is counted: no sample to summarise, write or plot
    counted = samples.size == 0
    payload = {
        "n": statistics.n,
        "m": statistics.m,
        "statistic": ns.statistic,
        "observed": result.observed,
        "p_value": float(p_value),
        "draws": result.draws,
        "null_summary": None if counted else {
            "mean": float(samples.mean()),
            "sd": float(samples.std(ddof=1)) if samples.size > 1 else None,
            "q05": float(np.quantile(samples, 0.05)),
            "q50": float(np.quantile(samples, 0.50)),
            "q95": float(np.quantile(samples, 0.95)),
        },
    }
    header = ("draw", "statistic")
    columns = (np.arange(samples.size), samples)
    svg_text = None
    if _want_svg(ns) and counted:
        warnings.warn("the exact Simes p-value is counted without a null sample; no plot written")
    elif _want_svg(ns):
        svg_text = svg.histogram_svg(
            samples, bins=min(50, max(5, samples.size // 20)),
            thresholds=[(result.observed, "observed")],
            title=f"{ns.statistic} permutation null (p={p_value:.3g})",
            xlabel="statistic", desc=_desc(manifest),
        )
    return Report(payload, header, columns, svg_text)


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
                   help="replications (b1: Monte-Carlo draws; simes-perm is exact and takes none)")
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
        # the library reports problems only as warnings; recording them is process-global,
        # which is safe because nctest runs on one thread
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = ns.func(ns, manifest)
        report.payload["warnings"] = list(dict.fromkeys(str(w.message) for w in caught))
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
