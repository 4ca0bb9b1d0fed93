import argparse
import ast
import csv
import hashlib
import importlib.resources
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest

from nctest import cli, procedures
from nctest.data import load_csv, make_statistic_set
from nctest.localfdr import cdf_threshold, localfdr_curve
from nctest.procedures import bh, permutation_global
from nctest.ranc import ranc_pvalues
from nctest.simulate import simes_permutation_diagnostic
from nctest.stepup import stepup_threshold
from test_golden import GOLDEN


def _schema(name):
    ref = importlib.resources.files("nctest.schemas").joinpath(f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload(capsys, args, schema=None):
    code, out, err = _run(capsys, args)
    assert code == 0, err
    payload = json.loads(out)
    if schema is not None:
        jsonschema.validate(payload, _schema(schema))
    return payload


def _golden(row_id):
    # a golden row's (argv, fixture, csv, svg, json), so each digest is written once
    (row,) = [p.values for p in GOLDEN if p.id == row_id]
    return row


# each bundle on the tied file keeps the CSV and SVG digests of its golden row
BUNDLES = {
    "analyze": "analyze-bh-tied",
    "localfdr": "localfdr-tied",
    "permtest": "permtest-fisher-tied",
    "stepup": "stepup-tied",
}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_bundle_bytes_pinned(capsys, tied_csv, tmp_path, name):
    argv, _, csv_digest, svg_digest, _ = _golden(BUNDLES[name])
    out = tmp_path / name
    code, _, err = _run(capsys, argv.split() + ["--in", tied_csv, "--out", str(out)])
    assert code == 0, err
    body = (out / "result.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == csv_digest
    plot = re.sub(rb"<desc>.*</desc>\n", b"", (out / "plot.svg").read_bytes())
    assert hashlib.sha256(plot).hexdigest() == svg_digest
    text = (out / "result.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    jsonschema.validate(json.loads(text), _schema(name))


@pytest.fixture
def missing_csv(tmp_path):
    return str(tmp_path / "missing.csv")


@pytest.fixture
def no_controls_csv(tmp_path, pool_csv):
    return pool_csv(tmp_path / "no_controls.csv", [1.0, 2.0], [])


_USAGE, _DATA = "nctest: usage error: ", "nctest: data error: "
_NO_FILE = _DATA + "[Errno 2] No such file or directory: {path!r}"
_Q_RANGE = _DATA + "q must lie strictly between 0 and 1"

# every way the CLI fails, by id: (argv, fixture passed as --in, exit code, the
# one stderr line).  nctest's own messages match exactly; a line ending in "..." is
# argparse's wording, which differs between Python versions, matched up to the dots
FAILURES = {
    "no-subcommand": ("", None, 1, _USAGE + "a subcommand is required (see --help)"),
    "unknown-flag": ("analyze --nope", "toy_csv", 1, _USAGE + "unrecognized arguments..."),
    "unknown-preset": ("simulate --preset bogus", None, 1,
                       _USAGE + "argument --preset: invalid choice..."),
    "no-preset": ("simulate", None, 1, _USAGE + "the following arguments are required..."),
    # main's flag checks, then each subcommand's own: every usage error comes before
    # the input is hashed or read, so a missing file does not hide one
    "reps-zero": ("simulate --preset table1 --reps 0", None, 1, _USAGE + "--reps must be positive"),
    "seed-negative": ("simulate --preset table1 --seed -1", None, 1,
                      _USAGE + "--seed must be non-negative"),
    "seed-negative-before-load": ("permtest --reps 50 --seed -3", "missing_csv", 1,
                                  _USAGE + "--seed must be non-negative"),
    "plots-without-out": ("analyze --plots svg", "toy_csv", 1,
                          _USAGE + "--plots svg requires --out"),
    **{f"in-required-{command}": (command, None, 1, _USAGE + "--in is required for this subcommand")
       for command in ("analyze", "stepup", "localfdr", "null-fit", "falsify", "permtest")},
    "localfdr-no-level": ("localfdr", "toy_csv", 1,
                          _USAGE + "localfdr needs --lambda, or --q together with --pi"),
    "localfdr-no-level-before-load": ("localfdr", "missing_csv", 1,
                                      _USAGE + "localfdr needs --lambda, or --q together with --pi"),
    "unknown-source": ("null-fit --sources bogus", "rich_csv", 1,
                       _USAGE + "unknown source 'bogus'"),
    "unknown-method": ("null-fit --methods bogus", "rich_csv", 1,
                       _USAGE + "unknown method 'bogus'"),
    "null-fit-unknown-method-before-load": ("null-fit --methods bogus", "missing_csv", 1,
                                            _USAGE + "unknown method 'bogus'"),
    "no-source": ("null-fit --sources ,", "rich_csv", 1, _USAGE + "no source given"),
    "null-fit-no-source-before-load": ("null-fit --sources ,", "missing_csv", 1,
                                       _USAGE + "no source given"),
    "no-method": ("null-fit --methods ,", "rich_csv", 1, _USAGE + "no method given"),
    "simes-perm-reps": ("simulate --preset simes-perm --reps 2000", None, 1,
                        _USAGE + "simes-perm is exact and takes no --reps"),
    # reading the input
    "missing-file": ("analyze", "missing_csv", 2, _NO_FILE),
    "no-controls": ("analyze", "no_controls_csv", 2, _DATA + "no negative controls (role=nc)"),
    # a level the library rejects is a data error, raised on the loaded input
    "localfdr-q-nan": ("localfdr --lambda 0.5 --q nan", "toy_csv", 2, _Q_RANGE),
    "localfdr-q-negative": ("localfdr --lambda 0.5 --q -5", "toy_csv", 2, _Q_RANGE),
    "localfdr-q-inf": ("localfdr --q inf --pi 0.5", "toy_csv", 2, _Q_RANGE),
    "localfdr-pi-zero": ("localfdr --q 0.2 --pi 0", "toy_csv", 2, _DATA + "pi must lie in (0, 1]"),
    **{f"null-fit-q-{q}": (f"null-fit --q {q}", "rich_csv", 2, _Q_RANGE)
       for q in ("0", "1", "5", "nan")},
    # one draw leaves a conditioning event of the b1 fixture empty
    "b1-one-draw": ("simulate --preset b1 --reps 1", None, 2,
                    _DATA + "1 draws leave a conditioning event empty; use more draws"),
}


@pytest.mark.parametrize("argv, fixture, code, line", FAILURES.values(), ids=FAILURES)
def test_failures(request, capsys, argv, fixture, code, line):
    args, path = argv.split(), None
    if fixture is not None:
        path = request.getfixturevalue(fixture)
        args += ["--in", path]
    got, out, err = _run(capsys, args)
    assert (got, out) == (code, ""), err
    line = line.format(path=path)
    if line.endswith("..."):
        assert err.startswith(line[:-3]) and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == line + "\n"


def _usage_error_starts():
    """The literal start of each UsageError message that cli.py writes out."""
    tree = ast.parse(inspect.getsource(cli))
    starts = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "UsageError" and node.args):
            continue
        message = node.args[0]
        if isinstance(message, ast.JoinedStr) and message.values:
            message = message.values[0]
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            starts.append(message.value)
    return starts


def test_every_usage_error_has_a_failure_row():
    # a new usage rule cannot land without a row that pins its exit code and line
    starts = _usage_error_starts()
    assert len(starts) >= 9  # the messages cli.py writes today; fewer means the walk missed some
    lines = [line for _, _, code, line in FAILURES.values() if code == 1]
    assert [s for s in starts if not any(line.startswith(_USAGE + s) for line in lines)] == []


_TIED_REJECTED = ["t0", "t1", "t10", "t12", "t2", "t26", "t28", "t29", "t3", "t4", "t5", "t6", "t7"]


# the threshold fields of the stepup JSON, spelled out; "nothing rejected" is
# tau null with n_rejected 0, not a warning
@pytest.mark.parametrize("lam, q, expected", [
    ("0.5", "0.2", (0.031746031746031744, -1.9, 0.8823529411764706, _TIED_REJECTED, [])),
    ("1", "0.2", (0.031746031746031744, -1.9, 1.0, _TIED_REJECTED, [])),
    ("0.5", "0.05", (None, None, 0.8823529411764706, [], [])),
])
def test_stepup_threshold_json_pinned(capsys, tied_csv, lam, q, expected):
    payload = _payload(
        capsys, ["stepup", "--in", tied_csv, "--lambda", lam, "--q", q], schema="stepup"
    )
    result = payload["result"]
    keys = ("tau", "tau_statistic", "pi_hat", "rejected_ids")
    assert (*(result[k] for k in keys), payload["warnings"]) == expected
    assert result["n_rejected"] == len(expected[3])


def _refuse_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def test_json_text_writes_non_finite_as_null():
    finite = np.linspace(-1.0, 1.0, 100_001)
    holes = finite.copy()
    holes[[3, 70_000]] = [np.nan, -np.inf]
    payload = {
        "finite": finite, "holes": holes, "scalar": float("inf"),
        "nested": [{"x": np.float64("nan")}], "count": np.int64(3), "flag": np.bool_(True),
    }
    text = cli._json_text(payload)
    assert "\n" not in text
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed["finite"] == [float(x) for x in finite]
    assert parsed["holes"][3] is None and parsed["holes"][70_000] is None
    kept = [k for k in range(finite.size) if k not in (3, 70_000)]
    assert [parsed["holes"][k] for k in kept] == [parsed["finite"][k] for k in kept]
    assert parsed["scalar"] is None
    assert parsed["nested"] == [{"x": None}]
    assert parsed["count"] == 3 and parsed["flag"] is True
    assert json.loads(cli._json_text({"finite": finite})) == {"finite": parsed["finite"]}


def _per_row_csv(header, rows):
    # the per-row writer the bundle's CSV must keep matching: csv.writer
    # writes floats by repr, None empty, and quotes what needs it
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit_bundle(report, out):
    cli._emit(report, {"flags": {}}, argparse.Namespace(out=str(out)))
    body = (out / "result.csv").read_text(encoding="utf-8").split("\n", 1)[1]
    return body, (out / "result.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("rows", [4, 5, 6])
def test_chunk_edges_match_the_per_row_writer(monkeypatch, tmp_path, rows):
    # one short of a chunk, one chunk and one past it, at a chunk of 5 rows
    monkeypatch.setattr(cli, "_CHUNK", 5)
    rng = np.random.default_rng(rows)
    ids = tuple(f"t{k}" for k in range(rows))
    x, count = rng.normal(size=rows), np.arange(rows)
    levels = np.array([0.25, -0.0, np.nan, 1e-300])
    codes = rng.integers(0, levels.size, size=rows)
    header = ("id", "x", "count", "level")
    payload = {"x": cli.Spliced(1), "by_id": cli.Spliced(1, keys=0), "count": cli.Spliced(2),
               "level": cli.Spliced(3, keys=0)}
    columns = (ids, x, count, cli.Coded(codes, levels))
    body, text = _emit_bundle(cli.Report(payload, header, columns), tmp_path / "b")
    level = levels[codes].tolist()
    assert body == _per_row_csv(header, zip(ids, x.tolist(), count.tolist(), level))
    assert text == cli._json_text({
        "schema_version": 6, "x": x.tolist(), "by_id": dict(zip(ids, x.tolist())),
        "count": count.tolist(), "level": dict(zip(ids, level)), "manifest": {"flags": {}},
    }) + "\n"


@pytest.mark.parametrize("chunk", [
    ("t1", "c_2", "a.b+c-d:e/f@g", ""), ("t1", "a b"), ("t1", "a,b"), ('q"t',), ("x\ry",),
    ("café", "t2"), ("back\\slash",), ("tab\tx",), ("t1", None), ("t1", 2.5, 3),
])
def test_string_chunk_texts_are_those_of_each_value(chunk):
    # a chunk whose joined strings are plain skips the per-value check
    csv_texts, json_texts = cli._cell_texts(chunk)
    assert list(csv_texts) == [cli._csv_text(value) for value in chunk]
    assert list(json_texts) == [cli._json_value(value) for value in chunk]


def test_writer_keeps_non_finite_text_in_the_csv(tmp_path):
    values = [1.5, float("nan"), float("inf"), -float("inf"), -0.0, 2.0]
    listed = values[:5] + [None]  # a missing value is None in a column of Python values
    header = ("label", "value", "listed")
    labels = list("abcdef")
    payload = {"value": cli.Spliced(1), "listed": cli.Spliced(2), "scalar": float("nan")}
    columns = (labels, np.array(values), listed)
    body, text = _emit_bundle(cli.Report(payload, header, columns), tmp_path / "b")
    assert body == _per_row_csv(header, zip(labels, values, listed))
    assert "nan,nan\n" in body and "-inf,-inf\n" in body and "f,2.0,\n" in body
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed["value"] == [1.5, None, None, None, -0.0, 2.0]
    assert parsed["listed"] == [1.5, None, None, None, -0.0, None]
    assert parsed["scalar"] is None


# the ids that need quoting, escaping or both, one per test row
_ODD_IDS = ["a,b", 'say "hi"', "multi\nline", "café", "back\\slash", "tab\tx"]


def test_ids_keep_their_csv_quoting(capsys, tmp_path):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "value", "role"])
    writer.writerows([name, repr(-1.0 - k / 10), "test"] for k, name in enumerate(_ODD_IDS))
    writer.writerows([f"c{k}", repr(k / 10), "nc"] for k in range(12))
    path = tmp_path / "odd.csv"
    path.write_text(out.getvalue(), encoding="utf-8")
    code, _, err = _run(capsys, ["analyze", "--in", str(path), "--out", str(tmp_path / "b")])
    assert code == 0, err
    body = (tmp_path / "b" / "result.csv").read_text(encoding="utf-8").split("\n", 1)[1]
    statistics = load_csv(str(path))
    p = ranc_pvalues(statistics)
    rejected = [1 if i in bh(p, 0.1).rejected else 0 for i in p.ids]
    rows = zip(p.ids, statistics.investigation.tolist(), p.values.tolist(), rejected)
    assert body == _per_row_csv(("id", "statistic", "pvalue", "rejected"), rows)
    assert list(p.ids) == _ODD_IDS
    pvalues = json.loads((tmp_path / "b" / "result.json").read_text(encoding="utf-8"))["pvalues"]
    assert pvalues == dict(zip(p.ids, p.values.tolist()))


def test_carriage_return_id_reads_back_as_one_field(capsys, tmp_path):
    lines = ["id,value,role", '"x\ry",-3.0,test'] + [f"t{k},{k / 10},test" for k in range(5)]
    lines += [f"c{k},{k / 7},nc" for k in range(20)]
    path = tmp_path / "cr.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert load_csv(str(path)).investigation_ids[0] == "x\ry"
    code, _, err = _run(capsys, ["analyze", "--in", str(path), "--out", str(tmp_path / "b")])
    assert code == 0, err
    with open(tmp_path / "b" / "result.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0] == ["id", "statistic", "pvalue", "rejected"]
    assert [row[0] for row in rows[1:]] == ["x\ry"] + [f"t{k}" for k in range(5)]
    assert {len(row) for row in rows} == {4}


def test_quoted_input_with_blank_lines_runs_clean(capsys, tmp_path):
    # blank lines, quoted fields and a byte-order mark leave no warning in the
    # payload, and the input hash covers the file's own bytes
    lines = ["\ufeffid,value,role", "", '"t,0",-3.0,test', '"t""1", 0.5 ,"test"', "", ""]
    lines += [f"t{k},{k / 10},test" for k in range(2, 8)]
    lines += [f'"c{k}",{k / 7},nc' for k in range(20)]
    data = ("\r\n".join(lines) + "\r\n").encode("utf-8")
    path = tmp_path / "quoted.csv"
    path.write_bytes(data)
    for args in (["analyze"], ["localfdr", "--q", "0.2", "--pi", "0.8"], ["stepup"]):
        payload = _payload(capsys, args + ["--in", str(path)])
        assert payload["warnings"] == []
        assert payload["manifest"]["input_sha256"] == hashlib.sha256(data).hexdigest()
    assert list(_payload(capsys, ["analyze", "--in", str(path)])["pvalues"])[:2] == ["t,0", 't"1']


def test_placeholder_text_in_ids_and_paths_is_kept(capsys, tmp_path, monkeypatch):
    # the first two markers _emit tries occur as data: as rejected ids and as the --in path
    ids = ["@nctest-column-0-0", "@nctest-column-0-1"]
    lines = ["id,value,role"] + [f"{name},{-5.0 - k},test" for k, name in enumerate(ids)]
    lines += [f"t{k},{k / 10 + 0.05},test" for k in range(6)]
    lines += [f"c{k},{k / 7},nc" for k in range(40)]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "@nctest-column-1-0").write_text("\n".join(lines) + "\n")
    args = ["analyze", "--in", "@nctest-column-1-0", "--q", "0.2"]
    code, out, err = _run(capsys, args)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("analyze"))
    expected = ranc_pvalues(load_csv("@nctest-column-1-0"))
    assert payload["pvalues"] == dict(zip(expected.ids, expected.values.tolist()))
    assert set(ids) <= set(payload["result"]["rejected_ids"])
    assert payload["manifest"]["flags"]["infile"] == "@nctest-column-1-0"


@pytest.mark.parametrize("args", [
    ["analyze", "--procedure", "bh", "--q", "0.2"], ["stepup", "--lambda", "0.5", "--q", "0.2"],
    ["localfdr", "--q", "0.2", "--pi", "0.8"], ["permtest", "--statistic", "fisher"],
])
def test_stdout_json_equals_the_bundle_json(capsys, tied_csv, tmp_path, args):
    def comparable(payload):
        flags = {k: v for k, v in payload["manifest"]["flags"].items() if k != "out"}
        manifest = {k: v for k, v in payload["manifest"].items() if k != "created_utc"}
        return {**payload, "manifest": {**manifest, "flags": flags}}

    args = args + ["--in", tied_csv]
    code, out, err = _run(capsys, args)
    assert code == 0, err
    for bundle, json_path in ((tmp_path / "b", tmp_path / "b" / "result.json"),
                              (tmp_path / "x.csv", tmp_path / "x.json")):
        assert cli.main(args + ["--out", str(bundle)]) == 0
        bundled = json.loads(json_path.read_text(encoding="utf-8"))
        assert comparable(bundled) == comparable(json.loads(out))


def test_failed_write_leaves_no_partial_file(capsys, tied_csv, tmp_path, monkeypatch):
    # a chunk of 3 rows; the fifth chunk's formatting fails in the middle of the columns
    monkeypatch.setattr(cli, "_CHUNK", 3)
    cell_texts, calls = cli._cell_texts, []

    def failing(chunk):
        calls.append(len(chunk))
        if len(calls) == 18:
            raise RuntimeError("formatting failed")
        return cell_texts(chunk)

    monkeypatch.setattr(cli, "_cell_texts", failing)
    out = tmp_path / "b"
    out.mkdir()
    (out / "result.json").write_text("old\n")
    args = ["analyze", "--in", tied_csv, "--procedure", "bh"]
    for extra in (["--plots", "svg", "--out", str(out)],
                  ["--plots", "svg", "--out", str(tmp_path / "x.csv")], []):
        calls.clear()
        with pytest.raises(RuntimeError, match="formatting failed"):
            cli.main(args + extra)
        assert capsys.readouterr().out == ""
    assert sorted(os.listdir(out)) == ["result.json"]
    assert (out / "result.json").read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["b", "tied.csv"]


def test_analyze_bh_matches_library(capsys, toy_csv):
    payload = _payload(
        capsys,
        ["analyze", "--in", toy_csv, "--procedure", "bh", "--q", "0.2"],
        schema="analyze",
    )
    expected = bh(ranc_pvalues(load_csv(toy_csv)), 0.2)
    assert expected.n_rejected > 0
    assert sorted(payload["result"]["rejected_ids"]) == sorted(expected.rejected)
    assert payload["result"]["n_rejected"] == expected.n_rejected
    assert payload["pvalue_kind"] == "ranc"


def test_analyze_json_rebuilds_the_audit(capsys, tied_csv):
    # schema v2 left the audit out: the pvalues map and q determine it
    payload = _payload(
        capsys, ["analyze", "--in", tied_csv, "--procedure", "bh", "--q", "0.2"], schema="analyze"
    )
    assert payload["schema_version"] == 6
    result = payload["result"]
    assert "audit" not in result
    pvalues, q = payload["pvalues"], result["parameters"]["q"]
    order = sorted(pvalues, key=lambda i: (pvalues[i], i))
    n = len(order)
    rebuilt = {
        "sorted_pvalues": tuple(pvalues[i] for i in order),
        "boundaries": tuple(q * i / n for i in range(1, n + 1)),
        "order": tuple(order),
    }
    with pytest.warns(RuntimeWarning, match="21 investigation value"):
        expected = bh(ranc_pvalues(load_csv(tied_csv)), 0.2)
    assert rebuilt == expected.audit
    assert result["n_rejected"] == expected.n_rejected > 0
    assert result["rejected_ids"] == order[: result["n_rejected"]]


def test_localfdr_json_columns_are_the_csv_rows(capsys, tied_csv, tmp_path):
    s = load_csv(tied_csv)
    header = ("id", "statistic", "qhat", "rejected")
    for levels, curve in ((("--q", "0.2", "--pi", "0.8"), localfdr_curve(s, 0.8)),
                          (("--lambda", "0.3"), None)):
        out = tmp_path / levels[0][2:]
        code, _, err = _run(capsys, ["localfdr", "--in", tied_csv, *levels, "--out", str(out)])
        assert code == 0, err
        payload = json.loads((out / "result.json").read_text())
        assert "objective_at_candidates" not in payload["threshold"]
        body = (out / "result.csv").read_text(encoding="utf-8").split("\n", 1)[1]
        rows = list(csv.reader(io.StringIO(body)))[1:]
        # the JSON map is the CSV's id and qhat columns as repr text, NaN written null
        assert [[i, "nan" if v is None else repr(v)] for i, v in payload["qhat"].items()] == \
            [row[::2] for row in rows]
        # the rows are the per-row writer's, in input order: q_hat is the library
        # curve's value at each statistic, NaN in every row without a curve
        qhat = np.full(s.n, np.nan) if curve is None else curve.value_at(s.investigation)
        result = cdf_threshold(s, payload["threshold"]["lambda"])
        rejected = [int(i in result.rejected) for i in s.investigation_ids]
        assert sum(rejected) == payload["threshold"]["n_rejected"] > 0
        assert body == _per_row_csv(header, zip(s.investigation_ids, s.investigation.tolist(),
                                                qhat.tolist(), rejected))
        assert any(v is not None for v in payload["qhat"].values()) == (curve is not None)


def test_schemas_refuse_the_v1_layout(capsys, tied_csv):
    analyze = _payload(capsys, ["analyze", "--in", tied_csv, "--procedure", "bh"], "analyze")
    localfdr = _payload(capsys, ["localfdr", "--in", tied_csv, "--lambda", "1.0"], "localfdr")
    stepup = _payload(capsys, ["stepup", "--in", tied_csv], "stepup")
    candidates = {"t": [None, -0.5], "objective": [0.0, -0.25]}
    unversioned = {k: v for k, v in analyze.items() if k != "schema_version"}
    unwarned = {k: v for k, v in stepup.items() if k != "warnings"}
    for name, payload in [
        ("analyze", {**analyze, "result": {**analyze["result"], "audit": {"order": []}}}),
        ("analyze", {**analyze, "schema_version": 1}),
        ("analyze", {**analyze, "schema_version": 2}),
        ("analyze", {**analyze, "schema_version": 3}),
        ("analyze", {**analyze, "schema_version": 4}),
        ("analyze", {**analyze, "schema_version": 5}),
        ("analyze", unversioned),
        ("localfdr", {**localfdr, "schema_version": 5}),
        # the v5 layout: the objective at every candidate, and no q_hat
        ("localfdr", {**{k: v for k, v in localfdr.items() if k != "qhat"},
                      "threshold": {**localfdr["threshold"],
                                    "objective_at_candidates": candidates}}),
        ("localfdr", {**localfdr, "threshold": {**localfdr["threshold"],
                                                "objective_at_candidates": candidates}}),
        ("localfdr", {k: v for k, v in localfdr.items() if k != "qhat"}),
        ("stepup", {**stepup, "result": {**stepup["result"], "diagnostics": []}}),
        ("stepup", unwarned),
    ]:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, _schema(name))
    for name in ("analyze", "falsify", "localfdr", "null-fit", "permtest", "simulate", "stepup"):
        schema = _schema(name)
        assert {"schema_version", "warnings"} <= set(schema["required"])
        assert schema["properties"]["schema_version"] == {"const": 6}
        assert schema["properties"]["warnings"] == {"type": "array", "items": {"type": "string"}}


_TIE_WARNING = ("{} investigation value(s) exactly tie a negative control; "
                "ties counted as below-or-equal (use with_jitter for a random break)")


@pytest.mark.parametrize("args", [
    "analyze --in {toy} --procedure bh", "analyze --in {toy} --procedure stepup",
    "stepup --in {toy}", "localfdr --in {toy} --q 0.2 --pi 0.8", "null-fit --in {toy}",
    "permtest --in {toy} --reps 50", "falsify --in {rich}",
    "simulate --preset table1 --reps 20", "simulate --preset power-vs-m --reps 20",
    "simulate --preset b1 --reps 20000", "simulate --preset b2 --reps 20",
    "simulate --preset simes-perm",
])
def test_clean_runs_have_no_warnings(capsys, toy_csv, rich_csv, args):
    # a stray numpy or scipy warning would show up here
    payload = _payload(capsys, args.format(toy=toy_csv, rich=rich_csv).split())
    assert payload["warnings"] == []


def test_analyze_reports_ties_in_warnings(capsys, tied_csv):
    code, out, err = _run(capsys, ["analyze", "--in", tied_csv, "--procedure", "bh"])
    assert (code, err) == (0, "")
    assert json.loads(out)["warnings"] == [_TIE_WARNING.format(21)]


def test_null_fit_warnings_reach_the_json_once_each(capsys, zero_mad_csv):
    # every cell warns again; the payload keeps each message once, in first-seen order
    code, out, err = _run(capsys, ["null-fit", "--in", zero_mad_csv])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("null-fit"))
    assert payload["warnings"] == ["degenerate sample: MAD scale is zero", _TIE_WARNING.format(7)]


def test_analyze_manifest_traces_invocation(capsys, toy_csv):
    payload = _payload(capsys, ["analyze", "--in", toy_csv, "--q", "0.2"])
    manifest = payload["manifest"]
    assert manifest["subcommand"] == "analyze"
    assert manifest["flags"]["q"] == 0.2
    assert manifest["flags"]["procedure"] == "bh"
    digest = hashlib.sha256(open(toy_csv, "rb").read()).hexdigest()
    assert manifest["input_sha256"] == digest
    assert manifest["seed"] == 0
    assert "created_utc" in manifest


def test_analyze_direction_flips_orientation(capsys, toy_csv, tmp_path):
    flipped = tmp_path / "flipped.csv"
    rows = open(toy_csv).read().splitlines()
    out = [rows[0]]
    for line in rows[1:]:
        rid, value, role = line.split(",")
        out.append(f"{rid},{-float(value)!r},{role}")
    flipped.write_text("\n".join(out) + "\n")
    small = _payload(capsys, ["analyze", "--in", toy_csv])
    large = _payload(capsys, ["analyze", "--in", str(flipped), "--direction", "large"])
    assert small["pvalues"] == large["pvalues"]


def test_analyze_global_test(capsys, toy_csv):
    # four signals at p = 1/16 put the Simes statistic at 12/16/4 = 0.1875
    payload = _payload(
        capsys,
        ["analyze", "--in", toy_csv, "--procedure", "simes", "--alpha", "0.2"],
        schema="analyze",
    )
    assert payload["result"]["reject_global"] is True
    assert payload["result"]["parameters"]["alpha"] == 0.2
    strict = _payload(
        capsys,
        ["analyze", "--in", toy_csv, "--procedure", "simes", "--alpha", "0.1"],
        schema="analyze",
    )
    assert strict["result"]["reject_global"] is False


def test_analyze_stepup_alias(capsys, toy_csv):
    payload = _payload(
        capsys,
        ["analyze", "--in", toy_csv, "--procedure", "stepup", "--q", "0.2"],
        schema="stepup",
    )
    expected = stepup_threshold(load_csv(toy_csv), lam=1.0, q=0.2)
    assert payload["result"]["n_rejected"] == expected.n_rejected


def test_stepup_bundle(capsys, toy_csv, tmp_path):
    out = tmp_path / "bundle"
    code, _, err = _run(
        capsys,
        ["stepup", "--in", toy_csv, "--q", "0.2", "--out", str(out), "--plots", "svg"],
    )
    assert code == 0, err
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "plot.svg", "result.csv", "result.json"]
    payload = json.loads((out / "result.json").read_text())
    jsonschema.validate(payload, _schema("stepup"))
    expected = stepup_threshold(load_csv(toy_csv), lam=1.0, q=0.2)
    assert sorted(payload["result"]["rejected_ids"]) == sorted(expected.rejected)
    first = (out / "result.csv").read_text().splitlines()[0]
    assert first.startswith("# manifest: ")
    stable = json.loads(first[len("# manifest: "):])
    assert stable["subcommand"] == "stepup"
    assert "created_utc" not in stable
    assert "out" not in stable["flags"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "stepup"
    ET.fromstring((out / "plot.svg").read_text())


def test_localfdr_matches_library(capsys, toy_csv):
    payload = _payload(
        capsys, ["localfdr", "--in", toy_csv, "--lambda", "1.0"], schema="localfdr"
    )
    expected = cdf_threshold(load_csv(toy_csv), 1.0)
    assert sorted(payload["threshold"]["rejected_ids"]) == sorted(expected.rejected)
    assert payload["threshold"]["tau_hat"] == expected.tau_hat
    assert "curve" not in payload


def test_localfdr_level_over_pi(capsys, toy_csv):
    payload = _payload(
        capsys,
        ["localfdr", "--in", toy_csv, "--q", "0.2", "--pi", "0.8"],
        schema="localfdr",
    )
    assert payload["threshold"]["lambda"] == pytest.approx(0.25)
    assert payload["curve"]["pi"] == 0.8


def test_null_fit_table(capsys, rich_csv, tmp_path):
    out = tmp_path / "nf"
    code, _, err = _run(capsys, ["null-fit", "--in", rich_csv, "--out", str(out)])
    assert code == 0, err
    payload = json.loads((out / "result.json").read_text())
    jsonschema.validate(payload, _schema("null-fit"))
    assert len(payload["table"]) == 12
    csv_lines = (out / "result.csv").read_text().splitlines()
    assert len(csv_lines) == 2 + 12


def test_null_fit_source_aliases(capsys, rich_csv):
    payload = _payload(
        capsys,
        ["null-fit", "--in", rich_csv, "--sources", "nc", "--methods", "mad2,ecdf"],
        schema="null-fit",
    )
    assert [row["source"] for row in payload["table"]] == ["negative_controls"] * 2
    assert [row["method"] for row in payload["table"]] == ["mad2", "ecdf"]


def test_falsify_output(capsys, rich_csv, tmp_path):
    out = tmp_path / "fal"
    code, _, err = _run(
        capsys, ["falsify", "--in", rich_csv, "--out", str(out), "--plots", "svg"]
    )
    assert code == 0, err
    payload = json.loads((out / "result.json").read_text())
    jsonschema.validate(payload, _schema("falsify"))
    assert payload["subgroups"] == ["east", "west"]
    assert payload["pvalues"][0][1] == payload["pvalues"][1][0]
    assert "east|west" in payload["qq"]
    ET.fromstring((out / "plot.svg").read_text())


def test_permtest_deterministic(capsys, toy_csv):
    args = ["permtest", "--in", toy_csv, "--reps", "200", "--seed", "3"]
    first = _payload(capsys, args, schema="permtest")
    second = _payload(capsys, args)
    assert first["p_value"] == second["p_value"]
    assert 0 < first["p_value"] <= 1
    assert first["statistic"] == "simes_min_ratio"
    assert first["null_summary"]["q05"] <= first["null_summary"]["q95"]


def test_permtest_exact_simes_is_counted(capsys, tmp_path, enumerate_simes, counted_pool_csv):
    # within the cap the p-value is a count: the enumerator's p, observed and orbit
    # size, with no sample to summarise, write or plot
    path = counted_pool_csv
    p, samples, observed = enumerate_simes(load_csv(path))
    assert samples.size == math.comb(25, 5)
    out = tmp_path / "exact"
    code, _, err = _run(capsys, ["permtest", "--in", path, "--plots", "svg", "--out", str(out)])
    assert code == 0, err
    payload = json.loads((out / "result.json").read_text())
    jsonschema.validate(payload, _schema("permtest"))
    assert payload["draws"] == math.comb(25, 5)
    assert (payload["p_value"], payload["observed"]) == (p, observed)
    assert payload["null_summary"] is None
    assert payload["warnings"] == [
        "the exact Simes p-value is counted without a null sample; no plot written"]
    assert (out / "result.csv").read_text().split("\n")[1:] == ["draw,statistic", ""]
    assert sorted(os.listdir(out)) == ["manifest.json", "result.csv", "result.json"]
    stdout = _payload(capsys, ["permtest", "--in", path], schema="permtest")
    assert {k: stdout[k] for k in ("p_value", "observed", "draws", "null_summary", "warnings")} == {
        "p_value": p, "observed": observed, "draws": math.comb(25, 5),
        "null_summary": None, "warnings": []}


def test_permtest_exact_path_never_enumerates(capsys, tmp_path, monkeypatch, pool_csv):
    # the two slowest pools under the cap: untied n = 3, m = 178 and, tied at
    # one decimal, n = 2, m = 1,400, where enumeration took seconds; neither the
    # CLI nor the library enumerates them
    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(procedures, "_mask_blocks", refuse)
    rng = np.random.default_rng(12)
    for n, m, decimals in ((3, 178, None), (2, 1400, 1)):
        tests, controls = rng.normal(size=n) - 1.0, rng.normal(size=m)
        if decimals is not None:
            tests, controls = np.round(tests, decimals), np.round(controls, decimals)
        path = pool_csv(tmp_path / f"pool{n}.csv", tests, controls)
        payload = _payload(capsys, ["permtest", "--in", path], schema="permtest")
        assert math.comb(n + m, n) <= procedures._MAX_ENUMERATION
        assert payload["draws"] == math.comb(n + m, n)
        assert 0 < payload["p_value"] <= 1
        result = permutation_global(make_statistic_set(tests, controls))
        assert (result.draws, result[1].size) == (math.comb(n + m, n), 0)


@pytest.mark.parametrize("statistic, n, m", [
    ("fisher", 5, 20), ("simes_min_ratio", 5, 20), ("simes_min_ratio", 12, 15)])
def test_permtest_reports_the_library_result(capsys, tmp_path, pool_csv, statistic, n, m):
    # permtest makes one permutation_global call: Fisher within the cap
    # enumerates, Simes within it counts and Simes above it samples
    rng = np.random.default_rng(7)
    tests, controls = np.round(rng.normal(size=n) - 0.5, 1), np.round(rng.normal(size=m), 1)
    path = pool_csv(tmp_path / "pool.csv", tests, controls)
    args = ["permtest", "--in", path, "--statistic", statistic, "--reps", "300", "--seed", "5"]
    payload = _payload(capsys, args, schema="permtest")
    result = permutation_global(make_statistic_set(tests, controls), statistic, B=300, seed=5)
    assert (payload["p_value"], payload["observed"], payload["draws"]) == (
        result[0], result.observed, result.draws)


def test_simulate_table1_byte_identical(capsys, tmp_path):
    # identical computation written to two places must match exactly
    out = tmp_path / "report.csv"
    other = tmp_path / "elsewhere" / "report.csv"
    base = ["simulate", "--preset", "table1", "--reps", "50", "--seed", "7"]
    code, _, err = _run(capsys, base + ["--out", str(out)])
    assert code == 0, err
    first = out.read_bytes()
    code, _, _ = _run(capsys, base + ["--out", str(other)])
    assert code == 0
    assert other.read_bytes() == first
    assert b"created_utc" not in first
    assert (tmp_path / "report.json").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(payload, _schema("simulate"))
    assert len(payload["cells"]) == 6


def test_simulate_b1(capsys):
    payload = _payload(
        capsys, ["simulate", "--preset", "b1", "--reps", "20000"], schema="simulate"
    )
    assert payload["exact"] == {"p_a": 4 / 9, "p_b": 5 / 12}
    assert payload["monte_carlo"] == {"p_a": 0.42842817748809225, "p_b": 0.40336912254720475}


def test_simulate_simes_perm(capsys, tmp_path):
    payload = _payload(
        capsys, ["simulate", "--preset", "simes-perm"], schema="simulate",
    )
    # schema v5: the rates are counted, so no sample size is reported
    assert set(payload) == {"schema_version", "preset", "reject_rates", "warnings", "manifest"}
    assert payload["reject_rates"] == {
        str(m): rate for m, rate in simes_permutation_diagnostic().items()
    }
    # the preset draws no plot, and says so under --plots svg
    out = tmp_path / "b"
    code, _, err = _run(
        capsys, ["simulate", "--preset", "simes-perm", "--plots", "svg", "--out", str(out)])
    assert code == 0, err
    assert json.loads((out / "result.json").read_text())["warnings"] == [
        "the simes-perm preset has no plot; no plot written"]
    assert not (out / "plot.svg").exists()


@pytest.mark.parametrize("reps, seed, rate", [(40, 9001, 0.05), (200, 0, 0.085)])
def test_simulate_b2_chi2_rate_pinned(capsys, reps, seed, rate):
    # the chi-square rate reads only the observed pools, not the permutation null
    payload = _payload(
        capsys, ["simulate", "--preset", "b2", "--reps", str(reps), "--seed", str(seed)]
    )
    assert payload["chi2_reject_rate"] == rate


def test_simulate_b2_benchmark_setting_pinned(tmp_path):
    # the b2 setting of the permutation benchmark workload, written to a file
    # rather than a bundle directory
    argv, _, csv_digest, _, _ = _golden("simulate-b2-40-9001")
    out = tmp_path / "b2.csv"
    assert cli.main(argv.split() + ["--out", str(out)]) == 0
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == csv_digest


def test_simulate_b2(capsys):
    payload = _payload(
        capsys, ["simulate", "--preset", "b2", "--reps", "20"], schema="simulate"
    )
    assert 0 <= payload["chi2_reject_rate"] <= 1
    assert 0 <= payload["perm_reject_rate"] <= 1


def test_simulate_power_curve(capsys, tmp_path):
    out = tmp_path / "power"
    code, _, err = _run(
        capsys,
        ["simulate", "--preset", "power-vs-m", "--reps", "20", "--out", str(out),
         "--plots", "svg"],
    )
    assert code == 0, err
    payload = json.loads((out / "result.json").read_text())
    jsonschema.validate(payload, _schema("simulate"))
    assert payload["m"] == [25, 50, 100, 200, 400]
    assert set(payload["power"]) == {"bh_raw", "bh_ranc", "bh_oracle"}
    ET.fromstring((out / "plot.svg").read_text())


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nctest.cli import run; sys.argv = ['nctest', '--version']; sys.exit(run())"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "nctest 0.1.0" in result.stdout


def test_python_m_nctest_runs():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "nctest", "--version"], capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "nctest 0.1.0" in result.stdout


def _fresh_process(script, *args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


# a module that the runs leave unloaded, and the runs, in one fresh process per module
_UNLOADED = {
    # the rank-based paths need only numpy; scipy loads where it is called
    "scipy": [
        "--version", "analyze --in {toy} --procedure bh --out {tmp}/a --plots svg",
        "localfdr --in {toy} --q 0.2 --pi 0.8 --out {tmp}/l --plots svg",
        "permtest --in {toy} --reps 200", "simulate --preset b1 --reps 2000",
        "simulate --preset simes-perm",
        *[f"simulate --preset {preset} --reps 20"
          for preset in ("b2", "table1", "power-vs-m", "power-vs-m-weak")],
    ],
    # no report column is a masked array, stepup's distinct values skip
    # np.unique, which asks np.ma.is_masked, and permtest's null quantiles
    # skip np.quantile, which runs np.unique
    "numpy.ma": [
        "analyze --in {toy} --procedure bh --out {tmp}/a", "analyze --in {toy} --procedure bh",
        "analyze --in {toy} --procedure holm --out {tmp}/h",
        "analyze --in {toy} --procedure stepup", "stepup --in {toy} --out {tmp}/s",
        "localfdr --in {toy} --q 0.2 --pi 0.8", "localfdr --in {toy} --lambda 0.5",
        "localfdr --in {toy} --q 0.2 --pi 0.8 --out {tmp}/l --plots svg",
        "localfdr --in {toy} --lambda 0.5 --out {tmp}/k --plots svg",
        "permtest --in {toy} --statistic fisher --reps 200",
        # C(27, 12) relabelings is above the enumeration cap: a Monte-Carlo Simes null
        "permtest --in {toy} --reps 200",
    ],
    # numpy.random loads with the first draw, not with the package
    "numpy.random": ["--version", "analyze --in {toy} --procedure bh --out {tmp}/a",
                     "permtest --in {small} --out {tmp}/p", "simulate --preset simes-perm"],
}


@pytest.mark.parametrize("module", _UNLOADED)
def test_runs_leave_module_unloaded(toy_csv, tmp_path, pool_csv, module):
    script = (
        "import contextlib, io, sys\n"
        "import nctest\n"
        "module = sys.argv[1]\n"
        "assert module not in sys.modules, 'import nctest'\n"
        "from nctest.cli import main\n"
        "for args in sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = main(args.split())\n"
        "        except SystemExit as stop:\n"
        "            code = stop.code\n"
        "    assert code == 0, (args, code)\n"
        "    assert module not in sys.modules, args\n"
    )
    small = pool_csv(tmp_path / "small.csv", [-1.0, 0.5, -0.2], np.linspace(-2, 2, 10))
    _fresh_process(script, module, *(run.format(toy=toy_csv, small=small, tmp=tmp_path)
                                     for run in _UNLOADED[module]))


def test_jitter_and_localfdr_curve_do_not_import_numpy_ma():
    # their distinct values come from _util.distinct, not np.unique
    script = (
        "import sys\n"
        "from nctest import localfdr_curve, make_statistic_set, with_jitter\n"
        "s = make_statistic_set([0.1, 0.2, 0.2, -0.0], [0.0, 0.2, 0.5])\n"
        "with_jitter(s, 1)\n"
        "assert 'numpy.ma' not in sys.modules, 'with_jitter'\n"
        "localfdr_curve(s, 0.8)\n"
        "assert 'numpy.ma' not in sys.modules, 'localfdr_curve'\n"
    )
    _fresh_process(script)


# the modules every subcommand loads, and what each loads beyond them
_EVERY_RUN = {"nctest", "nctest._util", "nctest.cli", "nctest.data", "nctest.errors",
              "nctest.procedures", "nctest.ranc"}
_LOADED = [
    ("analyze --in {toy}", set()),
    ("analyze --in {toy} --procedure stepup", {"nctest.stepup"}),
    ("stepup --in {toy}", {"nctest.stepup"}),
    ("localfdr --in {toy} --q 0.2 --pi 0.8", {"nctest.localfdr", "nctest.stepup"}),
    ("permtest --in {toy} --reps 50", set()),
    ("null-fit --in {rich}", {"nctest.nullfit"}),
    ("falsify --in {rich}", {"nctest.nullfit"}),
    ("simulate --preset table1 --reps 5", {"nctest.simulate"}),
    ("simulate --preset b2 --reps 5", {"nctest.simulate"}),
    ("simulate --preset simes-perm", {"nctest.simulate"}),
    ("analyze --in {toy} --out {out} --plots svg", {"nctest.svg"}),
    ("localfdr --in {toy} --lambda 1 --out {out} --plots svg",
     {"nctest.localfdr", "nctest.stepup", "nctest.svg"}),
]


@pytest.mark.parametrize("args, extra", _LOADED, ids=[args for args, _ in _LOADED])
def test_each_subcommand_loads_only_its_modules(toy_csv, rich_csv, tmp_path, args, extra):
    # one fresh process per run: the package loads each module on first use,
    # svg only under --plots svg, and hashlib only to hash an input file
    script = (
        "import contextlib, io, json, sys\n"
        "from nctest.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'nctest'),\n"
        "                  'hashlib' in sys.modules]))\n"
    )
    argv = args.format(toy=toy_csv, rich=rich_csv, out=tmp_path / "out").split()
    loaded, hashed = json.loads(_fresh_process(script, *argv))
    assert set(loaded) == _EVERY_RUN | extra
    if "--in" in argv:
        assert hashed
    if args == "simulate --preset simes-perm":
        # no input and no random draw (numpy.random loads hashlib itself)
        assert not hashed


def test_import_nctest_loads_no_submodule():
    script = (
        "import sys\n"
        "import nctest\n"
        "assert [m for m in sys.modules if m.startswith('nctest.')] == [], sys.modules\n"
        "names = {}\n"
        "exec('from nctest import *', names)\n"
        "assert len(nctest.__all__) == 58 and set(nctest.__all__) <= set(names)\n"
        "assert all(names[k] is getattr(nctest, k) for k in nctest.__all__)\n"
        "assert set(nctest.__all__) <= set(dir(nctest))\n"
        "try:\n"
        "    nctest.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('nctest.no_such_name resolved')\n"
        "import nctest.cli\n"
        "assert not hasattr(nctest.cli, 'ranc_values'), 'cli resolves only its late names'\n"
    )
    _fresh_process(script)


@pytest.mark.parametrize("preset, numpy_first, expected", [
    (None, False, "1"), ("2", False, "2"), (None, True, None),
], ids=["unset", "preset", "numpy-first"])
def test_cli_caps_openblas_threads_unless_set(preset, numpy_first, expected):
    # OpenBLAS reads the variable when numpy loads it: importing the cli, not
    # the package, sets one thread, unless the user set a count or numpy loaded first
    script = (
        "import json, os, sys\n"
        "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
        "if sys.argv[1]:\n"
        "    os.environ['OPENBLAS_NUM_THREADS'] = sys.argv[1]\n"
        "if sys.argv[2] == 'numpy':\n"
        "    import numpy\n"
        "import nctest\n"
        "assert os.environ.get('OPENBLAS_NUM_THREADS') == (sys.argv[1] or None), 'import nctest'\n"
        "import nctest.cli\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n"
    )
    value, tasks = json.loads(_fresh_process(script, preset or "", "numpy" if numpy_first else ""))
    assert value == expected
    if expected == "1" and sys.platform == "linux":
        assert tasks == 1


@pytest.mark.parametrize("name, args", [
    ("cdf_threshold", ["localfdr", "--in", "{toy}", "--q", "0.2", "--pi", "0.8"]),
    ("localfdr_curve", ["localfdr", "--in", "{toy}", "--q", "0.2", "--pi", "0.8"]),
    ("fisher_miscalibration_demo", ["simulate", "--preset", "b2", "--reps", "5"]),
])
def test_commands_call_the_names_set_on_cli(monkeypatch, capsys, toy_csv, name, args):
    # the lazily loaded names are looked up on the cli module when a command
    # runs, so a wrapper set there (as a tracer sets one) is the one called
    real = getattr(cli, name)
    assert real is getattr(importlib.import_module("nctest"), name)
    calls = []

    def wrapper(*a, **k):
        calls.append(name)
        return real(*a, **k)

    monkeypatch.setattr(cli, name, wrapper)
    _payload(capsys, [arg.format(toy=toy_csv) for arg in args])
    assert calls == [name]
