import argparse
import csv
import hashlib
import importlib.resources
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
from nctest.localfdr import cdf_threshold
from nctest.procedures import bh, permutation_global
from nctest.ranc import ranc_pvalues
from nctest.simulate import simes_permutation_diagnostic
from nctest.stepup import stepup_threshold


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


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=12)
    values[:4] -= 50.0
    controls = rng.normal(size=15)
    lines = ["id,value,role"]
    lines += [f"t{k},{float(v)!r},test" for k, v in enumerate(values)]
    lines += [f"c{k},{float(v)!r},nc" for k, v in enumerate(controls)]
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def rich_csv(tmp_path):
    # subgroups and paired columns so null-fit and falsify have inputs
    rng = np.random.default_rng(9)
    lines = ["id,value,role,subgroup,treatment,control"]
    for k in range(120):
        t = rng.normal()
        c = rng.normal()
        lines.append(f"t{k},{float(t - c)!r},test,,{float(t)!r},{float(c)!r}")
    for k in range(60):
        t = rng.normal()
        c = rng.normal()
        label = "east" if k % 2 else "west"
        lines.append(f"c{k},{float(t - c)!r},nc,{label},{float(t)!r},{float(c)!r}")
    path = tmp_path / "rich.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def tied_csv(tmp_path):
    # one-decimal values tie within and across roles; -0.0 and 0.0 both occur
    rng = np.random.default_rng(17)
    tests = np.round(rng.normal(size=40), 1)
    tests[:8] -= 3.0
    controls = np.round(rng.normal(size=60), 1)
    lines = ["id,value,role"]
    lines += [f"t{k},{v!r},test" for k, v in enumerate(tests.tolist())]
    lines += ["t40,-0.0,test", "t41,0.0,test"]
    lines += [f"c{k},{v!r},nc" for k, v in enumerate(controls.tolist())]
    lines += ["c60,0.0,nc", "c61,-0.0,nc"]
    path = tmp_path / "tied.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# sha256 of the CSV body after the manifest line and of the SVG without its
# <desc>, pinned from the per-row writer these outputs must keep matching; the
# permtest pool is above the enumeration cap, so its pins also hold its Monte-Carlo stream
PINNED = {
    "analyze": (
        ["analyze", "--procedure", "bh", "--q", "0.2"],
        "4df36871d12e9bcb329c135f772208950fab78f2800d3d94da3ee9aaf99ec2c5",
        "6da47403e57564db3100ccb1a8306869d85878c9a9aa4b9b21c6c014039f0bc3",
    ),
    "stepup": (
        ["stepup", "--lambda", "0.5", "--q", "0.2"],
        "724d9483c2c40228aaedcd8d3e9e3a868ab26f62b0eb12c5cc5d86a5c58f9d29",
        "ec0c5a4935891db5d333f1b7e939239a77d717f01eb30c8a65d048c375a913c4",
    ),
    "localfdr": (
        ["localfdr", "--q", "0.2", "--pi", "0.8"],
        "a1fa476fdb7e5d57419719989eeb70f9d1c62ebe51c7ec56a0e6b8ebf3e014a2",
        "9abc7765422ec644b6e103a6c85e6aef19cb4200acddc650ec60b1a465a9f4fc",
    ),
    "permtest": (
        ["permtest", "--statistic", "fisher"],
        "74938d253c164b910ba42ddace873dc6e92aba80765afef9a42d2d655043418a",
        "b1a01a5b56130dd25dc035f084d5b122be86ddbb6e1b63e9b2db2f95b291818a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundle_bytes_pinned(capsys, tied_csv, tmp_path, name):
    args, csv_digest, svg_digest = PINNED[name]
    out = tmp_path / name
    code, _, err = _run(capsys, args + ["--in", tied_csv, "--plots", "svg", "--out", str(out)])
    assert code == 0, err
    body = (out / "result.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == csv_digest
    plot = re.sub(rb"<desc>.*</desc>\n", b"", (out / "plot.svg").read_bytes())
    assert hashlib.sha256(plot).hexdigest() == svg_digest
    text = (out / "result.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    jsonschema.validate(json.loads(text), _schema(name))


_TIED_REJECTED = ["t0", "t1", "t10", "t12", "t2", "t26", "t28", "t29", "t3", "t4", "t5", "t6", "t7"]


# the threshold fields of the stepup JSON, pinned like the bundle bytes above;
# "nothing rejected" is tau null with n_rejected 0, not a warning
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
    header = ("id", "x", "count")
    payload = {"x": cli.Spliced(1), "by_id": cli.Spliced(1, keys=0), "count": cli.Spliced(2)}
    body, text = _emit_bundle(cli.Report(payload, header, (ids, x, count)), tmp_path / "b")
    assert body == _per_row_csv(header, zip(ids, x.tolist(), count.tolist()))
    assert text == cli._json_text({
        "schema_version": 5, "x": x.tolist(), "by_id": dict(zip(ids, x.tolist())),
        "count": count.tolist(), "manifest": {"flags": {}},
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
    column = np.ma.masked_array(values, mask=[False] * 5 + [True])
    header = ("label", "value")
    labels = list("abcdef")
    payload = {"value": cli.Spliced(1), "scalar": float("nan")}
    body, text = _emit_bundle(cli.Report(payload, header, (labels, column)), tmp_path / "b")
    assert body == _per_row_csv(header, zip(labels, values[:5] + [None]))
    assert "nan\n" in body and "-inf\n" in body and "f,\n" in body
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed["value"] == [1.5, None, None, None, -0.0, None]
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
    assert payload["schema_version"] == 5
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
    out = tmp_path / "localfdr"
    code, _, err = _run(
        capsys, ["localfdr", "--in", tied_csv, "--q", "0.2", "--pi", "0.8", "--out", str(out)]
    )
    assert code == 0, err
    threshold = json.loads((out / "result.json").read_text())["threshold"]
    columns = threshold["objective_at_candidates"]
    assert len(columns["t"]) == len(columns["objective"]) > 1
    assert (columns["t"][0], columns["objective"][0]) == (None, 0.0)
    assert columns["t"][threshold["argmin_index"]] == threshold["tau_hat"]
    with open(out / "result.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[2:]  # manifest line, header
    # csv writes None empty and floats by repr, which keeps the sign of -0.0
    zipped = [["" if t is None else repr(t), repr(v)]
              for t, v in zip(columns["t"], columns["objective"])]
    assert zipped == rows


def test_schemas_refuse_the_v1_layout(capsys, tied_csv):
    analyze = _payload(capsys, ["analyze", "--in", tied_csv, "--procedure", "bh"], "analyze")
    localfdr = _payload(capsys, ["localfdr", "--in", tied_csv, "--lambda", "1.0"], "localfdr")
    stepup = _payload(capsys, ["stepup", "--in", tied_csv], "stepup")
    columns = localfdr["threshold"]["objective_at_candidates"]
    per_candidate = [{"t": t, "objective": v} for t, v in zip(columns["t"], columns["objective"])]
    unversioned = {k: v for k, v in analyze.items() if k != "schema_version"}
    unwarned = {k: v for k, v in stepup.items() if k != "warnings"}
    for name, payload in [
        ("analyze", {**analyze, "result": {**analyze["result"], "audit": {"order": []}}}),
        ("analyze", {**analyze, "schema_version": 1}),
        ("analyze", {**analyze, "schema_version": 2}),
        ("analyze", {**analyze, "schema_version": 3}),
        ("analyze", {**analyze, "schema_version": 4}),
        ("analyze", unversioned),
        ("localfdr", {**localfdr, "threshold": {**localfdr["threshold"],
                                                "objective_at_candidates": per_candidate}}),
        ("stepup", {**stepup, "result": {**stepup["result"], "diagnostics": []}}),
        ("stepup", unwarned),
    ]:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, _schema(name))
    for name in ("analyze", "falsify", "localfdr", "null-fit", "permtest", "simulate", "stepup"):
        schema = _schema(name)
        assert {"schema_version", "warnings"} <= set(schema["required"])
        assert schema["properties"]["schema_version"] == {"const": 5}
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


@pytest.fixture
def zero_mad_csv(tmp_path):
    # seven of ten differences in each role are exactly zero, so every MAD is zero
    # and seven tests tie a control
    lines = ["id,value,role,treatment,control"]
    for role, prefix, step in (("test", "t", 0.5), ("nc", "c", 0.3)):
        for k in range(10):
            t = 1.0 if k < 7 else 1.0 + step * k
            lines.append(f"{prefix}{k},{t - 1.0!r},{role},{t!r},1.0")
    path = tmp_path / "zero_mad.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


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


def test_localfdr_requires_parameters(capsys, toy_csv):
    code, _, err = _run(capsys, ["localfdr", "--in", toy_csv])
    assert code == 1
    assert "lambda" in err


@pytest.mark.parametrize("args, message", [
    (["--lambda", "0.5", "--q", "nan"], "q must lie"),
    (["--lambda", "0.5", "--q", "-5"], "q must lie"),
    (["--q", "inf", "--pi", "0.5"], "q must lie"),
    (["--q", "0.2", "--pi", "0"], "pi must lie"),
])
def test_localfdr_rejects_bad_levels(capsys, toy_csv, args, message):
    code, out, err = _run(capsys, ["localfdr", "--in", toy_csv] + args)
    assert code == 2 and out == ""
    assert message in err


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
    code, _, err = _run(capsys, ["null-fit", "--in", rich_csv, "--sources", "bogus"])
    assert code == 1 and "bogus" in err


@pytest.mark.parametrize("q", ["0", "1", "5", "nan"])
def test_null_fit_rejects_bad_level(capsys, rich_csv, q):
    code, out, err = _run(capsys, ["null-fit", "--in", rich_csv, "--q", q])
    assert code == 2 and out == ""
    assert "q must lie" in err


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


def test_permtest_above_the_cap_keeps_its_bytes(capsys, toy_csv, tmp_path):
    # C(27, 12) relabelings exceed the enumeration cap, so Simes still samples; digests
    # of the CSV body and the SVG less its <desc>, pinned from the enumerating engine
    assert math.comb(27, 12) > procedures._MAX_ENUMERATION
    out = tmp_path / "perm"
    args = ["permtest", "--in", toy_csv, "--reps", "200", "--seed", "3", "--plots", "svg"]
    code, _, err = _run(capsys, args + ["--out", str(out)])
    assert code == 0, err
    body = (out / "result.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "35374aa66f0024785d14021f1b4118fa318b8de64ea78369e1c76d52c1383e85"
    )
    plot = re.sub(rb"<desc>.*</desc>\n", b"", (out / "plot.svg").read_bytes())
    assert hashlib.sha256(plot).hexdigest() == (
        "f5f11231851a26d2d0d3959388e45cf758d8ee443c4db815ca6504112cf6cb47"
    )
    payload = json.loads((out / "result.json").read_text())
    assert (payload["p_value"], payload["observed"], payload["draws"]) == (
        0.024875621890547265, 0.1875, 200)


def _pool_csv(path, tests, controls):
    lines = ["id,value,role"]
    lines += [f"t{k},{float(v)!r},test" for k, v in enumerate(tests)]
    lines += [f"c{k},{float(v)!r},nc" for k, v in enumerate(controls)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_permtest_exact_simes_is_counted(capsys, tmp_path, enumerate_simes):
    # within the cap the p-value is a count: the enumerator's p, observed and orbit
    # size, with no sample to summarise, write or plot
    rng = np.random.default_rng(31)
    tests, controls = np.round(rng.normal(size=5) - 1.0, 1), np.round(rng.normal(size=20), 1)
    path = _pool_csv(tmp_path / "pool.csv", tests, controls)
    p, samples, observed = enumerate_simes(make_statistic_set(tests, controls))
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


def test_permtest_exact_path_never_enumerates(capsys, tmp_path, monkeypatch):
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
        path = _pool_csv(tmp_path / f"pool{n}.csv", tests, controls)
        payload = _payload(capsys, ["permtest", "--in", path], schema="permtest")
        assert math.comb(n + m, n) <= procedures._MAX_ENUMERATION
        assert payload["draws"] == math.comb(n + m, n)
        assert 0 < payload["p_value"] <= 1
        result = permutation_global(make_statistic_set(tests, controls))
        assert (result.draws, result[1].size) == (math.comb(n + m, n), 0)


@pytest.mark.parametrize("statistic, n, m", [
    ("fisher", 5, 20), ("simes_min_ratio", 5, 20), ("simes_min_ratio", 12, 15)])
def test_permtest_reports_the_library_result(capsys, tmp_path, statistic, n, m):
    # permtest makes one permutation_global call: Fisher within the cap
    # enumerates, Simes within it counts and Simes above it samples
    rng = np.random.default_rng(7)
    tests, controls = np.round(rng.normal(size=n) - 0.5, 1), np.round(rng.normal(size=m), 1)
    path = _pool_csv(tmp_path / "pool.csv", tests, controls)
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
    body = first.split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "9defa7bd035a11c27216b19a013cb2ad6d7c8ba18de87fb7687df46e804059c3"
    )
    assert (tmp_path / "report.json").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(payload, _schema("simulate"))
    assert len(payload["cells"]) == 6


def test_simulate_table1_benchmark_setting_pinned(tmp_path):
    # the setting of the simulate-table1 benchmark workload
    out = tmp_path / "table1.csv"
    args = ["simulate", "--preset", "table1", "--reps", "2500", "--seed", "9001"]
    assert cli.main(args + ["--out", str(out)]) == 0
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "7827cf2740d74472732681fdaea3299bfab81b299ef0b179f8bd27a254274540"
    )


def test_negative_seed_is_a_usage_error(capsys, toy_csv):
    for args in (["simulate", "--preset", "table1", "--seed", "-1"],
                 ["permtest", "--in", toy_csv, "--reps", "50", "--seed", "-3"]):
        code, out, err = _run(capsys, args)
        assert (code, out) == (1, ""), err
        assert "usage error: --seed must be non-negative" in err
        assert "Traceback" not in err


# sha256 of the CSV body after the manifest line at --reps 20 --seed 0
POWER_PINS = {
    "power-vs-m": "acdeab55c093259435db3a720bd2b9def2b8f24bc459c7af36628eaa5d48c106",
    "power-vs-m-weak": "c25fb12d5fa1c15cc9ddf33f40231e201f128458bf28a93a4f9a5d37402837a6",
}


@pytest.mark.parametrize("preset", sorted(POWER_PINS))
def test_simulate_power_presets_byte_identical(capsys, tmp_path, preset):
    out = tmp_path / "power.csv"
    code, _, err = _run(
        capsys,
        ["simulate", "--preset", preset, "--reps", "20", "--seed", "0", "--out", str(out)],
    )
    assert code == 0, err
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == POWER_PINS[preset]


def test_simulate_b1(capsys):
    payload = _payload(
        capsys, ["simulate", "--preset", "b1", "--reps", "20000"], schema="simulate"
    )
    assert payload["exact"] == {"p_a": 4 / 9, "p_b": 5 / 12}
    assert payload["monte_carlo"] == {"p_a": 0.42842817748809225, "p_b": 0.40336912254720475}


def test_simulate_b1_pinned(tmp_path):
    out = tmp_path / "b1.csv"
    args = ["simulate", "--preset", "b1", "--reps", "20000", "--seed", "0"]
    assert cli.main(args + ["--out", str(out)]) == 0
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "60b7bb9462f653545c800aa77b5e60903a8f8464130bb0119b10b5b35e57a75d"
    )


def test_simulate_simes_perm(capsys):
    payload = _payload(
        capsys, ["simulate", "--preset", "simes-perm"], schema="simulate",
    )
    # schema v5: the rates are counted, so no sample size is reported
    assert set(payload) == {"schema_version", "preset", "reject_rates", "warnings", "manifest"}
    assert payload["reject_rates"] == {
        str(m): rate for m, rate in simes_permutation_diagnostic().items()
    }


def test_simulate_simes_perm_refuses_reps(capsys):
    code, out, err = _run(capsys, ["simulate", "--preset", "simes-perm", "--reps", "2000"])
    assert (code, out) == (1, "")
    assert err == "nctest: usage error: simes-perm is exact and takes no --reps\n"


def test_simulate_simes_perm_pinned(tmp_path):
    # the exact rates of schema v5, which no seed or --reps changes
    out = tmp_path / "simes.csv"
    args = ["simulate", "--preset", "simes-perm"]
    assert cli.main(args + ["--out", str(out)]) == 0
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "d2a1fea264000670bec3de28290b3ea2e3bd3432484af31a67d8fa4efcab85d7"
    )


@pytest.mark.parametrize("reps, seed, rate", [(40, 9001, 0.05), (200, 0, 0.085)])
def test_simulate_b2_chi2_rate_pinned(capsys, reps, seed, rate):
    # the chi-square rate reads only the observed pools, not the permutation null
    payload = _payload(
        capsys, ["simulate", "--preset", "b2", "--reps", str(reps), "--seed", str(seed)]
    )
    assert payload["chi2_reject_rate"] == rate


def test_simulate_b2_benchmark_setting_pinned(tmp_path):
    # the b2 setting of the permutation benchmark workload
    out = tmp_path / "b2.csv"
    args = ["simulate", "--preset", "b2", "--reps", "40", "--seed", "9001"]
    assert cli.main(args + ["--out", str(out)]) == 0
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "2d7124825bf8718c13833425e9ac68c2eae4beaad4ed6f407fd014959f5965b7"
    )


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


def test_exit_codes():
    cases = [
        (["analyze", "--nope"], 1),
        (["analyze"], 1),
        ([], 1),
        (["simulate", "--preset", "bogus"], 1),
        (["simulate", "--preset", "table1", "--reps", "0"], 1),
        (["simulate", "--preset", "table1", "--seed", "-1"], 1),
        (["permtest", "--in", "/nonexistent/x.csv", "--reps", "50", "--seed", "-3"], 1),
        # one draw leaves a conditioning event of the b1 fixture empty
        (["simulate", "--preset", "b1", "--reps", "1"], 2),
        (["analyze", "--in", "/nonexistent/x.csv"], 2),
    ]
    for args, want in cases:
        assert cli.main(args) == want, args


def test_plots_require_out(capsys, toy_csv):
    code, _, err = _run(capsys, ["analyze", "--in", toy_csv, "--plots", "svg"])
    assert code == 1
    assert "--out" in err


def test_missing_controls_exit_2(capsys, tmp_path):
    path = tmp_path / "nonc.csv"
    path.write_text("id,value,role\na,1.0,test\nb,2.0,test\n")
    code, _, err = _run(capsys, ["analyze", "--in", str(path)])
    assert code == 2
    assert "negative controls" in err


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


def test_rank_subcommands_do_not_import_scipy(toy_csv, tmp_path):
    # the rank-based paths need only numpy; scipy loads where it is called
    script = (
        "import contextlib, io, sys\n"
        "import nctest\n"
        "assert 'scipy' not in sys.modules, 'import nctest'\n"
        "from nctest.cli import main\n"
        "for args in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = main(args.split())\n"
        "        except SystemExit as stop:\n"
        "            code = stop.code\n"
        "    assert code == 0, (args, code)\n"
        "    assert 'scipy' not in sys.modules, args\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script, "--version",
         f"analyze --in {toy_csv} --procedure bh --out {tmp_path / 'a'} --plots svg",
         f"localfdr --in {toy_csv} --q 0.2 --pi 0.8 --out {tmp_path / 'l'} --plots svg",
         f"permtest --in {toy_csv} --reps 200",
         "simulate --preset b1 --reps 2000",
         "simulate --preset simes-perm",
         "simulate --preset b2 --reps 20",
         "simulate --preset table1 --reps 20",
         "simulate --preset power-vs-m --reps 20",
         "simulate --preset power-vs-m-weak --reps 20"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr


def test_analyze_does_not_import_numpy_ma(toy_csv, tmp_path):
    # only localfdr's boundary row is a masked array; plain float columns
    # are written without loading numpy.ma (stepup still loads it through
    # np.unique, which asks np.ma.is_masked)
    script = (
        "import contextlib, io, sys\n"
        "from nctest.cli import main\n"
        "for args in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(args.split()) == 0, args\n"
        "    assert 'numpy.ma' not in sys.modules, args\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script,
         f"analyze --in {toy_csv} --procedure bh --out {tmp_path / 'a'}",
         f"analyze --in {toy_csv} --procedure bh",
         f"analyze --in {toy_csv} --procedure holm --out {tmp_path / 'h'}"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr


def test_drawless_runs_do_not_import_numpy_random(toy_csv, tmp_path):
    # numpy.random loads with the first draw, not with the package
    script = (
        "import contextlib, io, sys\n"
        "from nctest.cli import main\n"
        "for args in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = main(args.split())\n"
        "        except SystemExit as stop:\n"
        "            code = stop.code\n"
        "    assert code == 0, (args, code)\n"
        "    assert 'numpy.random' not in sys.modules, args\n"
    )
    small = _pool_csv(tmp_path / "small.csv", [-1.0, 0.5, -0.2], np.linspace(-2, 2, 10))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script, "--version",
         f"analyze --in {toy_csv} --procedure bh --out {tmp_path / 'a'}",
         f"permtest --in {small} --out {tmp_path / 'p'}",
         "simulate --preset simes-perm"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
