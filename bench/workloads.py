"""Seeded inputs, CLI calls and output checks of the benchmark workloads.

Each workload is built for one seed: its input files are written and the
reference answers computed once, before anything is timed.  The
references are computed here with plain numpy, never by calling nctest,
so a wrong answer from the program cannot also be the expected one.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analyze-bh", "localfdr-svg", "simulate-table1", "permutation")

# Full sizes are the benchmark; small sizes serve the harness self-test.
SIZES = {
    False: {"rows": 50_000, "table1_reps": 2_500, "perm_n": 5, "perm_m": 20, "b2_reps": 40},
    True: {"rows": 2_000, "table1_reps": 50, "perm_n": 4, "perm_m": 12, "b2_reps": 4},
}
SIGNAL_SHARE = 0.1
SIGNAL_SHIFT = -3.0
BH_Q = 0.1
LOCALFDR_Q, LOCALFDR_PI = 0.2, 0.8
TABLE1_CELLS = 6
B2_DRAWS_PER_REP = 1000  # fixed b in fisher_miscalibration_demo


@dataclass
class Workload:
    """One workload at one seed.

    calls are the CLI argument lists of one iteration, run one process
    after another; work counts the units of work one iteration does.
    check() inspects the outputs of the iteration just run and returns
    the problems found, an empty list when every output is correct.
    """

    name: str
    calls: list
    work: int
    work_unit: str
    check: object
    outputs: list
    inputs: dict = field(default_factory=dict)


def _file_record(path: str, rows: int) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {"rows": rows, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _write_statistics(path: str, test: np.ndarray, nc: np.ndarray) -> dict:
    # repr() round-trips every float, so the program reads back these exact values
    lines = ["id,role,value\n"]
    lines += [f"t{i},test,{v!r}\n" for i, v in enumerate(test.tolist(), 1)]
    lines += [f"c{i},nc,{v!r}\n" for i, v in enumerate(nc.tolist(), 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    return _file_record(path, test.size + nc.size)


def _signal_data(seed: int, rows: int):
    rng = np.random.default_rng(seed)
    test = rng.normal(size=rows)
    test[: int(SIGNAL_SHARE * rows)] += SIGNAL_SHIFT
    return test, rng.normal(size=rows)


def _counts_at_or_below(sample, queries):
    return np.searchsorted(np.sort(sample), queries, side="right")


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _analyze_bh(workdir, seed, sizes) -> Workload:
    test, nc = _signal_data(seed, sizes["rows"])
    data = os.path.join(workdir, "signals.csv")
    record = _write_statistics(data, test, nc)
    n, m = test.size, nc.size
    p = np.sort((1.0 + _counts_at_or_below(nc, test)) / (1.0 + m))
    passing = np.nonzero(p <= BH_Q * np.arange(1, n + 1) / n)[0]
    want = int(passing[-1]) + 1 if passing.size else 0
    out = os.path.join(workdir, "out-analyze")

    def check():
        problems = []
        result = _read_json(os.path.join(out, "result.json"))
        _expect(problems, "n", result["n"], n)
        _expect(problems, "m", result["m"], m)
        _expect(problems, "n_rejected", result["result"]["n_rejected"], want)
        with open(os.path.join(out, "result.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[2:]  # manifest line, header
        _expect(problems, "csv rows", len(rows), n)
        _expect(problems, "csv rejected", sum(int(r[3]) for r in rows), want)
        return problems

    return Workload(
        name="analyze-bh",
        calls=[["analyze", "--in", data, "--procedure", "bh", "--q", str(BH_Q), "--out", out]],
        work=n + m, work_unit="input rows", check=check, outputs=[out],
        inputs={"signals.csv": record},
    )


def _localfdr_svg(workdir, seed, sizes) -> Workload:
    test, nc = _signal_data(seed, sizes["rows"])
    data = os.path.join(workdir, "signals.csv")
    record = _write_statistics(data, test, nc)
    n, m = test.size, nc.size
    lam = LOCALFDR_Q / LOCALFDR_PI
    cand = np.unique(np.concatenate([test, nc]))
    scores = _counts_at_or_below(nc, cand) * float(n) - lam * (float(m) * _counts_at_or_below(test, cand))
    k = int(np.argmin(np.concatenate([[0.0], scores])))  # first minimum, boundary first
    want_tau = None if k == 0 else float(cand[k - 1])
    want_rejected = 0 if k == 0 else int(np.sum(test <= want_tau))
    out = os.path.join(workdir, "out-localfdr")

    def check():
        problems = []
        result = _read_json(os.path.join(out, "result.json"))
        _expect(problems, "tau_hat", result["threshold"]["tau_hat"], want_tau)
        _expect(problems, "n_rejected", result["threshold"]["n_rejected"], want_rejected)
        values = np.asarray(result["curve"]["values"], dtype=float)
        if values.size == 0 or np.any(np.diff(values) < 0):
            problems.append("local-FDR curve is empty or decreasing")
        root = ET.parse(os.path.join(out, "plot.svg")).getroot()
        _expect(problems, "svg root", root.tag, "{http://www.w3.org/2000/svg}svg")
        return problems

    calls = [["localfdr", "--in", data, "--q", str(LOCALFDR_Q), "--pi", str(LOCALFDR_PI),
              "--plots", "svg", "--out", out]]
    return Workload(
        name="localfdr-svg", calls=calls, work=n + m, work_unit="input rows",
        check=check, outputs=[out], inputs={"signals.csv": record},
    )


def _same_csv_each_time():
    """Check that a result CSV, without its manifest line, never changes."""
    first = {}

    def check(path: str) -> list:
        with open(path, encoding="utf-8") as fh:
            body = fh.read().split("\n", 1)[1]
        digest = hashlib.sha256(body.encode()).hexdigest()
        first.setdefault(path, digest)
        return [] if first[path] == digest else [f"{os.path.basename(path)} changed between iterations"]

    return check


def _rates_in_unit_interval(path: str, columns, expected_rows: int) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh.read().split("\n", 1)[1].splitlines()))
    problems = []
    _expect(problems, f"{os.path.basename(path)} rows", len(rows), expected_rows)
    for row in rows:
        for col in columns:
            value = float(row[col])
            if not 0.0 <= value <= 1.0:
                problems.append(f"{col}={value!r} outside [0, 1]")
    return problems


def _simulate_table1(workdir, seed, sizes) -> Workload:
    reps = sizes["table1_reps"]
    out = os.path.join(workdir, "out-table1")
    csv_path = os.path.join(out, "result.csv")
    unchanged = _same_csv_each_time()

    def check():
        return (_rates_in_unit_interval(csv_path, ("fdr", "power"), TABLE1_CELLS * 3)
                + unchanged(csv_path))

    return Workload(
        name="simulate-table1",
        calls=[["simulate", "--preset", "table1", "--reps", str(reps), "--seed", str(seed), "--out", out]],
        work=reps * TABLE1_CELLS, work_unit="replications x cells", check=check, outputs=[out],
    )


def _exact_simes_pvalue(test: np.ndarray, nc: np.ndarray) -> tuple:
    """Exact permutation p-value of the Simes statistic, from subset masks.

    Every n-subset of the sorted pooled positions is one relabelling;
    rank-based p-values and the Simes statistic depend only on which
    pooled positions are labelled as tests.
    """
    n, m = test.size, nc.size
    size = n + m
    subsets = np.array(list(itertools.combinations(range(size), n)))
    masks = np.zeros((len(subsets), size), dtype=bool)
    masks[np.arange(len(subsets))[:, None], subsets] = True
    observed = np.zeros((1, size), dtype=bool)
    observed[0, np.argsort(np.concatenate([test, nc]), kind="stable") < n] = True

    def simes(mask):
        p = (1.0 + np.cumsum(~mask, axis=1)) / (m + 1.0)
        ratio = np.where(mask, p / np.maximum(np.cumsum(mask, axis=1), 1), np.inf)
        return n * ratio.min(axis=1)

    extreme = int(np.sum(simes(masks) <= simes(observed)[0]))
    return extreme / len(subsets), len(subsets)


def _permutation(workdir, seed, sizes) -> Workload:
    rng = np.random.default_rng(seed)
    n, m = sizes["perm_n"], sizes["perm_m"]
    test = rng.normal(size=n) - 1.0
    nc = rng.normal(size=m)
    data = os.path.join(workdir, "small.csv")
    record = _write_statistics(data, test, nc)
    want_p, orbit = _exact_simes_pvalue(test, nc)
    b2_reps = sizes["b2_reps"]
    perm_out = os.path.join(workdir, "out-permtest")
    b2_out = os.path.join(workdir, "out-b2")
    b2_csv = os.path.join(b2_out, "result.csv")
    unchanged = _same_csv_each_time()

    def check():
        problems = []
        result = _read_json(os.path.join(perm_out, "result.json"))
        _expect(problems, "draws", result["draws"], orbit)
        _expect(problems, "p_value", result["p_value"], want_p)
        return problems + _rates_in_unit_interval(b2_csv, ("reject_rate",), 2) + unchanged(b2_csv)

    calls = [
        ["permtest", "--in", data, "--statistic", "simes_min_ratio", "--seed", str(seed), "--out", perm_out],
        ["simulate", "--preset", "b2", "--reps", str(b2_reps), "--seed", str(seed), "--out", b2_out],
    ]
    return Workload(
        name="permutation", calls=calls, work=orbit + b2_reps * B2_DRAWS_PER_REP,
        work_unit="permutation statistics", check=check, outputs=[perm_out, b2_out],
        inputs={"small.csv": record},
    )


_BUILDERS = {
    "analyze-bh": _analyze_bh,
    "localfdr-svg": _localfdr_svg,
    "simulate-table1": _simulate_table1,
    "permutation": _permutation,
}


def build(name: str, seed: int, workdir: str, small: bool = False) -> Workload:
    """Write the inputs of workload `name` for `seed` into workdir."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[name](workdir, seed, SIZES[small])
