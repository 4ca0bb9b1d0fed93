"""Self-test of the benchmark harness, on small inputs.

    python3 bench/selftest.py

Run from the root of a source checkout.  It checks that:
- every workload's checks pass on the program's own outputs;
- a tampered output and a CLI call that exits non-zero each count as a
  failed operation;
- an exception raised through a traced name is counted in its `.errors`;
- the traced run emits every per-layer metric of BENCHMARK.json, non-zero
  for the layers each workload uses, with self times that add up to the
  traced `cli.main` time;
- BENCHMARK.json names the metrics run.py and tracing.py emit;
- the benchmark exits non-zero, printing nothing, without the sources.
Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
import tracing
import workloads

USED = {
    "analyze-bh": (
        "cli.main.s", "cli.main.self_s", "cli.build_manifest.s", "cli.output_bytes",
        "data.load_csv.s", "data.load_csv.rows_per_s", "ranc.ranc_pvalues.s",
        "procedures.bh.s", "procedures.bh.n_rejected", "procedures.RejectionResult.to_dict.s",
    ),
    "localfdr-svg": (
        "cli.main.s", "cli.main.self_s", "cli.output_bytes", "data.load_csv.s",
        "localfdr.cdf_threshold.s", "localfdr.cdf_threshold.candidates",
        "localfdr.localfdr_curve.s", "localfdr.localfdr_curve.breakpoints",
        "localfdr.localfdr_curve.breakpoint_share", "localfdr.LocalFdrResult.to_dict.s",
        "svg.step_curve_svg.s", "svg.step_curve_svg.bytes",
    ),
    "simulate-table1": (
        "cli.main.s", "simulate.simulate_cell.self_s", "simulate.simulate_cell.reps",
        "util.map_reps.s", "util.map_reps.busy_s", "util.map_reps.threads",
        "util.map_reps.utilisation", "util.map_reps.single_thread_s",
        "util.rep_rng.calls", "util.rep_rng.busy_s",
    ),
    "permutation": (
        "cli.main.s", "data.load_csv.s", "ranc.ranc_values.calls", "ranc.ranc_values.s",
        "procedures.permutation_global.self_s", "procedures.permutation_global.subsets",
        "simulate.fisher_miscalibration_demo.self_s", "util.map_reps.s", "util.map_reps.busy_s",
        "util.rep_rng.calls",
    ),
}

failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def tamper_json(path: str, keys: tuple, change) -> None:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    inner = payload
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = change(inner[keys[-1]])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def tamper_csv(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1].replace("0.", "1.", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def tampering(workload) -> object:
    """A change to one output that the workload's check must catch."""
    outs = workload.outputs
    return {
        "analyze-bh": lambda: tamper_json(
            os.path.join(outs[0], "result.json"), ("result", "n_rejected"), lambda v: v + 1),
        "localfdr-svg": lambda: tamper_json(
            os.path.join(outs[0], "result.json"), ("threshold", "n_rejected"), lambda v: v + 1),
        "simulate-table1": lambda: tamper_csv(os.path.join(outs[0], "result.csv")),
        "permutation": lambda: tamper_json(
            os.path.join(outs[0], "result.json"), ("p_value",), lambda v: v / 2),
    }[workload.name]


def check_workload(name: str, layer_names: list) -> None:
    workdir = os.path.join(run.WORK, f"selftest-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.build(name, 7, workdir, small=True)
    with open(os.path.join(workdir, "stderr.log"), "w", encoding="utf-8") as log:
        good = run.iterate(workload, log)["problems"] or run.checked(workload)
        expect(good == [], f"{name}: correct outputs pass ({good})")
        tampering(workload)()
        expect(run.checked(workload) != [], f"{name}: a tampered output fails its check")
        broken = dataclasses.replace(
            workload, calls=[["analyze", "--in", os.path.join(workdir, "missing.csv")]])
        bad = run.iterate(broken, log)
        expect(any("exited with code" in p for p in bad["problems"]),
               f"{name}: a CLI call that exits non-zero fails ({bad['problems']})")

    original_check = workload.check

    def tampered_check():
        tampering(workload)()
        return original_check()

    _, attempted, failed, _ = run.measure(
        dataclasses.replace(workload, check=tampered_check), 0, workdir)
    expect((attempted, failed) == (run.SETUP_RUNS + 1, 1),
           f"{name}: measure counts a tampered iteration as failed")

    metrics, attempted, failed, _ = run.trace(workload, 0)
    expect(failed == 0, f"{name}: traced run outputs pass their checks")
    expect(list(metrics) == layer_names, f"{name}: traced run emits every per-layer metric")
    zero = [key for key in USED[name] if not metrics[key]["value"] > 0]
    expect(not zero, f"{name}: layers the workload uses are non-zero (zero: {zero})")
    share = metrics["trace.self_sum_share"]["value"]
    expect(abs(share - 1.0) < 1e-9, f"{name}: self times add up to cli.main ({share!r})")
    raised = [key for key in metrics if key.endswith(".errors") and metrics[key]["value"]]
    expect(not raised, f"{name}: no span raised ({raised})")
    shutil.rmtree(workdir, ignore_errors=True)


def check_error_count() -> None:
    def fails():
        raise KeyError("x")

    tracer = tracing.Tracer()
    try:
        tracer.call("cli.main", tracer.wrap("data.load_csv", fails))
    except KeyError:
        pass
    values = tracing.layer_metrics(tracer, 0.0, 0.0, 0)
    expect(values["data.load_csv.errors"] == 1 and values["cli.main.errors"] == 1,
           "an exception is counted on every span it passes through")


def check_bare_directory(spec: dict) -> None:
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(spec["command"] + ["--workload", "analyze-bh", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    expect(done.returncode != 0 and done.stdout == "",
           f"without sources the benchmark exits {done.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    run.configure_environment()
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == list(tracing.LAYER_METRICS), "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    check_error_count()
    layer_names = [m["name"] for m in spec["per_layer"]]
    for name in workloads.WORKLOADS:
        check_workload(name, layer_names)
    check_bare_directory(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
