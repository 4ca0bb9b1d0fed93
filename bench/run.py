"""Benchmark of the nctest command line.

    python3 bench/run.py --workload analyze-bh --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22

Run from the root of a source checkout; the program is imported from
`src/`.  A run writes the workload's inputs for --seed, times
SETUP_RUNS fresh `nctest --version` processes (setup_s), then iterates
for --seconds.  One iteration runs the workload's CLI calls, one process
at a time (wall_s), then checks every output.  A calibration process
(calibrate.py) runs before and after the set-up and after each
iteration.  Metrics are medians, divided by the run's mean calibration
time, which cancels the slow swings in speed of a shared machine.  The
last line of stdout is the result as one JSON object; the line before it
holds the details: quartiles, raw times, inputs and environment.

With --trace 1 the workload runs in-process through `nctest.cli.main`
instead, in rounds of one untraced and one span-traced iteration (see
tracing.py) for --seconds, and the metrics are per-layer medians.
End-to-end metrics always come from the untraced subprocess runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CLI = [sys.executable, "-c", "import sys; from nctest.cli import run; sys.exit(run())"]
CALIBRATE = [sys.executable, os.path.join(BENCH, "calibrate.py")]
# Times are reported in reference seconds: seconds on a machine that runs
# calibrate.py in REFERENCE_S, its typical time on the 2-CPU box the
# benchmark was defined on.
REFERENCE_S = 0.8
# A healthy call takes a few seconds; at 30 s each, even a run whose
# first iteration hangs ends inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 30.0
SETUP_RUNS = 3
END_TO_END = (
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def configure_environment() -> None:
    """Point children at src/ and cap their threads at the CPUs this process may use."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ.pop("NCTEST_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > nproc:
        os.environ["NCTEST_THREADS"] = str(nproc)
    sys.path.insert(0, SRC)


def run_process(argv: list, log) -> tuple:
    """Spawn one process; return (wall seconds, its own peak RSS in MB, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log)
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss of this child alone, in KiB on Linux
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def calibration(log) -> float:
    wall, _, code = run_process(CALIBRATE, log)
    if code != 0:
        raise SystemExit(f"bench: calibrate.py exited with code {code}")
    return wall


def clear_outputs(workload) -> None:
    for path in workload.outputs:
        shutil.rmtree(path, ignore_errors=True)


def checked(workload) -> list:
    try:
        return workload.check()
    except (OSError, ValueError, LookupError, TypeError, SyntaxError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def iterate(workload, log) -> dict:
    """Run the workload's CLI calls once, one at a time.

    Returns the raw wall time summed over the calls, the largest peak
    RSS and the calls that exited non-zero; the outputs are left for
    checked().
    """
    clear_outputs(workload)
    wall, rss, problems = 0.0, 0.0, []
    for args in workload.calls:
        seconds, peak, code = run_process(CLI + args, log)
        wall += seconds
        rss = max(rss, peak)
        if code != 0:
            problems.append(f"nctest {args[0]} exited with code {code}")
    return {"raw_wall_s": wall, "peak_rss_mb": rss, "problems": problems}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(workload) -> dict:
    from nctest import __version__
    from nctest._util import thread_count

    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "nctest_threads_env": os.environ.get("NCTEST_THREADS"),
        "thread_count": thread_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nctest": __version__,
        "git_commit": commit,
        "inputs": workload.inputs,
        "work_per_iteration": {"count": workload.work, "unit": workload.work_unit},
        "rss_source": "ru_maxrss of each child process from os.wait4",
        "time_unit": "reference seconds: median raw time x REFERENCE_S / mean calibrate.py "
                     "time of the same run",
        "machine_settings": "none changed",
    }


def measure(workload, seconds: float, workdir: str) -> tuple:
    """Time SETUP_RUNS fresh `nctest --version` processes, then iterate.

    Iterates until the next iteration would end after `seconds`, at
    least once.  Calibration runs come before and after the set-up and
    after every iteration.
    """
    iterations = []
    with open(os.path.join(workdir, "stderr.log"), "w", encoding="utf-8") as log:
        calibrations = [calibration(log)]
        setups = [run_process(CLI + ["--version"], log) for _ in range(SETUP_RUNS)]
        calibrations.append(calibration(log))
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            it = iterate(workload, log)
            calibrations.append(calibration(log))
            it["problems"] = it["problems"] or checked(workload)
            iterations.append(it)
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
    clear_outputs(workload)
    good = [it for it in iterations if not it["problems"]] or iterations
    summaries = {name: summary([it[name] for it in good]) for name in ("raw_wall_s", "peak_rss_mb")}
    summaries["raw_setup_s"] = summary([wall for wall, _, _ in setups])
    # the mean, not the median: every calibration run is a sample of the
    # same speed, and the mean of a few has the smaller spread
    scale = REFERENCE_S / statistics.mean(calibrations)
    wall_s = summaries["raw_wall_s"]["median"] * scale
    values = {"wall_s": wall_s, "work_per_s": workload.work / wall_s,
              "peak_rss_mb": summaries["peak_rss_mb"]["median"],
              "setup_s": summaries["raw_setup_s"]["median"] * scale}
    failed = sum(bool(it["problems"]) for it in iterations) + sum(code != 0 for _, _, code in setups)
    attempted = len(iterations) + len(setups)
    detail = {
        "workload": workload.name,
        "summaries": summaries,
        "calibrations_s": calibrations,
        "scale": scale,
        "error_rate": failed / attempted,
        "iterations": iterations,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, attempted, failed, detail


def trace(workload, seconds: float) -> tuple:
    """In-process rounds of one iteration each: untraced, traced, and traced on one thread.

    Rounds repeat until `seconds` have passed, at least once; each
    per-layer metric is the median over the rounds.
    """
    import nctest.cli
    import nctest.localfdr
    import nctest.procedures
    import nctest.simulate
    import nctest.svg

    modules = {"cli": nctest.cli, "localfdr": nctest.localfdr, "procedures": nctest.procedures,
               "simulate": nctest.simulate, "svg": nctest.svg}
    failures = []

    def one_iteration(tracer=None) -> float:
        clear_outputs(workload)
        problems = []
        start = time.perf_counter()
        for args in workload.calls:
            try:
                if tracer is None:
                    code = nctest.cli.main(args)
                else:
                    code = tracer.call("cli.main", nctest.cli.main, args)
            except Exception as exc:  # the run goes on and reports the failure
                traceback.print_exc()
                code = f"an exception ({type(exc).__name__})"
            if code != 0:
                problems.append(f"nctest {args[0]} returned {code}")
        elapsed = time.perf_counter() - start
        failures.append(problems or checked(workload))
        return elapsed

    def traced(tracer) -> None:
        patches = tracing.install(tracer, modules)
        try:
            one_iteration(tracer)
        finally:
            patches.restore()

    def single_thread_s() -> float:
        one_thread = tracing.Tracer()
        previous = os.environ.get("NCTEST_THREADS")
        os.environ["NCTEST_THREADS"] = "1"
        try:
            traced(one_thread)
        finally:
            if previous is None:
                os.environ.pop("NCTEST_THREADS")
            else:
                os.environ["NCTEST_THREADS"] = previous
        return sum(s[5] - s[4] for s in one_thread.spans if s[2] == "util.map_reps")

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        untraced_s = one_iteration()
        tracer = tracing.Tracer()
        traced(tracer)
        output_bytes = sum(os.path.getsize(os.path.join(d, f)) for out in workload.outputs
                           for d, _, files in os.walk(out) for f in files)
        uses_map_reps = any(s[2] == "util.map_reps" for s in tracer.spans)
        rounds.append(tracing.layer_metrics(
            tracer, single_thread_s() if uses_map_reps else 0.0, untraced_s, output_bytes))
    clear_outputs(workload)
    tracing.write_spans(tracer, os.path.join(WORK, f"spans-{workload.name}.csv"))
    values = {name: statistics.median(r[name] for r in rounds)
              for name, _, _ in tracing.LAYER_METRICS}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracing.LAYER_METRICS}
    failed = [p for p in failures if p]
    detail = {"workload": workload.name, "rounds": len(rounds), "problems": failed,
              "overhead_share": values["trace.overhead_s"] / values["trace.untraced_s"]}
    return metrics, len(failures), len(failed), detail


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = os.path.join(WORK, f"{name}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.build(name, seed, workdir)
        env = environment(workload)
        if traced:
            metrics, attempted, failed, detail = trace(workload, seconds)
        else:
            metrics, attempted, failed, detail = measure(workload, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["environment"] = env
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def report_line(name: str, result: dict) -> str:
    metrics = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
    return (f"{name}: {metrics} error_rate={result['failed']}/{result['attempted']}"
            f"={result['failed'] / result['attempted']:g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nctest", "cli.py")):
        print(f"bench: no nctest sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    configure_environment()
    names = workloads.WORKLOADS if ns.workload == "all" else (ns.workload,)
    for name in names:
        result = run_workload(name, ns.seed, ns.seconds, bool(ns.trace))
        print(report_line(name, result), file=sys.stderr)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
