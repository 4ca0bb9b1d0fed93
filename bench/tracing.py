"""Span tracing of nctest layers, installed from outside the program.

The tracer replaces the names that `nctest.cli`, `nctest.simulate` and
`nctest.procedures` import, plus the result classes' `to_dict`, with
wrappers that record one span per call: name, start, end, parent and
thread.  `map_reps` also gets its worker wrapped, so time spent in the
worker threads is counted.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its children
on the same thread.  Same-thread children nest and never overlap, so the
self times of all spans on the main thread add up to the traced
`cli.main` time.  Worker spans on pool threads are reported as busy
time instead.  A name the program no longer has is skipped and its
metrics read 0.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute or Class.method, span name, counter name, counter)
TARGETS = (
    ("cli", "build_manifest", "cli.build_manifest", None, None),
    ("cli", "load_csv", "data.load_csv", "data.load_csv.rows", lambda r: r.n + r.m),
    ("cli", "ranc_pvalues", "ranc.ranc_pvalues", None, None),
    ("cli", "ranc_values", "ranc.ranc_values", None, None),
    ("procedures", "ranc_values", "ranc.ranc_values", None, None),
    ("cli", "bh", "procedures.bh", "procedures.bh.n_rejected", lambda r: r.n_rejected),
    ("procedures", "RejectionResult.to_dict", "procedures.RejectionResult.to_dict", None, None),
    ("cli", "permutation_global", "procedures.permutation_global",
     "procedures.permutation_global.subsets", lambda r: len(r[1])),
    ("cli", "cdf_threshold", "localfdr.cdf_threshold",
     "localfdr.cdf_threshold.candidates", lambda r: len(r.objective_at_candidates) - 1),
    ("cli", "localfdr_curve", "localfdr.localfdr_curve",
     "localfdr.localfdr_curve.breakpoints", lambda r: len(r.breakpoints)),
    ("localfdr", "LocalFdrResult.to_dict", "localfdr.LocalFdrResult.to_dict", None, None),
    ("svg", "step_curve_svg", "svg.step_curve_svg", "svg.step_curve_svg.bytes",
     lambda r: len(r.encode("utf-8"))),
    ("simulate", "simulate_cell", "simulate.simulate_cell", "simulate.simulate_cell.reps",
     lambda r: r.reps),
    ("cli", "fisher_miscalibration_demo", "simulate.fisher_miscalibration_demo", None, None),
    ("simulate", "rep_rng", "util.rep_rng", None, None),
    ("procedures", "rep_rng", "util.rep_rng", None, None),
)
MAP_REPS_OWNERS = ("simulate", "procedures")
WORKER = "util.map_reps.worker"
SPANS = ("cli.main",) + tuple(dict.fromkeys(t[2] for t in TARGETS)) + ("util.map_reps",)

# Every per-layer metric, in BENCHMARK.json order: (name, unit, better).
LAYER_METRICS = (
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_manifest.s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("data.load_csv.s", "s", "lower"),
    ("data.load_csv.rows_per_s", "rows/s", "higher"),
    ("ranc.ranc_pvalues.s", "s", "lower"),
    ("ranc.ranc_values.calls", "count", "lower"),
    ("ranc.ranc_values.s", "s", "lower"),
    ("procedures.bh.s", "s", "lower"),
    ("procedures.bh.n_rejected", "count", "higher"),
    ("procedures.RejectionResult.to_dict.s", "s", "lower"),
    ("procedures.permutation_global.self_s", "s", "lower"),
    ("procedures.permutation_global.subsets", "count", "higher"),
    ("localfdr.cdf_threshold.s", "s", "lower"),
    ("localfdr.cdf_threshold.candidates", "count", "higher"),
    ("localfdr.localfdr_curve.s", "s", "lower"),
    ("localfdr.localfdr_curve.breakpoints", "count", "higher"),
    ("localfdr.localfdr_curve.breakpoint_share", "fraction", "higher"),
    ("localfdr.LocalFdrResult.to_dict.s", "s", "lower"),
    ("svg.step_curve_svg.s", "s", "lower"),
    ("svg.step_curve_svg.bytes", "bytes", "lower"),
    ("simulate.simulate_cell.self_s", "s", "lower"),
    ("simulate.simulate_cell.reps", "count", "higher"),
    ("simulate.fisher_miscalibration_demo.self_s", "s", "lower"),
    ("util.map_reps.s", "s", "lower"),
    ("util.map_reps.busy_s", "s", "lower"),
    ("util.map_reps.threads", "count", "higher"),
    ("util.map_reps.utilisation", "fraction", "higher"),
    ("util.map_reps.single_thread_s", "s", "lower"),
    ("util.rep_rng.calls", "count", "lower"),
    ("util.rep_rng.busy_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_share", "fraction", "higher"),
) + tuple((f"{span}.errors", "count", "lower") for span in SPANS)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [id, parent id, name, thread id, start, end, raised]
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def open(self, name: str, parent=None) -> list:
        stack = self._stack()
        span = [next(self._ids), parent if parent is not None else self.current(),
                name, threading.get_ident(), time.perf_counter(), None, False]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name: str, fn, *args, parent=None, **kwargs):
        span = self.open(name, parent)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[6] = True
            raise
        finally:
            self.close(span)

    def wrap(self, name: str, fn, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.counts[counter] += count(result)
            return result

        return traced

    def traced_map_reps(self, real):
        def map_reps(worker, n_reps, *args, **kwargs):
            parent = self.current()

            def traced_worker(rep):
                return self.call(WORKER, worker, rep, parent=parent)

            return real(traced_worker, n_reps, *args, **kwargs)

        return self.wrap("util.map_reps", map_reps)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer, modules: dict) -> Patches:
    """Wrap every traced name that exists in `modules` (short name -> module)."""
    patches = Patches()
    for module, path, span, counter, count in TARGETS:
        owner = modules[module]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is not None and hasattr(owner, attr):
            patches.set(owner, attr, tracer.wrap(span, getattr(owner, attr), counter, count))
    for module in MAP_REPS_OWNERS:
        owner = modules[module]
        if hasattr(owner, "map_reps"):
            patches.set(owner, "map_reps", tracer.traced_map_reps(owner.map_reps))
    return patches


def layer_metrics(tracer: Tracer, single_thread_s: float, untraced_s: float,
                  output_bytes: int) -> dict:
    """Per-layer metrics from the spans and counters of one traced run."""
    by_id = {s[0]: s for s in tracer.spans}
    child_time = defaultdict(float)
    for s in tracer.spans:
        parent = by_id.get(s[1])
        if parent is not None and parent[3] == s[3]:
            child_time[s[1]] += s[5] - s[4]
    total, self_time, calls, errors = (defaultdict(float) for _ in range(4))
    worker_threads = defaultdict(set)
    for s in tracer.spans:
        duration = s[5] - s[4]
        total[s[2]] += duration
        self_time[s[2]] += duration - child_time[s[0]]
        calls[s[2]] += 1
        errors[s[2]] += s[6]
        if s[2] == WORKER:
            worker_threads[s[1]].add(s[3])
    main_threads = {s[3] for s in tracer.spans if s[2] == "cli.main"}
    main_self = sum(s[5] - s[4] - child_time[s[0]] for s in tracer.spans if s[3] in main_threads)
    threads = max((len(t) for t in worker_threads.values()), default=0)
    counts = tracer.counts
    values = {
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": self_time["cli.main"],
        "cli.build_manifest.s": total["cli.build_manifest"],
        "cli.output_bytes": output_bytes,
        "data.load_csv.s": total["data.load_csv"],
        "data.load_csv.rows_per_s": _ratio(counts["data.load_csv.rows"], total["data.load_csv"]),
        "ranc.ranc_pvalues.s": total["ranc.ranc_pvalues"],
        "ranc.ranc_values.calls": calls["ranc.ranc_values"],
        "ranc.ranc_values.s": total["ranc.ranc_values"],
        "procedures.bh.s": total["procedures.bh"],
        "procedures.bh.n_rejected": counts["procedures.bh.n_rejected"],
        "procedures.RejectionResult.to_dict.s": total["procedures.RejectionResult.to_dict"],
        "procedures.permutation_global.self_s": self_time["procedures.permutation_global"],
        "procedures.permutation_global.subsets": counts["procedures.permutation_global.subsets"],
        "localfdr.cdf_threshold.s": total["localfdr.cdf_threshold"],
        "localfdr.cdf_threshold.candidates": counts["localfdr.cdf_threshold.candidates"],
        "localfdr.localfdr_curve.s": total["localfdr.localfdr_curve"],
        "localfdr.localfdr_curve.breakpoints": counts["localfdr.localfdr_curve.breakpoints"],
        "localfdr.localfdr_curve.breakpoint_share": _ratio(
            counts["localfdr.localfdr_curve.breakpoints"], counts["localfdr.cdf_threshold.candidates"]),
        "localfdr.LocalFdrResult.to_dict.s": total["localfdr.LocalFdrResult.to_dict"],
        "svg.step_curve_svg.s": total["svg.step_curve_svg"],
        "svg.step_curve_svg.bytes": counts["svg.step_curve_svg.bytes"],
        "simulate.simulate_cell.self_s": self_time["simulate.simulate_cell"],
        "simulate.simulate_cell.reps": counts["simulate.simulate_cell.reps"],
        "simulate.fisher_miscalibration_demo.self_s": self_time["simulate.fisher_miscalibration_demo"],
        "util.map_reps.s": total["util.map_reps"],
        "util.map_reps.busy_s": total[WORKER],
        "util.map_reps.threads": threads,
        "util.map_reps.utilisation": _ratio(total[WORKER], total["util.map_reps"] * threads),
        "util.map_reps.single_thread_s": single_thread_s,
        "util.rep_rng.calls": calls["util.rep_rng"],
        "util.rep_rng.busy_s": total["util.rep_rng"],
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": total["cli.main"] - untraced_s,
        "trace.self_sum_share": _ratio(main_self, total["cli.main"]),
    }
    values.update({f"{span}.errors": errors[span] for span in SPANS})
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,thread,start,end,raised\n")
        for s in sorted(tracer.spans):
            fh.write(",".join("" if v is None else str(v) for v in s) + "\n")
