"""Benchmark of the rtt package: one workload per run, checked against golden
outputs, with a separate traced run for per-layer figures.

    python3 perfbench/run.py --workload decide_pass --seed 1 --seconds 10 --trace 0

Each run is a closed loop with one caller in one process: the next
operation starts when the previous one has returned.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
operations once untraced and once traced, and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is the result
as one JSON object.  The run exits non-zero if any output differs from its
golden value.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

import bench_env

bench_env.prepare()

from rtt.errors import RttError  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
# set-ups per run: a few before the loop, most between its operations (in
# step with the time spent), the rest after it
SETUP_REPS, SETUP_REPS_BEFORE, SETUP_REPS_DURING = 21, 3, 16
MIN_SWEEPS = 3
MAX_REPORTED_MISMATCHES = 10

END_TO_END = (
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

FUNCTION_METRICS = (
    ("solver.build_table.s", "s"),
    ("solver.calibrate_switching_direct.s", "s"),
    ("solver.simulate_rp.calls", "count"),
    ("solver.build_proposal.s", "s"),
    ("solver.solve_single_tail.s", "s"),
    ("solver.solve_two_tail.s", "s"),
    ("solver.spot_check.s", "s"),
    ("gev.log_tail_density.calls", "count"),
    ("gev.log_tail_density.s", "s"),
    ("model.log_extended_density_parts.calls", "count"),
    ("model.log_extended_density_parts.s", "s"),
    ("model.big_m_star.calls", "count"),
    ("model.big_m_star.s", "s"),
    ("fa.log_f_a_single.calls", "count"),
    ("fa.log_f_a_single.rows", "rows"),
    ("fa.log_f_a_single.s", "s"),
    ("inference.summarize.calls", "count"),
    ("inference.summarize.s", "s"),
    ("solver.TestEvaluator.decide_batch.calls", "count"),
    ("solver.TestEvaluator.decide_batch.rows", "rows"),
    ("solver.TestEvaluator.decide_batch.s", "s"),
    ("gev.log_tail_density_multi.calls", "count"),
    ("gev.log_tail_density_multi.cols", "count"),
    ("gev.log_tail_density_multi.s", "s"),
    ("inference.TableSet.nested_reject.calls", "count"),
    ("inference.decide.calls", "count"),
    ("inference.decide.s", "s"),
    ("inference.p_value.s", "s"),
    ("inference.confidence_interval.s", "s"),
    ("harness.size_corrected_benchmark.s", "s"),
    ("harness.t_test.s", "s"),
    ("harness.boot_sym.s", "s"),
    ("harness.boot_asym.s", "s"),
    ("harness.wild_cluster_boot.s", "s"),
    ("adapters.two_sample_w.s", "s"),
    ("adapters.clustered_ols_w.s", "s"),
    ("populations.Population.draw.calls", "count"),
    ("populations.Population.draw.s", "s"),
)
PER_LAYER = (
    FUNCTION_METRICS
    + tuple((f"layer.{layer}.{stat}", unit) for layer in T.LAYERS for stat, unit in (("self_s", "s"), ("calls", "count")))
    + (
        ("layer.outside.self_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
    )
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def make_inputs(args, golden: dict) -> tuple[W.Workload, list]:
    """The workload and its inputs from the seed; not timed."""
    wl = W.make_workload(args.workload, golden, read_tables(golden), args.tiny)
    return wl, wl.inputs(args.seed)


def read_tables(golden: dict) -> dict:
    tables = W.load_tables()
    errors = W.verify_tables(tables, golden)
    if errors:
        sys.exit("\n".join(errors))
    return tables


def program_set_up(wl: W.Workload, items: list, golden: dict) -> float:
    """The program's set-up: read and verify the stored tables, drop the
    evaluator cache, and let the workload build its evaluators.  Returns its
    wall time."""
    t0 = time.perf_counter()
    tables = read_tables(golden)
    W.reset_runtime_caches()
    wl.prepare(tables, items)
    return time.perf_counter() - t0


class Loop:
    """Closed loop over a workload's items; records each operation."""

    def __init__(self, wl: W.Workload, items: list):
        self.wl = wl
        self.items = items
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def one(self, item, tracer: T.Tracer | None = None) -> float:
        """Run, time and check one operation; returns its wall time.  With a
        tracer, only the operation itself is recorded, not its check."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.recording = True
            out, extra = self.wl.op(item)
        except RttError as exc:
            self.failed += 1
            self.mismatches.append(f"operation raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.recording = False
        t = time.perf_counter() - t0
        err = self.wl.check(item, out)
        if err:
            self.mismatches.append(err)
        self.records.append({"t": t, "work": self.wl.work(item), **extra})
        return t

    def run_for(self, seconds: float, between) -> tuple[float, int]:
        """Whole sweeps over the inputs until the next sweep would end past
        ``seconds`` of operations, and at least ``MIN_SWEEPS``, so that even
        a one-input workload has three timings.  ``between(share)`` runs
        after each operation, with the share of ``seconds`` spent so far.
        Cyclic garbage is collected before each sweep, untimed, so that peak
        memory does not depend on when the collector happens to run (a build
        leaves about 9 MB of it).  Returns the time spent in operations and
        the number of sweeps."""
        spent = 0.0
        sweeps = 0
        while True:
            gc.collect()
            for item in self.items:
                spent += self.one(item)
                between(spent / seconds)
            sweeps += 1
            if sweeps >= MIN_SWEEPS and spent * (sweeps + 1) / sweeps > seconds:
                return spent, sweeps


def timed_run(args, golden: dict) -> tuple[Loop, dict, dict]:
    """Set-up is timed ``SETUP_REPS`` times, spread over the run, so that a
    slow spell of the machine moves the median little: set-ups next to each
    other in time ran at the same speed."""
    wl, items = make_inputs(args, golden)
    setups = [program_set_up(wl, items, golden) for _ in range(SETUP_REPS_BEFORE)]

    def between(share: float) -> None:
        while len(setups) < SETUP_REPS_BEFORE + min(share, 1.0) * SETUP_REPS_DURING:
            setups.append(program_set_up(wl, items, golden))

    loop = Loop(wl, items)
    measured, sweeps = loop.run_for(args.seconds, between)
    while len(setups) < SETUP_REPS:
        setups.append(program_set_up(wl, items, golden))
    times = [r["t"] for r in loop.records] or [math.nan]
    metrics = {
        "p90_ms": W.percentile(times, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    info = {
        "measured_s": measured,
        "ops": len(loop.records),
        "inputs": len(items),
        "sweeps": sweeps,
        "setups": len(setups),
        "p50_ms": statistics.median(times) * 1e3,
    }
    tail = W.tail_percentile(times)
    if tail and tail[0] != 90:
        info[f"p{tail[0]:g}_ms"] = tail[1] * 1e3
    info.update(wl.details(loop.records))
    return loop, {name: (metrics[name], unit) for name, unit in END_TO_END}, info


def traced_run(args, golden: dict) -> tuple[Loop, dict, dict]:
    """One sweep over the run's inputs after one warm-up operation, each
    operation run twice, untraced and traced, in alternating order;
    per-layer figures come from the traced runs, and the difference in their
    total wall time is the overhead."""
    tr = T.Tracer()
    tr.install(callers=[W])
    try:
        # set up after installing, so evaluators bind the traced functions
        wl, items = make_inputs(args, golden)
        program_set_up(wl, items, golden)
        loop = Loop(wl, items)
        loop.one(items[0])  # first touch of large arrays, timed in neither pass
        loop.records.clear()
        spent = {False: 0.0, True: 0.0}
        for key, item in enumerate(items):
            tr.op = key
            for recording in ((False, True) if key % 2 == 0 else (True, False)):
                spent[recording] += loop.one(item, tr if recording else None)
    finally:
        tr.uninstall()
    untraced_s, traced_s = spent[False], spent[True]

    summary = tr.summary()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{wl.name}-seed{args.seed}.spans.jsonl"
    tr.write(span_file)
    extra = {
        "trace.spans": summary["spans"],
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        value = extra[name] if name in extra else T.layer_metric(summary, name, traced_s)
        metrics[name] = (value, unit)
    info = {"trace_ops": len(items), "untraced_s": untraced_s, "traced_s": traced_s,
            "span_file": span_file.name}
    return loop, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    golden = W.load_golden()
    import_s = time.perf_counter() - T_START
    env = bench_env.env_block()
    print("env " + json.dumps(env, sort_keys=True))
    loop, metrics, info = (traced_run if args.trace else timed_run)(args, golden)
    info["import_s"] = import_s
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"attempted {loop.attempted} failed {loop.failed}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, value in info.items():
        if isinstance(value, tuple):
            print(f"detail {name} {value[0]:.6g} {value[1]}")
        else:
            print(f"detail {name} {value}")
    correct = not loop.mismatches and bool(loop.records)
    for msg in loop.mismatches[:MAX_REPORTED_MISMATCHES]:
        print(f"golden mismatch: {msg}", file=sys.stderr)
    print(f"golden {'ok' if correct else 'FAILED'}: {len(loop.records)} outputs checked, "
          f"{len(loop.mismatches)} mismatches")

    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "info": info, **result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
