"""One-shot desk reproduction: rebuild ``BuildConfig()`` and time its stages.

    python3 perfbench/desk_repro.py

Rebuilds the desk table once (about three minutes on a 2-core machine),
checks its checksum against the stored desk table (``1192558f...``), and
writes the build's wall time, the time of each solver stage, peak memory,
the solver's log lines and the environment block to
``perfbench/results/desk_repro.json``.  Only the five stage functions are
traced, a handful of calls, so the tracing costs nothing measurable.
Exits non-zero if the checksum differs.  Not part of the repeated
workloads.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from pathlib import Path

import bench_env

bench_env.prepare()

from rtt.solver import BuildConfig, build_table  # noqa: E402
from rtt.table import table_checksum  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

STAGES = (
    "solver.calibrate_switching_direct",
    "solver.build_proposal",
    "solver.solve_single_tail",
    "solver.solve_two_tail",
    "solver.spot_check",
)
DEFAULT_OUT = Path(__file__).resolve().parent / "results" / "desk_repro.json"


class _Lines(logging.Handler):
    def __init__(self, start):
        super().__init__()
        self.start = start
        self.lines = []

    def emit(self, record):
        self.lines.append(f"{time.perf_counter() - self.start:8.2f}s {record.getMessage()}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rebuild the desk table once and time its stages")
    p.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = p.parse_args(argv)

    want = table_checksum(W.load_tables()["desk"])
    targets = [t for t in T.TRACED if f"{t[0]}.{t[1]}" in STAGES + ("solver.build_table",)]
    tr = T.Tracer()
    tr.install(targets)
    log = logging.getLogger("rtt.solver")
    handler = _Lines(time.perf_counter())
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    tr.recording = True
    tr.op = 0
    try:
        t0 = time.perf_counter()
        table = build_table(BuildConfig())
        build_s = time.perf_counter() - t0
    finally:
        tr.recording = False
        tr.uninstall()
        log.removeHandler(handler)
    got = table_checksum(table)
    funcs = tr.summary()["functions"]
    stages = {name: funcs[name]["s"] for name in STAGES}
    stages["other"] = build_s - sum(stages.values())
    result = {
        "config": "BuildConfig()",
        "checksum": got,
        "expected_checksum": want,
        "matches": got == want,
        "build_s": build_s,
        "stage_s": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solver_log": handler.lines,
        "env": bench_env.env_block(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"desk build {build_s:.1f} s checksum {got[:12]} "
          f"{'matches' if got == want else 'DIFFERS from ' + want[:12]}")
    for name, s in stages.items():
        print(f"stage {name} {s:.2f} s")
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main())
