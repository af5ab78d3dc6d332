"""Quick self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with ``--tiny``, and
checks that the result line has the contract's keys, that the metric names
and units are exactly those in ``BENCHMARK.json``, and that the golden
check passed.  It then feeds each workload's check a tampered golden value
and requires a mismatch, and runs the benchmark in a copy that holds only
``BENCHMARK.json`` and the benchmark directory, where it must fail without
printing a result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import bench_env

bench_env.prepare()

import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = bench_env.ROOT
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg: str) -> None:
    sys.exit(f"selftest FAILED: {msg}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[(k, got[k], want[k]) for k in want.keys() & got.keys() if got[k] != want[k]]}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or (not trace and v <= 0):
            fail(f"{workload}: metric {name} has value {v!r}")
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def tampered(golden: dict) -> dict:
    """Golden values that no correct run can match."""
    g = copy.deepcopy(golden)
    g["build"]["tiny_checksum"] = "0" * 64
    for kind in ("pass", "fail"):
        for entry in g["decide"][kind]:
            entry[1] = 1 - entry[1]
    for key in ("interval", "interval_set"):
        for entry in g[key]:
            entry[1] += 1.0
    g["batch"]["bits"] = g["batch"]["bits"].translate(str.maketrans("01", "10"))
    for entry in g["experiment"]:
        for counts in (entry["full"]["counts"], entry["tiny"]["counts"]):
            for m in counts:
                counts[m] += 1
    return g


def check_golden_wiring() -> None:
    tables = W.load_tables()
    bad = tampered(W.load_golden())
    for name in W.WORKLOAD_NAMES:
        wl = W.make_workload(name, bad, tables, tiny=True)
        items = wl.inputs(1)
        wl.prepare(tables, items)
        item = items[0]
        out, _ = wl.op(item)
        if wl.check(item, out) is None:
            fail(f"{name}: check accepted an output against a tampered golden value")
        print(f"ok {name} golden check rejects a tampered value")


def check_bare_copy() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, "decide_fail", 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("run in a copy without src/ did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok a copy without src/ exits non-zero with no result")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(W.WORKLOAD_NAMES):
        fail("BENCHMARK.json workloads differ from the benchmark's")
    check_golden_wiring()
    for name in W.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_result(name, trace, spec)
    check_bare_copy()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
