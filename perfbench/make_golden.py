"""Record the benchmark's golden outputs in ``data/golden.json``.

Run from the repository root when the master inputs or the workloads change
on purpose (never to make a failing check pass):

    python3 perfbench/make_golden.py

It builds the two smoke-scale tables of the table set if they are missing
(fixed seed, so they rebuild bit for bit), records the stored tables'
checksums, and evaluates every master input once with the current code.
Takes about three minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import sys
import time

import bench_env

bench_env.prepare()

from rtt.inference import TableSet, confidence_interval, decide, p_value  # noqa: E402
from rtt.harness import run_experiment  # noqa: E402
from rtt.populations import population_names  # noqa: E402
from rtt.solver import TestEvaluator, build_table, smoke_build_config  # noqa: E402
from rtt.table import table_checksum, write_table  # noqa: E402

import workloads as W  # noqa: E402

DESK_PREFIX = "1192558f"
N_INTERVAL = 3
# pooled pass samples; a run draws ``W.DECIDE_SWEEP["pass"]`` of them
N_DECIDE_PASS = 320
N_INTERVAL_SET = 1
EXPERIMENT_SEED_BASE = 1000


def _log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def smoke_tables():
    for key, alpha in (("a10", 0.10), ("a20", 0.20)):
        path = W.DATA / W.TABLE_FILES[key]
        if not path.exists():
            _log(f"building smoke table alpha={alpha}")
            write_table(build_table(smoke_build_config(alpha=alpha, seed=0)), path)


def decide_classes(tables, golden):
    levels = [tables["desk"], tables["a10"], tables["a20"]]
    evs = [TestEvaluator(t) for t in levels]
    tset = TableSet(levels)
    yr, yl, y0 = W.standardized_rows(range(W.CORPUS_SIZE))
    gates = [ev.condition1(yr, yl, y0) for ev in evs]
    passing, failing = [], []
    for i in range(W.CORPUS_SIZE):
        w = W.master_sample(i)
        if not any(g[i] for g in gates):
            failing.append([i, int(decide(w, 0.0, levels[0]).reject), str(p_value(w, 0.0, tset))])
        elif len(passing) < N_DECIDE_PASS and gates[0][i] and all(tset.raw_decisions(w, 0.0)[1:]):
            passing.append([i, int(decide(w, 0.0, levels[0]).reject), str(p_value(w, 0.0, tset))])
    golden["decide"] = {"pass": passing, "fail": failing}
    _log(f"decide corpus: {len(passing)} pass, {len(failing)} fail")


def intervals(tables, golden):
    desk = tables["desk"]
    tset = TableSet([tables["desk"], tables["a10"], tables["a20"]])
    golden["interval"] = [
        [i, *confidence_interval(W.master_sample(i), 0.95, desk)] for i in range(N_INTERVAL)
    ]
    _log("interval done")
    golden["interval_set"] = [
        [i, *confidence_interval(W.master_sample(i), 0.80, tset)] for i in range(N_INTERVAL_SET)
    ]
    _log("interval_set done")


def batch(tables, golden):
    ev = TestEvaluator(tables["desk"])
    bits = []
    indices = W.batch_indices(W.BATCH_MASTER_ROWS)
    for lo in range(0, len(indices), 1000):
        yr, yl, y0 = W.standardized_rows(indices[lo : lo + 1000])
        bits.extend(ev.decide_batch(yr, yl, y0))
    golden["batch"] = {"bits": "".join("1" if b else "0" for b in bits)}
    _log(f"batch: {sum(bits)} of {len(bits)} rows rejected")


def experiment(tables, golden):
    out = []
    for p, pop in enumerate(population_names()):
        for c, cell in enumerate(W.EXPERIMENT_CELLS):
            label, adapter = cell[0], cell[1]
            seed = EXPERIMENT_SEED_BASE + 10 * p + c
            entry = {"population": pop, "cell": f"{label}_{adapter}", "seed": seed}
            for key, cells in (("full", W.EXPERIMENT_CELLS), ("tiny", W.TINY_EXPERIMENT_CELLS)):
                _, _, methods, ci, reps, calib = cells[c]
                design = W.experiment_design(pop, adapter, methods, ci, reps, calib, seed, tables["desk"])
                counts, rel = W.experiment_output(design, run_experiment(design))
                entry[key] = {"counts": counts, "rel": rel}
            out.append(entry)
        _log(f"experiment {pop} done")
    golden["experiment"] = out


def main() -> int:
    smoke_tables()
    tables = W.load_tables()
    checksums = {key: table_checksum(t) for key, t in tables.items()}
    if not checksums["desk"].startswith(DESK_PREFIX):
        print(f"stored desk table has checksum {checksums['desk'][:12]}, expected {DESK_PREFIX}", file=sys.stderr)
        return 1
    golden = {"master_seed": W.MASTER_SEED, "tables": checksums}
    golden["build"] = {
        "checksum": table_checksum(build_table(W.build_config())),
        "tiny_checksum": table_checksum(build_table(W.build_config(tiny=True))),
    }
    _log(f"build checksum {golden['build']['checksum'][:12]}")
    decide_classes(tables, golden)
    batch(tables, golden)
    experiment(tables, golden)
    intervals(tables, golden)
    with open(W.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    _log(f"wrote {W.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
