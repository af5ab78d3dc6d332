"""Paired before/after record of the benchmark, written as one BENCH file.

    python3 bench/record.py --base HEAD~1 --head HEAD --pairs 10 --out BENCH_<n>.json

Extracts the committed files of two revisions (any tree-ish: a commit, a
branch, or the tree that ``git write-tree`` makes of the index) with ``git
archive`` into a scratch directory, and runs each side's own, unedited
``perfbench/run.py`` there.  Extraction leaves the repository untouched and
gives each side exactly its committed files.

For each workload, pair i runs both sides with seed ``--first-seed + i``,
the base first when i is even and the head first when it is odd, so that a
slow spell of the machine falls on both sides.  Only alternating pairs give
usable comparisons on a machine whose CPU changes speed for seconds at a
time.  Each side also makes one traced run (``--trace 1``) for the
per-layer figures, and computes the checksums of the benchmark build, the
smoke seed-3 build and the smoke seed-1 build at alpha 0.20.  For each of
those builds it also keeps, under ``solver_log``, the count and a sha256 of
its ``rtt.solver`` log lines with every ``elapsed_s=<float>`` removed;
``solver_log.identical`` says whether both sides logged the same stage-1
estimates, LFD iterations and stage-4 line.  ``--desk`` adds one
``perfbench/desk_repro.py`` rebuild per side, with its time, stage split and
peak memory; ``checksums.identical`` says whether both sides built the same
tables.  Each side also decides a fixed corpus with each of
``perfbench/data``'s tables and records a digest of the decisions: 60,060
samples of n = 50, 8,580 from each of the seven populations, each shifted by
a N(0, 0.35^2) mean, drawn from seed 77 and standardized with k = 4.  It
likewise inverts the test on fresh samples and records a digest of the
interval endpoints (their ``float.hex``): 32 samples of n = 50 drawn from
seed 77, cycling the seven populations, each shifted by a N(0, 0.35^2)
mean; the first 24 at level 0.95 on the desk table, the last 8 at 0.80 on
the nested set of the desk, a10 and a20 tables.  ``intervals.identical``
says whether both sides returned the same endpoints bit for bit.  For each
of those intervals the record also keeps, per side, how many f_a quadrature
blocks ran and how many spacing rows they evaluated: it wraps
``rtt.fa._log_fa_shapes``, which both sides look up at call time, and counts
its positive-shape calls, one per quadrature block (at most 195 rows on
the default 21-shape grid).  The page-fault figure is each side's
``ru_minflt`` (minor page faults) over each of three ``decide_batch`` calls
on the ``batch`` workload's 5,000-row block (seed 1) with the desk table,
made in one process; each side runs six such processes, the sides
alternating, since the count after the first call differs from process to
process whatever the code.  Next to the raw lists, ``steady_median`` keeps
each side's median of the steady calls, the second and third of every
process.  The record also keeps each side's line count of every
``src/rtt/*.py`` and their total, so a change's size is in its BENCH file.

The record keeps, per workload and side, the median, quartiles and
IQR/median of ``p90_ms``, ``peak_rss_mb`` and ``setup_s`` with every run's
value, the operation counts, and, per metric, the head's relative change
against the parent's median, the pairs the head won, and whether the gap
of the medians exceeds the parent's IQR.  An existing ``--out`` file for
the same two revisions is updated workload by workload, so the workloads
can be recorded in several invocations.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
METRICS = ("p90_ms", "peak_rss_mb", "setup_s")
RUN_TIMEOUT_S = 1800

CHECKSUM_SNIPPET = """
import hashlib, json, logging, re, sys
sys.path[:0] = ["src", "perfbench"]
import bench_env
bench_env.prepare()
import workloads as W
from rtt.solver import build_table, smoke_build_config
from rtt.table import table_checksum
lines = []
class Lines(logging.Handler):
    def emit(self, record):
        lines.append(re.sub(r" ?elapsed_s=[0-9.]+", "", record.getMessage()))
log = logging.getLogger("rtt.solver")
log.addHandler(Lines())
log.setLevel(logging.INFO)
log.propagate = False
sums, logs = {}, {}
for key, config in (("build", W.build_config()), ("smoke_seed3", smoke_build_config(seed=3)),
                    ("smoke_seed1_a20", smoke_build_config(seed=1, alpha=0.2))):
    lines.clear()
    sums[key] = table_checksum(build_table(config))
    logs[key] = {"lines": len(lines), "sha256": hashlib.sha256("\\n".join(lines).encode()).hexdigest()}
print(json.dumps({"checksums": sums, "solver_log": logs}))
"""

DECISIONS_SNIPPET = """
import hashlib, json, sys
sys.path[:0] = ["src", "perfbench"]
import bench_env
bench_env.prepare()
import numpy as np
import workloads as W
from rtt.inference import summarize, to_ystar
from rtt.populations import make_population, population_names
from rtt.solver import TestEvaluator
rng = np.random.default_rng(77)
rows = []
for name in population_names():
    pop = make_population(name)
    for _ in range(8580):
        shift = rng.normal(0.0, 0.35)
        y = to_ystar(summarize(pop.draw(rng, 50) + shift, 4, 0.0))
        rows.append((y.y_right, y.y_left, y.y0))
yr, yl, y0 = (np.array(c) for c in zip(*rows))
out = {}
for key, table in W.load_tables().items():
    ev = TestEvaluator(table)
    bits = ev.decide_batch(yr, yl, y0)
    out[key] = {"rows": int(bits.size), "gate": int(ev.condition1(yr, yl, y0).sum()),
                "rejected": int(bits.sum()), "sha256": hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()}
print(json.dumps(out))
"""

INTERVALS_SNIPPET = """
import hashlib, json, sys
sys.path[:0] = ["src", "perfbench"]
import bench_env
bench_env.prepare()
import numpy as np
import workloads as W
import rtt.fa
from rtt.inference import TableSet, confidence_interval
from rtt.populations import make_population, population_names
shapes, blocks = rtt.fa._log_fa_shapes, []
def counted(dl, xi, *args):
    if xi[0] > 0.0:  # the positive shapes: one call per quadrature block
        blocks.append(dl.shape[0])
    return shapes(dl, xi, *args)
rtt.fa._log_fa_shapes = counted
rng = np.random.default_rng(77)
names = population_names()
tables = W.load_tables()
targets = {"desk_095": (24, 0.95, tables["desk"]),
           "set_080": (8, 0.80, TableSet([tables["desk"], tables["a10"], tables["a20"]]))}
out, quad, i = {}, {}, 0
for key, (count, level, target) in targets.items():
    ends, calls, rows = [], [], []
    for _ in range(count):
        w = make_population(names[i % len(names)]).draw(rng, 50) + rng.normal(0.0, 0.35)
        blocks.clear()
        ends += [e.hex() for e in confidence_interval(w, level, target)]
        calls.append(len(blocks))
        rows.append(sum(blocks))
        i += 1
    out[key] = {"intervals": count, "level": level,
                "sha256": hashlib.sha256(" ".join(ends).encode()).hexdigest()}
    quad[key] = {"calls": calls, "rows": rows}
print(json.dumps({"intervals": out, "quadrature": quad}))
"""

FAULTS_SNIPPET = """
import json, resource, sys
sys.path[:0] = ["src", "perfbench"]
import bench_env
bench_env.prepare()
import numpy as np
import workloads as W
from rtt.solver import TestEvaluator
rng = np.random.default_rng([W.MASTER_SEED, 1])
idx = np.sort(rng.choice(W.BATCH_MASTER_ROWS, size=W.BATCH_ROWS, replace=False))
rows = W.batch_indices(W.BATCH_MASTER_ROWS)
yr, yl, y0 = W.standardized_rows([rows[j] for j in idx])
ev = TestEvaluator(W.load_tables()["desk"])
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ev.decide_batch(yr, yl, y0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""
FAULT_PROCESSES = 6  # per side, alternating which side runs first
QUADRATURE_OP = ("per confidence interval of the interval corpus, in order: f_a quadrature blocks "
                 "(positive-shape rtt.fa._log_fa_shapes calls) and the spacing rows they evaluate")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` in ``dest``."""
    dest.mkdir(parents=True)
    proc = subprocess.Popen(["git", "-C", str(REPO), "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        sys.exit(f"error: git archive {rev} failed")
    return dest


def run(cmd: list[str], cwd: Path) -> str:
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {cwd} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return done.stdout


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the tree's perfbench: its result line, details and env."""
    out = run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        tree,
    )
    lines = out.splitlines()
    result = json.loads(lines[-1])
    details = {}
    for line in lines:
        if line.startswith("detail "):
            _, name, value = line.split(" ", 2)
            details[name] = value
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"result": result, "details": details, "env": env}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else None,
            "runs": values}


def record_workload(trees: dict, workload: str, pairs: int, first_seed: int, seconds: float,
                    bounds: dict) -> tuple[dict, dict]:
    runs = {side: [] for side in SIDES}
    env = None
    for i in range(pairs):
        seed = first_seed + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            got = perfbench(trees[side], workload, seed, seconds, 0)
            env = env or got["env"]
            runs[side].append(got)
            m = got["result"]["metrics"]
            print(f"{workload} pair {i} seed {seed} {side}: " + " ".join(
                f"{name} {m[name]['value']:.4g}" for name in METRICS), flush=True)
    entry = {"pairs": pairs, "seeds": [first_seed + i for i in range(pairs)], "order":
             "pair i runs base first for even i, head first for odd i"}
    for side in SIDES:
        rs = runs[side]
        entry[side] = {
            **{name: spread([r["result"]["metrics"][name]["value"] for r in rs]) for name in METRICS},
            "ops": [int(r["details"]["ops"]) for r in rs],
            "attempted": [r["result"]["attempted"] for r in rs],
            "failed": [r["result"]["failed"] for r in rs],
            "golden_ok": all(r["result"]["correct"] for r in rs),
        }
    compare = {}
    for name in METRICS:
        base = [r["result"]["metrics"][name]["value"] for r in runs["base"]]
        head = [r["result"]["metrics"][name]["value"] for r in runs["head"]]
        b, h = entry["base"][name], entry["head"][name]
        compare[name] = {
            "change": h["median"] / b["median"] - 1.0,
            "bound": bounds.get(name),
            "head_wins": sum(y < x for x, y in zip(base, head)),
            "ties": sum(y == x for x, y in zip(base, head)),
            "gap_exceeds_base_iqr": abs(h["median"] - b["median"]) > b["q3"] - b["q1"],
        }
    entry["compare"] = compare
    entry["trace"] = {}
    for side in SIDES:
        got = perfbench(trees[side], workload, first_seed, seconds, 1)
        entry["trace"][side] = {k: v["value"] for k, v in got["result"]["metrics"].items()}
    return entry, env


def desk(tree: Path, scratch: Path, side: str) -> dict:
    out = scratch / f"desk-{side}.json"
    run([sys.executable, "perfbench/desk_repro.py", "--out", str(out)], tree)
    got = json.loads(out.read_text(encoding="utf-8"))
    return {key: got[key] for key in ("build_s", "stage_s", "peak_rss_mb", "checksum", "matches")}


def line_counts(tree: Path) -> dict:
    """Lines of each ``src/rtt/*.py`` of a side, as ``wc -l`` counts them."""
    files = {p.name: p.read_bytes().count(b"\n") for p in sorted((tree / "src" / "rtt").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD~1", help="tree-ish of the parent (default HEAD~1)")
    p.add_argument("--head", default="HEAD", help="tree-ish of the change (default HEAD)")
    p.add_argument("--workloads", default="", help="comma-separated; default every workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--desk", action="store_true", help="also rebuild the desk table once per side")
    p.add_argument("--workdir", type=Path, default=None, help="scratch directory (default: a new temporary one)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    revs = {"base": args.base, "head": args.head}
    ids = {side: git("rev-parse", rev) for side, rev in revs.items()}
    scratch = Path(tempfile.mkdtemp(dir=args.workdir, prefix="record-"))
    try:
        record_all(args, revs, ids, scratch)
    finally:
        shutil.rmtree(scratch)
    print(f"wrote {args.out}")
    return 0


def record_all(args, revs: dict, ids: dict, scratch: Path) -> None:
    trees = {side: extract(ids[side], scratch / side) for side in SIDES}
    bench = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]

    record = {}
    if args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
        if {side: record[side]["id"] for side in SIDES} != ids:
            sys.exit(f"error: {args.out} records other revisions; write a new file")
    record.update({side: {"rev": revs[side], "id": ids[side]} for side in SIDES})
    record.setdefault("workloads", {})
    record["protocol"] = {"command": bench["command"], "run_seconds": seconds,
                          "bounds": bounds, "checkout": "git archive of each side"}
    record["lines"] = {side: line_counts(trees[side]) for side in SIDES}

    for name in names:
        entry, env = record_workload(trees, name, args.pairs, args.first_seed, seconds, bounds)
        record["env"] = env
        record["workloads"][name] = entry
        write(args.out, record)
    got = {side: json.loads(run([sys.executable, "-c", CHECKSUM_SNIPPET], trees[side]).splitlines()[-1])
           for side in SIDES}
    record["checksums"] = {side: got[side]["checksums"] for side in SIDES}
    record["solver_log"] = {side: got[side]["solver_log"] for side in SIDES}
    record["solver_log"]["identical"] = record["solver_log"]["base"] == record["solver_log"]["head"]
    record["decisions"] = {
        side: json.loads(run([sys.executable, "-c", DECISIONS_SNIPPET], trees[side]).splitlines()[-1])
        for side in SIDES
    }
    record["decisions"]["identical"] = record["decisions"]["base"] == record["decisions"]["head"]
    got = {side: json.loads(run([sys.executable, "-c", INTERVALS_SNIPPET], trees[side]).splitlines()[-1])
           for side in SIDES}
    record["intervals"] = {side: got[side]["intervals"] for side in SIDES}
    record["intervals"]["identical"] = record["intervals"]["base"] == record["intervals"]["head"]
    record["quadrature"] = {"op": QUADRATURE_OP, **{side: got[side]["quadrature"] for side in SIDES}}
    faults = {side: [] for side in SIDES}
    for i in range(FAULT_PROCESSES):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            faults[side].append(json.loads(run([sys.executable, "-c", FAULTS_SNIPPET], trees[side]).splitlines()[-1]))
    steady = {side: statistics.median(c for calls in faults[side] for c in calls[1:]) for side in SIDES}
    record["page_faults"] = {"op": "ru_minflt per 5,000-row desk decide_batch, three calls per process",
                             **faults, "steady_median": steady}
    if args.desk:
        record["desk"] = {side: desk(trees[side], scratch, side) for side in SIDES}
    if "desk" in record:
        for side in SIDES:
            record["checksums"][side]["desk"] = record["desk"][side]["checksum"]
    record["checksums"]["identical"] = record["checksums"]["base"] == record["checksums"]["head"]
    record["date_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write(args.out, record)


def write(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
