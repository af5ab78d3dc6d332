"""The benchmark's workloads: inputs, one operation, and its golden check.

Every workload draws its inputs from a fixed master set whose outputs are
recorded in ``data/golden.json``.  The run's ``--seed`` picks which pooled
samples the ``decide_*`` workloads use and which master rows form the
``batch`` block; for ``build``, ``interval``, ``interval_set`` and
``experiment`` the inputs are fixed and the seed only sets their order.  So
every timed output is checked against a recorded value, and the same seed
always gives the same inputs.  Inputs are generated in ``inputs``, outside
the timed regions: ``rtt`` receives only arrays, tables and designs.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import rtt.inference
from rtt.adapters import ClusteredDataset, clustered_ols_w, two_sample_w
from rtt.harness import ExperimentDesign, run_experiment
from rtt.inference import TableSet, confidence_interval, decide, p_value, summarize, to_ystar
from rtt.populations import make_population, population_names
from rtt.solver import SolverTuning, TestEvaluator, build_table, smoke_build_config
from rtt.table import read_table, table_checksum

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA / "golden.json"
TABLE_FILES = {
    "desk": "desk_k4_a05.rtt",
    "a10": "smoke_k4_a10.rtt",
    "a20": "smoke_k4_a20.rtt",
}

MASTER_SEED = 2007_07065
SAMPLE_N = 50
# master sample indices: the decide/interval corpus, then the batch rows
CORPUS_SIZE = 3000
# samples one run draws (by its seed) from the recorded pool of each kind
DECIDE_SWEEP = {"pass": 80, "fail": 400}
BATCH_START = 100_008
BATCH_MASTER_ROWS = 10_000
BATCH_ROWS = 5_000

# CI endpoints may move by at most this share of the inversion grid step at
# which the goldens were recorded (512 points over +-10 ranges/sqrt(n)).
# Bisection runs to adjacent doubles, so a correct implementation lands
# within rounding of the recorded endpoint; one wrong decision on the grid
# moves an endpoint by at least a whole step.
CI_TOL_STEPS = 1e-6
# relative tolerance on experiment CI length ratios (means of rounded sums)
REL_LENGTH_TOL = 1e-9

# Smoke-size grid and pool with the desk's recombination, quadrature and
# prescale, so all four stages run their desk code paths in about 3 s and a
# run can time at least three builds.
BUILD_CONFIG = dict(n_draws=12_000, recombine=16, fa_nodes=40)
TINY_BUILD_CONFIG = dict(
    n_draws=4_000, recombine=16, fa_nodes=40, n_xi=3, n_kappa=2, n_eta=2,
    proposal_per_cell=3, max_pairs=20, spot_boundary_resolution=2,
    spot_interior=5,
)
PRESCALE_ITER = 24


def build_config(tiny: bool = False):
    base = TINY_BUILD_CONFIG if tiny else BUILD_CONFIG
    return smoke_build_config(**base, tuning=SolverTuning(prescale_iter=PRESCALE_ITER))


# (label, adapter, methods, compute_ci, replications, calibration_reps);
# sized so one sweep over all seven populations takes about 2 s
EXPERIMENT_CELLS = (
    ("A", "mean", ("t_test", "sym_boot", "asym_boot", "new"), False, 12, 0),
    ("A", "two_sample", ("t_test", "sym_boot", "asym_boot", "new"), False, 12, 0),
    ("A", "cluster_ols", ("t_test", "sym_boot", "asym_boot", "wild_cluster", "new"), False, 2, 0),
    ("B", "mean", ("t_test", "sym_boot", "asym_boot"), True, 8, 600),
    ("B", "two_sample", ("t_test", "sym_boot", "asym_boot"), True, 8, 500),
    ("B", "cluster_ols", ("t_test", "sym_boot", "asym_boot"), True, 2, 50),
)
TINY_EXPERIMENT_CELLS = tuple(
    (label, adapter, methods, ci, 1, 50 if ci else 0)
    for label, adapter, methods, ci, _, _ in EXPERIMENT_CELLS
)


def experiment_design(pop, adapter, methods, ci, reps, calib, seed, table) -> ExperimentDesign:
    extra = {"calibration_reps": calib} if ci else {}
    return ExperimentDesign(
        population=pop, adapter=adapter, n=SAMPLE_N, replications=reps,
        methods=methods, seed=seed, table=table, compute_ci=ci, **extra,
    )


def experiment_output(design: ExperimentDesign, report) -> tuple[dict, dict]:
    """Rejection counts per method and (with intervals) relative CI lengths."""
    counts = {r["method"]: int(round(r["reject_rate"] * design.replications)) for r in report.rows}
    rel = {r["method"]: r["rel_ci_length"] for r in report.rows} if design.compute_ci else {}
    return counts, rel


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_tables() -> dict:
    """The stored tables, each validated by its own digest on read."""
    return {key: read_table(DATA / name) for key, name in TABLE_FILES.items()}


def verify_tables(tables: dict, golden: dict) -> list[str]:
    return [
        f"table {key}: checksum {table_checksum(t)[:12]} != golden {golden['tables'][key][:12]}"
        for key, t in tables.items()
        if table_checksum(t) != golden["tables"][key]
    ]


# ---------------------------------------------------------------------------
# master inputs


def master_sample(i: int) -> np.ndarray:
    """Master sample i: n=50 effective observations with a random mean shift.

    Indices cycle through the seven populations for the mean problem, then a
    two-sample difference and a clustered regression on a rotating population.
    """
    rng = np.random.default_rng([MASTER_SEED, i])
    names = population_names()
    kind = i % 9
    shift = float(rng.normal(0.0, 0.35))
    if kind < 7:
        return make_population(names[kind]).draw(rng, SAMPLE_N) + shift
    pop = make_population(names[(i // 9) % 7])
    if kind == 7:
        half = SAMPLE_N // 2
        w1 = pop.draw(rng, half) + math.sqrt(0.1) * rng.standard_normal(half)
        w2 = math.sqrt(0.1) * rng.standard_normal(half)
        return two_sample_w(w1 + 2.0 * shift, w2)
    size = 10
    n_obs = SAMPLE_N * size
    x = rng.standard_normal(n_obs)
    z = np.column_stack([np.ones(n_obs), rng.standard_normal((n_obs, 5))])
    labels = np.repeat(np.arange(SAMPLE_N), size)
    u = pop.draw(rng, SAMPLE_N)[labels] * x + rng.standard_normal(n_obs)
    return clustered_ols_w(ClusteredDataset(y=shift * x + u, x=x, controls=z, clusters=labels))


def standardized_rows(indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y_right, y_left, y0) of master samples at mu0 = 0, one row each."""
    ys = [to_ystar(summarize(master_sample(int(i)), 4, 0.0)) for i in indices]
    return (
        np.array([y.y_right for y in ys]),
        np.array([y.y_left for y in ys]),
        np.array([y.y0 for y in ys]),
    )


def batch_indices(n: int) -> list[int]:
    """Master indices of the first n batch rows.  The clustered-regression
    kind is left out: its samples take ~1.5 ms each to generate, which
    would dominate set-up, and the rows it gives are no different in kind."""
    out = []
    i = BATCH_START
    while len(out) < n:
        if i % 9 != 8:
            out.append(i)
        i += 1
    return out


def _ci_tolerance(w: np.ndarray) -> float:
    half_width = 10.0 * float(np.ptp(w)) / math.sqrt(w.size)
    return CI_TOL_STEPS * 2.0 * half_width / 511


# ---------------------------------------------------------------------------
# workloads


def reset_runtime_caches() -> None:
    """Drop the evaluators ``decide`` caches per table, so that every set-up
    builds them again (and a traced set-up builds them with traced calls)."""
    cache = getattr(rtt.inference, "_evaluator", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


class Workload:
    """Inputs from a seed, one operation, and the check of its output.

    ``inputs`` makes the run's inputs from the seed, outside any timed
    region; a run sweeps them repeatedly.  ``prepare`` is the program's own
    set-up, timed as ``setup_s``: it binds freshly read tables and makes one
    cheap public call that builds what the first operation would otherwise
    build lazily (the evaluators), so set-up time shows work moved into lazy
    initialisation and no timed operation pays it.
    """

    name = ""

    def __init__(self, golden: dict, tables: dict, tiny: bool = False):
        self.golden = golden
        self.tables = tables
        self.tiny = tiny

    def inputs(self, seed: int) -> list:
        """The inputs of one sweep, in the seed's order."""
        raise NotImplementedError

    def prepare(self, tables: dict, items: list) -> None:
        self.tables = tables

    def op(self, item):
        """Run one operation; returns (output, sub-timings in seconds)."""
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        raise NotImplementedError

    def work(self, item) -> int:
        return 1

    def details(self, records: list) -> dict:
        """Workload-specific figures: name -> (value, unit)."""
        return {}


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90, 99, 99.9):
        if len(values) * (100 - q) / 100 >= 10:
            best = (q, percentile(values, q))
    return best


def _permuted(seq, seed: int) -> list:
    order = np.random.default_rng([MASTER_SEED, seed]).permutation(len(seq))
    return [seq[int(i)] for i in order]


class BuildWorkload(Workload):
    name = "build"

    def inputs(self, seed):
        # the configuration is fixed so its checksum can be recorded; the
        # seed has nothing to choose here
        return [build_config(self.tiny)]

    def op(self, config):
        return build_table(config), {}

    def check(self, config, table):
        want = self.golden["build"]["tiny_checksum" if self.tiny else "checksum"]
        got = table_checksum(table)
        return None if got == want else f"build checksum {got[:12]} != golden {want[:12]}"

    def details(self, records):
        return {"build_s": (percentile([r["t"] for r in records], 50), "s")}


class DecideWorkload(Workload):
    """One sample: ``decide`` at the desk table, then ``p_value`` on the set.

    ``pass`` samples pass the gate and are rejected at the 0.20 and 0.10
    levels, so the p-value scan evaluates all three tables; ``fail`` samples
    fail the gate at every level, so no operation reaches the f_a quadrature.
    The seed draws each run's samples from the recorded pool of its kind.
    """

    def __init__(self, kind: str, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kind = kind
        self.name = f"decide_{kind}"
        self.sweep = 5 if self.tiny else DECIDE_SWEEP[kind]

    def inputs(self, seed):
        pool = self.golden["decide"][self.kind]
        pick = np.random.default_rng([MASTER_SEED, seed]).choice(len(pool), size=self.sweep, replace=False)
        return [(master_sample(i), i, bool(rej), p) for i, rej, p in (pool[int(j)] for j in pick)]

    def prepare(self, tables, items):
        super().prepare(tables, items)
        self.desk = tables["desk"]
        self.tset = TableSet([tables["desk"], tables["a10"], tables["a20"]])
        self.tset.raw_decisions(items[0][0], 0.0)

    def op(self, item):
        w = item[0]
        t0 = time.perf_counter()
        d = decide(w, 0.0, self.desk)
        t1 = time.perf_counter()
        p = p_value(w, 0.0, self.tset)
        t2 = time.perf_counter()
        return (d.reject, str(p)), {"decide": t1 - t0, "pvalue": t2 - t1}

    def check(self, item, output):
        _, i, rej, p = item
        if output != (rej, p):
            return f"sample {i}: (reject, p) = {output} != golden {(rej, p)}"
        return None

    def details(self, records):
        dec = [r["decide"] for r in records]
        out = {
            f"decide_{self.kind}_p50_ms": (percentile(dec, 50) * 1e3, "ms"),
            "pvalue_p50_ms": (percentile([r["pvalue"] for r in records], 50) * 1e3, "ms"),
        }
        tail = tail_percentile(dec)
        if tail:
            out[f"decide_{self.kind}_p{tail[0]:g}_ms"] = (tail[1] * 1e3, "ms")
        return out


class IntervalWorkload(Workload):
    """Test-inversion confidence intervals: the desk table alone at 0.95 on
    three fixed samples, or (``table_set``) the nested set of desk 0.05 and
    smoke 0.10 and 0.20 at 0.80 on one fixed sample.

    The inputs are fixed because their costs differ by up to 2x; the seed
    only sets the order.  The set is inverted at 0.80 (one ``nested_reject``
    per grid point, about 5 s) because at 0.95 (all three tables, about 16 s)
    a run could not time it twice.
    """

    def __init__(self, table_set: bool, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.table_set = table_set
        self.name = "interval_set" if table_set else "interval"
        self.level = 0.80 if table_set else 0.95

    def inputs(self, seed):
        entries = _permuted(self.golden[self.name], seed)[: 1 if self.tiny else None]
        return [(master_sample(i), i, lo, hi) for i, lo, hi in entries]

    def prepare(self, tables, items):
        super().prepare(tables, items)
        if self.table_set:
            self.target = TableSet([tables["desk"], tables["a10"], tables["a20"]])
            self.target.raw_decisions(items[0][0], 0.0)
        else:
            self.target = tables["desk"]
            decide(items[0][0], 0.0, self.target)

    def op(self, item):
        return confidence_interval(item[0], self.level, self.target), {}

    def check(self, item, output):
        w, i, lo, hi = item
        tol = _ci_tolerance(w)
        if abs(output[0] - lo) > tol or abs(output[1] - hi) > tol:
            return f"sample {i}: CI {output} != golden ({lo!r}, {hi!r}) within {tol:.3g}"
        return None

    def details(self, records):
        name = "ci_set_p50_s" if self.table_set else "ci_p50_s"
        return {name: (percentile([r["t"] for r in records], 50), "s")}


class BatchWorkload(Workload):
    """``TestEvaluator.decide_batch`` over one block of 5,000 rows, a random
    subset (from the seed) of 10,000 standardized master rows."""

    name = "batch"

    def inputs(self, seed):
        bits = np.frombuffer(self.golden["batch"]["bits"].encode(), dtype=np.uint8) == ord("1")
        n_master = 400 if self.tiny else BATCH_MASTER_ROWS
        n_rows = 200 if self.tiny else BATCH_ROWS
        rng = np.random.default_rng([MASTER_SEED, seed])
        idx = np.sort(rng.choice(n_master, size=n_rows, replace=False))
        rows = batch_indices(n_master)
        yr, yl, y0 = standardized_rows([rows[j] for j in idx])
        return [(yr, yl, y0, bits[idx])]

    def prepare(self, tables, items):
        super().prepare(tables, items)
        self.ev = TestEvaluator(tables["desk"])

    def op(self, block):
        return self.ev.decide_batch(block[0], block[1], block[2]), {}

    def check(self, block, bits):
        bad = np.flatnonzero(np.asarray(bits) != block[3])
        return f"{bad.size} decide_batch bits differ from golden" if bad.size else None

    def work(self, block):
        return block[2].size

    def details(self, records):
        rows = sum(r["work"] for r in records)
        return {"batch_rows_per_s": (rows / sum(r["t"] for r in records), "1/s")}


class ExperimentWorkload(Workload):
    """Monte Carlo harness cells, six per population (one per cell type).

    A run sweeps all seven populations (the seed sets their order), so every
    run does the same work.  Cell A runs every comparator plus the new test
    without intervals; cell B computes intervals for the t-test and both
    bootstraps, which runs the size-corrected benchmark calibration.
    """

    name = "experiment"

    def inputs(self, seed):
        cells = TINY_EXPERIMENT_CELLS if self.tiny else EXPERIMENT_CELLS
        golden = {(g["population"], g["cell"]): g for g in self.golden["experiment"]}
        items = []
        for pop in _permuted(population_names(), seed):
            for label, adapter, methods, ci, reps, calib in cells:
                g = golden[(pop, f"{label}_{adapter}")]
                spec = (pop, adapter, methods, ci, reps, calib, g["seed"])
                items.append((spec, g["tiny" if self.tiny else "full"], label))
        self.probe = master_sample(0)
        return items

    def prepare(self, tables, items):
        # the designs hold the table, so they are made with each fresh read
        super().prepare(tables, items)
        self.designs = {spec: experiment_design(*spec, tables["desk"]) for spec, _, _ in items}
        decide(self.probe, 0.0, tables["desk"])

    def op(self, item):
        design = self.designs[item[0]]
        return experiment_output(design, run_experiment(design)), {"label": item[2]}

    def check(self, item, output):
        design, want = self.designs[item[0]], item[1]
        counts, rel = output
        where = f"{design.population} {design.adapter} ci={design.compute_ci}"
        if counts != want["counts"]:
            return f"{where}: rejection counts {counts} != golden {want['counts']}"
        for m, v in want["rel"].items():
            if not math.isclose(rel[m], v, rel_tol=REL_LENGTH_TOL):
                return f"{where}: relative CI length of {m} {rel[m]!r} != golden {v!r}"
        return None

    def work(self, item):
        return self.designs[item[0]].replications

    def details(self, records):
        reps = sum(r["work"] for r in records)
        calib = [r["t"] for r in records if r["label"] == "B"]
        return {
            "experiment_reps_per_s": (reps / sum(r["t"] for r in records), "1/s"),
            "calib_cell_s": (percentile(calib, 50), "s"),
        }


WORKLOAD_NAMES = ("build", "decide_pass", "decide_fail", "interval", "interval_set", "batch", "experiment")


def make_workload(name: str, golden: dict, tables: dict, tiny: bool = False) -> Workload:
    if name == "build":
        return BuildWorkload(golden, tables, tiny)
    if name in ("decide_pass", "decide_fail"):
        return DecideWorkload(name.split("_")[1], golden, tables, tiny)
    if name in ("interval", "interval_set"):
        return IntervalWorkload(name == "interval_set", golden, tables, tiny)
    if name == "batch":
        return BatchWorkload(golden, tables, tiny)
    if name == "experiment":
        return ExperimentWorkload(golden, tables, tiny)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
