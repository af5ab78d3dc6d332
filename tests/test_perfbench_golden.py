"""The runtime and the solver reproduce what the benchmark recorded.

``perfbench/data/golden.json`` holds the desk table's ``decide_batch`` bits on
10,000 standardized master rows, the checksum of the benchmark's build and
the ``experiment`` cells' rejection counts and interval length ratios.
Checking them here makes a change that flips a decision, moves a table byte
or lets the harness or an adapter drift fail the test suite, not only the
benchmark.  The confidence intervals of the benchmark's ``interval`` and
``interval_set`` samples are pinned bit for bit: the benchmark only checks
them within a tolerance.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rtt.fa
import rtt.inference
import rtt.solver
from rtt.inference import TableSet, confidence_interval
from rtt.solver import TestEvaluator, build_table
from rtt.table import dumps_table, loads_table, table_checksum

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_batch_bits_match_golden():
    W = _workloads()
    want = np.frombuffer(W.load_golden()["batch"]["bits"].encode(), dtype=np.uint8) == ord("1")
    yr, yl, y0 = W.standardized_rows(W.batch_indices(W.BATCH_MASTER_ROWS))
    got = TestEvaluator(W.load_tables()["desk"]).decide_batch(yr, yl, y0)
    assert want.size == W.BATCH_MASTER_ROWS and 0 < want.sum() < want.size
    assert np.array_equal(got, want)


# float.hex endpoints of each golden sample's CI: (sample, low, high).  The
# golden values were recorded before bisection ran to adjacent doubles, so
# they agree with these only within the benchmark's tolerance.
INTERVAL_095_DESK = (
    (0, "-0x1.4a81c28047575p-3", "0x1.b66903356ba67p-1"),
    (1, "-0x1.bb6a9a04ebc52p-3", "0x1.9de4c3da696f7p-2"),
    (2, "-0x1.155d41abc471bp-1", "-0x1.0e0c95d4f868fp-5"),
)
INTERVAL_080_SET = ((0, "0x1.22dfc92d94db5p-3", "0x1.2ea15ee06748fp-1"),)


def test_interval_endpoints_are_pinned():
    W = _workloads()
    golden, tables = W.load_golden(), W.load_tables()
    nested = TableSet([tables["desk"], tables["a10"], tables["a20"]])
    for level, source, pinned, key in (
        (0.95, tables["desk"], INTERVAL_095_DESK, "interval"),
        (0.80, nested, INTERVAL_080_SET, "interval_set"),
    ):
        assert [row[0] for row in golden[key]] == [i for i, _, _ in pinned]
        for i, lo, hi in pinned:
            got = confidence_interval(W.master_sample(i), level, source)
            assert tuple(map(float.hex, got)) == (lo, hi)


def test_interval_runs_the_quadrature_once_per_distinct_spacing_row(monkeypatch):
    # the rows of one sample at many means share their spacing rows: one CI
    # evaluates each distinct spacing row once, in a few quadrature blocks
    # (positive-shape _log_fa_shapes calls), not one per decision call
    W = _workloads()
    w = W.master_sample(W.load_golden()["interval"][0][0])
    desk = W.load_tables()["desk"]
    real, blocks = rtt.fa._log_fa_shapes, []

    def spy(dl, xi, *args):
        if xi[0] > 0.0:
            blocks.append([row.tobytes() for row in dl])
        return real(dl, xi, *args)

    monkeypatch.setattr(rtt.fa, "_log_fa_shapes", spy)
    got = confidence_interval(w, 0.95, desk)
    assert tuple(map(float.hex, got)) == INTERVAL_095_DESK[0][1:]
    rows = sum(blocks, [])
    assert 1 <= len(blocks) <= 3
    assert len(rows) == len(set(rows))


@pytest.fixture(scope="module")
def benchmark_build():
    return build_table(_workloads().build_config())


def test_build_checksum_matches_golden(benchmark_build):
    assert table_checksum(benchmark_build) == _workloads().load_golden()["build"]["checksum"]


def test_built_table_is_its_stored_copy(benchmark_build, monkeypatch):
    # one atom order from construction: the built table and the table read
    # back from its file are equal, share a hash and one cached evaluator,
    # and sum every denominator in the same order
    stored = loads_table(dumps_table(benchmark_build))
    assert stored == benchmark_build and hash(stored) == hash(benchmark_build)
    assert rtt.inference._evaluator(stored) is rtt.inference._evaluator(benchmark_build)
    yr, yl, y0 = _workloads().standardized_rows(range(2000))
    runs = []
    for table in (benchmark_build, stored):
        denoms = []

        def spy(term, lam):
            denoms.append(real(term, lam))
            return denoms[-1]

        real = rtt.solver._denom_rows
        monkeypatch.setattr(rtt.solver, "_denom_rows", spy)
        bits = TestEvaluator(table).decide_batch(yr, yl, y0)
        monkeypatch.undo()
        runs.append((bits, denoms))
    (bits_a, den_a), (bits_b, den_b) = runs
    assert 0 < bits_a.sum() and np.array_equal(bits_a, bits_b)
    assert len(den_a) == len(den_b) > 2
    assert all(a.tobytes() == b.tobytes() for a, b in zip(den_a, den_b))


def test_experiment_cells_match_golden():
    # every full cell: rejection counts exactly, CI length ratios within the
    # benchmark's REL_LENGTH_TOL
    W = _workloads()
    work = W.ExperimentWorkload(W.load_golden(), W.load_tables())
    items = work.inputs(0)
    work.prepare(W.load_tables(), items)
    assert len(items) == 7 * len(W.EXPERIMENT_CELLS) == 42
    for item in items:
        output, _ = work.op(item)
        assert work.check(item, output) is None
