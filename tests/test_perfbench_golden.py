"""The runtime and the solver reproduce what the benchmark recorded.

``perfbench/data/golden.json`` holds the desk table's ``decide_batch`` bits on
10,000 standardized master rows and the checksum of the benchmark's build.
Checking them here makes a change that flips a decision or moves a table
byte fail the test suite, not only the benchmark.  The confidence intervals
of the benchmark's ``interval`` and ``interval_set`` samples are pinned bit
for bit: the benchmark only checks them within a tolerance.
"""

import importlib.util
from pathlib import Path

import numpy as np

from rtt.inference import TableSet, confidence_interval
from rtt.solver import TestEvaluator, build_table
from rtt.table import table_checksum

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


def test_build_checksum_matches_golden():
    W = _workloads()
    assert table_checksum(build_table(W.build_config())) == W.load_golden()["build"]["checksum"]
