"""The runtime and the solver reproduce what the benchmark recorded.

``perfbench/data/golden.json`` holds the desk table's ``decide_batch`` bits on
10,000 standardized master rows and the checksum of the benchmark's build.
Checking them here makes a change that flips a decision or moves a table
byte fail the test suite, not only the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_build_checksum_matches_golden():
    W = _workloads()
    assert table_checksum(build_table(W.build_config())) == W.load_golden()["build"]["checksum"]
