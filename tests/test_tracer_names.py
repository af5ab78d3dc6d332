"""Every function the benchmark's tracer rebinds must exist in rtt, and
the runtime must call it by that name.

``perfbench/tracer.py`` exits when a traced name is missing, so a renamed or
deleted function would otherwise only show when the benchmark runs; a query
that decided through another name would read as zero decision calls.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _tracer_module().TRACED
    assert traced
    missing = []
    for layer, path, _ in traced:
        module = importlib.import_module(f"rtt.{layer}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"rtt.{layer}.{path}")
    assert not missing


def test_runtime_queries_record_decide_batch_spans():
    # every query decides through TestEvaluator.decide_batch, the name the
    # tracer times, so its spans count the runtime's decision calls
    from rtt.inference import TableSet, confidence_interval, p_value
    from rtt.table import read_table

    module = _tracer_module()
    name = "solver.TestEvaluator.decide_batch"
    root = TRACER.parents[1]
    desk = read_table(root / "tables" / "desk_k4_a05.rtt")
    tset = TableSet([desk, *(read_table(root / "perfbench" / "data" / f"smoke_k4_a{a}.rtt") for a in ("10", "20"))])
    w = np.random.default_rng(3).standard_t(3, size=50)
    tracer = module.Tracer()
    tracer.install(targets=[t for t in module.TRACED if f"{t[0]}.{t[1]}" == name])
    try:
        tracer.recording = True
        queries = [
            lambda: confidence_interval(w, 0.95, desk),
            lambda: p_value(w, float(w.mean()) - 1.0, tset),
            lambda: tset.raw_decisions(w, 0.0),
        ]
        for query in queries:
            before = len(tracer.spans)
            query()
            assert len(tracer.spans) > before
    finally:
        tracer.uninstall()
    assert {tracer.names[nid] for nid, *_ in tracer.spans} == {name}
