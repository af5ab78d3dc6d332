"""Every function the benchmark's tracer rebinds must exist in rtt.

``perfbench/tracer.py`` exits when a traced name is missing, so a renamed or
deleted function would otherwise only show when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for layer, path, _ in traced:
        module = importlib.import_module(f"rtt.{layer}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"rtt.{layer}.{path}")
    assert not missing
