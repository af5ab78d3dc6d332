"""In-memory span tracing of calls into the rtt package.

The tracer rebinds each traced function's name in every ``rtt`` module
namespace (and methods on their class), so calls made through those names
record a span.  Spans are kept in memory as tuples and written out at the
end of the run; self time and counts are derived from them afterwards.
Nothing inside ``src/`` is modified: the rebinding lives only in this
process and is undone by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# The package modules, in layer order; each is one layer of the trace.
LAYERS = (
    "solver", "gev", "model", "fa", "space", "table",
    "inference", "harness", "adapters", "populations",
)


def _rows_of_first(args, kwargs):
    y = np.asarray(args[0])
    return 1 if y.ndim == 1 else int(y.shape[0])


def _rows_of_decide_batch(args, kwargs):
    # bound method: (self, y_right, y_left, y0)
    return int(np.atleast_1d(np.asarray(args[3])).size)


def _cols_of_multi(args, kwargs):
    y = np.atleast_2d(np.asarray(args[0]))
    return int(y.shape[0]) * int(np.asarray(args[1]).size)


# (layer, attribute path inside the layer module, work counter or None).
# The work counter returns the rows (or rows x parameter triples) a call
# processes; it is recorded as the span's work.
TRACED = (
    ("solver", "build_table", None),
    ("solver", "calibrate_switching_direct", None),
    ("solver", "simulate_rp", None),
    ("solver", "build_proposal", None),
    ("solver", "heavy_single_candidates", None),
    ("solver", "boundary_left_reps", None),
    ("solver", "proposal_region", None),
    ("solver", "solve_single_tail", None),
    ("solver", "solve_two_tail", None),
    ("solver", "spot_check", None),
    ("solver", "TestEvaluator.decide_batch", _rows_of_decide_batch),
    ("gev", "log_tail_density", None),
    ("gev", "log_tail_density_multi", _cols_of_multi),
    ("gev", "sample_joint_tail", None),
    ("model", "log_extended_density_parts", None),
    ("model", "big_m_star", None),
    ("model", "sample_ystar_block", None),
    ("fa", "log_f_a_single", _rows_of_first),
    ("space", "contains", None),
    ("space", "single_tail_ok", None),
    ("space", "boundary_grid", None),
    ("space", "sample_interior", None),
    ("table", "read_table", None),
    ("table", "table_checksum", None),
    ("inference", "summarize", None),
    ("inference", "decide", None),
    ("inference", "p_value", None),
    ("inference", "confidence_interval", None),
    ("inference", "TableSet.nested_reject", None),
    ("harness", "run_experiment", None),
    ("harness", "size_corrected_benchmark", None),
    ("harness", "t_test", None),
    ("harness", "boot_sym", None),
    ("harness", "boot_asym", None),
    ("harness", "wild_cluster_boot", None),
    ("adapters", "two_sample_w", None),
    ("adapters", "clustered_ols_w", None),
    ("adapters", "cluster_robust_t", None),
    ("populations", "Population.draw", None),
    ("populations", "make_population", None),
)

class Tracer:
    """Records (name, start, end, parent, op, work) spans while recording."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.recording = False
        self._patches: list = []

    # -- installation --------------------------------------------------------
    def install(self, targets=TRACED, callers=()) -> None:
        """Rebind every target's name in all loaded rtt modules and in the
        given caller modules (the benchmark's own, which make the top-level
        calls).  Exits if a target is missing, so that a change which renames
        or removes a traced function updates ``TRACED`` with it instead of
        reading as a saving."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rtt" or n.startswith("rtt.")]
        modules += list(callers)
        for layer, path, work in targets:
            mod = importlib.import_module(f"rtt.{layer}")
            owner_name, _, attr = path.rpartition(".")
            name = f"{layer}.{path}"
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.uninstall()
                sys.exit(f"error: traced function rtt.{name} not found; update TRACED in perfbench/tracer.py")
            if owner_name:
                self._patch(owner, attr, original, self._wrap(name, original, work))
                continue
            wrapped = self._wrap(name, original, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, fn, work):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            amount = work(args, kwargs) if work is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op, amount)

        return traced

    # -- analysis ------------------------------------------------------------
    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, work; per-layer
        self seconds and calls; time inside root spans."""
        n = len(self.spans)
        child = [0] * n
        for nid, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        funcs = {name: {"calls": 0, "s": 0, "self_s": 0, "work": 0} for name in self.names}
        root_ns = 0
        for i, (nid, t0, t1, parent, _, amount) in enumerate(self.spans):
            f = funcs[self.names[nid]]
            f["calls"] += 1
            f["s"] += t1 - t0
            f["self_s"] += t1 - t0 - child[i]
            f["work"] += amount
            if parent < 0:
                root_ns += t1 - t0
        layers = {layer: {"calls": 0, "self_s": 0} for layer in LAYERS}
        for name, f in funcs.items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += f["calls"]
            layer["self_s"] += f["self_s"]
        for f in funcs.values():
            f["s"] /= 1e9
            f["self_s"] /= 1e9
        for layer in layers.values():
            layer["self_s"] /= 1e9
        return {"functions": funcs, "layers": layers, "root_s": root_ns / 1e9, "spans": n}

    def write(self, path) -> None:
        """One JSON object per span: name, start/end (ns), parent index, op, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, t0, t1, parent, op, amount in self.spans:
                fh.write(json.dumps({
                    "name": self.names[nid], "start": t0, "end": t1,
                    "parent": parent, "op": op, "work": amount,
                }) + "\n")


def layer_metric(summary: dict, name: str, traced_s: float):
    """Value of a per-layer metric name against a trace summary.

    Names are ``<layer>.<function path>.<stat>``, ``layer.<layer>.<stat>``,
    or ``layer.outside.self_s`` (traced wall time spent in no traced call).
    """
    head, _, rest = name.partition(".")
    if head == "layer":
        layer, _, stat = rest.partition(".")
        if layer == "outside":
            return traced_s - summary["root_s"]
        return summary["layers"][layer][stat]
    func, _, stat = name.rpartition(".")
    f = summary["functions"][func]
    return f["work"] if stat in ("rows", "cols") else f[stat]
