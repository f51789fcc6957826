"""In-memory span tracer that wraps weylgeom from the outside.

`Tracer.install()` replaces every public function of each weylgeom
module (the names in its `__all__`) by a wrapper that records one span
per call: span id, name, parent span, thread, start and end.  Every
module namespace that imported the function by name is patched too, so
calls made through `from .x import f` are seen.  Chart callbacks
(`metric_at`, `d_metric`, `d2_metric`) are wrapped where the charts are
built: `wrap_chart` for charts the benchmark makes, and the builder
table `models.CHART_MODELS` for charts the CLI makes.

Spans live in one flat `array('d')`, six numbers per span, appended in a
single call so that rows from the CLI's worker threads never interleave.
`dump()` writes them out once the run ends; `layer_metrics()` derives the
per-operation figures listed in BENCHMARK.json.

Spans are not nested for a direct recursion (`render_json` calls
itself), and `tensor_core.max_abs` is left unwrapped: it is a one-line
reduction called from every other layer, so its span would cost about
as much as its work and would inflate every parent's time.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
import types
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np

MODULES = (
    "tensor_core",
    "curvature_algebra",
    "spectral",
    "chart_geometry",
    "models",
    "classifier",
    "cli",
)
UNWRAPPED = {"tensor_core.max_abs"}
# The three subcommands share one span name so they read as one layer.
RENAMED = {
    "cli.cmd_analyze": "cli.cmd",
    "cli.cmd_verify": "cli.cmd",
    "cli.cmd_spectrum": "cli.cmd",
}
CALLBACKS = ("metric_at", "d_metric", "d2_metric")
FIELDS = 6  # span id, name id, parent id, thread id, start, end


class Tracer:
    def __init__(self):
        self.spans = array("d")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        # Root spans opened in a CLI worker thread hang under the
        # command that submitted them.
        self._command_span = -1.0
        # reduced_jacobi bookkeeping for the direction reuse ratio; the
        # tensors are kept alive for one operation so ids stay unique.
        self._seen: set = set()
        self._alive: dict = {}
        self.distinct_directions = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.tid = self._threads.setdefault(
                threading.get_ident(), len(self._threads)
            )
        return stack

    def wrap(self, fn, name: str, command: bool = False):
        nid = self._name_id(name)
        clock = time.perf_counter
        record = self.spans.extend
        ids = self._ids
        directions = name == "spectral.reduced_jacobi"

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            sid = float(next(ids))
            parent = stack[-1][0] if stack else self._command_span
            if directions:
                tensor = args[0]
                self._alive[id(tensor)] = tensor
                self._seen.add((id(tensor), np.asarray(args[1], dtype=float).tobytes()))
            stack.append((sid, nid))
            if command:
                self._command_span = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if command:
                    self._command_span = -1.0
                record((sid, nid, parent, self._local.tid, t0, t1))

        return traced

    def wrap_chart(self, chart):
        """Chart with each supplied callback wrapped as models.<callback>."""
        hooks = {
            key: self.wrap(getattr(chart, key), f"models.{key}")
            for key in CALLBACKS
            if getattr(chart, key) is not None
        }
        return replace(chart, **hooks)

    def install(self):
        """Wrap the public functions of every weylgeom module, in place."""
        package = importlib.import_module("weylgeom")
        modules = {short: importlib.import_module(f"weylgeom.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and name not in UNWRAPPED
                ):
                    renamed = RENAMED.get(name, name)
                    wrapped[fn] = self.wrap(fn, renamed, command=renamed == "cli.cmd")
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        table = modules["models"].CHART_MODELS
        for key, (builder, allowed) in list(table.items()):
            table[key] = (self._chart_builder(builder), allowed)

    def _chart_builder(self, builder):
        def build(*args, **kwargs):
            return self.wrap_chart(builder(*args, **kwargs))

        return build

    def end_operation(self):
        """Close the direction bookkeeping of one benchmark operation."""
        self.distinct_directions += len(self._seen)
        self._seen.clear()
        self._alive.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=float).reshape(-1, FIELDS).copy()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.table(), names=np.array(self.names))

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation layer figures; `ops` is the attempted count."""
        t = self.table()
        sid = t[:, 0].astype(np.int64)
        nid = t[:, 1].astype(np.int64)
        parent = t[:, 2].astype(np.int64)
        dur = t[:, 5] - t[:, 4]
        size = int(sid.max()) + 1 if len(sid) else 1
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=size)
        child_of = child_s[sid]

        def select(name):
            i = self._name_ids.get(name)
            return np.zeros(len(nid), dtype=bool) if i is None else nid == i

        def ms(name):
            return 1e3 * float(dur[select(name)].sum()) / ops

        def calls(name):
            return float(select(name).sum()) / ops

        riemann = select("chart_geometry.riemann_at")
        cmd = select("cli.cmd")
        cmd_wall = float(dur[cmd].sum())
        cmd_library = float(child_of[cmd].sum())
        solves = float(select("spectral.reduced_jacobi").sum())
        out = {}
        for name in (
            "models.d2_metric",
            "models.metric_at",
            "models.d_metric",
            "chart_geometry.riemann_at",
            "chart_geometry.second_bianchi_residual",
            "chart_geometry.covariant_derivative_endo",
            "spectral.osserman_test",
            "spectral.trace_check",
            "classifier.consensus_profile",
            "classifier.classify_act",
            "classifier.recover_phi",
            "tensor_core.transform_tensor",
            "curvature_algebra.weyl_decompose",
            "curvature_algebra.a_phi",
            "cli.cmd",
            "cli.render_json",
        ):
            out[f"{name}.ms_per_op"] = (ms(name), "ms")
        for name in (
            "models.metric_at",
            "chart_geometry.riemann_at",
            "spectral.reduced_jacobi",
            "tensor_core.transform_tensor",
        ):
            out[f"{name}.calls_per_op"] = (calls(name), "count")
        out["chart_geometry.riemann_at.self_ms_per_op"] = (
            1e3 * float((dur[riemann] - child_of[riemann]).sum()) / ops,
            "ms",
        )
        out["spectral.distinct_directions_per_op"] = (self.distinct_directions / ops, "count")
        out["spectral.direction_reuse_ratio"] = (
            self.distinct_directions / solves if solves else 0.0,
            "ratio",
        )
        out["cli.cmd.library_ms_per_op"] = (1e3 * cmd_library / ops, "ms")
        out["cli.pool_parallelism"] = (cmd_library / cmd_wall if cmd_wall else 0.0, "ratio")
        out["trace.spans_per_op"] = (len(t) / ops, "count")
        return out

