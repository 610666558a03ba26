"""Layer attribution: which ``repro.<package>`` a piece of host cost belongs to.

Two instruments, both bucketing by the code object's file path:

* :class:`CallProfile` — ``cProfile`` around the run.  cProfile closes a
  span per call and aggregates it per (caller, callee) pair as it
  closes; :meth:`CallProfile.report` folds those pairs into a
  (caller layer -> callee layer) edge matrix, and a layer's self time
  is its span time minus its child spans (cProfile's ``inlinetime``).
* :class:`OpcodeCounter` — ``sys.settrace`` with ``f_trace_opcodes``:
  bytecodes executed per layer.

Both yield exact counts on this deterministic kernel (they repeat across
processes); times under instrumentation are shares, not speeds.
"""

from __future__ import annotations

import cProfile
import os
import sys

#: The repo's packages, plus three pseudo-layers so the buckets
#: partition everything that runs: C functions, the Python standard
#: library (and generated code: dataclass ``__init__``s compile from
#: ``<string>``), and the perf lab's own driver code.
LAYERS = (
    "kernel.loop", "kernel.sched", "channels", "core", "stdlib", "net",
    "faults", "replication", "obs", "workloads", "builtins", "pystd", "bench",
)

#: ``src/repro/<first path component>`` -> layer.  ``errors.py`` holds the
#: call-path exceptions (AdmissionError, RemoteCallError) whose
#: constructors run when ``core`` refuses or fails a call.
PACKAGE_LAYER = {
    "kernel": "kernel.loop", "channels": "channels", "core": "core",
    "stdlib": "stdlib", "net": "net", "faults": "faults",
    "replication": "replication", "obs": "obs", "workloads": "workloads",
    "errors.py": "core",
}
SCHED_FILES = ("sched.py", "cpu.py")


class UnknownLayer(LookupError):
    """Code under ``src/repro`` ran that no layer claims."""


class LayerMap:
    """Bucket code file paths into layers (memoised per path)."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self.repro_dir = os.path.realpath(repro_dir) + os.sep
        self.bench_dir = os.path.realpath(bench_dir) + os.sep
        self._cache: dict[str, str] = {}

    def layer_of(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._cache[filename] = self._classify(filename)
        return layer

    def _classify(self, filename: str) -> str:
        if filename.startswith("<"):  # <string>, <frozen ...>: generated/stdlib
            return "pystd"
        path = os.path.realpath(filename)
        if path.startswith(self.repro_dir):
            parts = path[len(self.repro_dir):].split(os.sep)
            if parts[0] == "kernel" and parts[-1] in SCHED_FILES:
                return "kernel.sched"
            layer = PACKAGE_LAYER.get(parts[0])
            if layer is None:
                raise UnknownLayer(
                    f"{path} ran during a workload but belongs to no layer; "
                    f"add its package to perflab/layers.py PACKAGE_LAYER"
                )
            return layer
        if path.startswith(self.bench_dir):
            return "bench"
        return "pystd"


def default_layer_map() -> LayerMap:
    here = os.path.dirname(os.path.abspath(__file__))
    return LayerMap(os.path.join(os.path.dirname(here), "src", "repro"), here)


class CallProfile:
    """cProfile around one run, reduced to per-layer rows and an edge matrix."""

    def __init__(self, layer_map: LayerMap) -> None:
        self.layer_map = layer_map
        self.profiler = cProfile.Profile()

    def __enter__(self) -> "CallProfile":
        self.profiler.enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.profiler.disable()

    def _layer(self, code: object) -> str:
        if isinstance(code, str):  # a C function: "<built-in method ...>"
            return "builtins"
        return self.layer_map.layer_of(code.co_filename)

    def report(self, top: int = 15) -> dict:
        calls = dict.fromkeys(LAYERS, 0)
        total_calls = 0
        self_time = dict.fromkeys(LAYERS, 0.0)
        edges: dict[tuple[str, str], list] = {}
        functions = []
        for entry in self.profiler.getstats():
            code = entry.code
            if isinstance(code, str) and "_lsprof.Profiler" in code:
                continue  # the profiler's own disable()
            layer = self._layer(code)
            total_calls += entry.callcount
            calls[layer] += entry.callcount
            self_time[layer] += entry.inlinetime
            functions.append((entry.inlinetime, entry.callcount, _describe(code), layer))
            for sub in entry.calls or ():
                if isinstance(sub.code, str) and "_lsprof.Profiler" in sub.code:
                    continue
                edge = edges.setdefault((layer, self._layer(sub.code)), [0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.totaltime
        total_self = sum(self_time.values()) or 1.0
        functions.sort(key=lambda f: (-f[0], f[2]))
        return {
            "total_calls": total_calls,
            "calls": calls,
            "self_s": self_time,
            "self_share": {layer: self_time[layer] / total_self for layer in LAYERS},
            "edges": [
                {"caller": a, "callee": b, "calls": count, "span_s": seconds}
                for (a, b), (count, seconds) in sorted(edges.items())
            ],
            "top_self": [
                {"function": name, "layer": layer, "self_s": seconds, "calls": count}
                for seconds, count, name, layer in functions[:top]
            ],
        }


def _describe(code: object) -> str:
    if isinstance(code, str):
        return code
    return f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}:{code.co_name}"


class OpcodeCounter:
    """Bytecodes executed per layer, by ``sys.settrace`` opcode events.

    The global trace function picks the frame's layer once, at ``call``
    time, and returns that layer's pre-bound local tracer — a closure
    over one list cell, so the per-opcode cost is an increment, not a
    dict lookup keyed by filename (measured 3x slower).
    """

    def __init__(self, layer_map: LayerMap) -> None:
        self.layer_map = layer_map
        self._cells = {layer: [0] for layer in LAYERS if layer != "builtins"}
        self._tracers = {layer: _make_tracer(cell) for layer, cell in self._cells.items()}

    def _global_trace(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._tracers[self.layer_map.layer_of(frame.f_code.co_filename)]

    def __enter__(self) -> "OpcodeCounter":
        sys.settrace(self._global_trace)
        return self

    def __exit__(self, *exc_info: object) -> None:
        sys.settrace(None)

    def counts(self) -> dict[str, int]:
        return {layer: cell[0] for layer, cell in self._cells.items()}


def _make_tracer(cell: list):
    def trace(frame, event, arg):
        if event == "opcode":
            cell[0] += 1
        return trace

    return trace

