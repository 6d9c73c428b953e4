"""Layer tracing from outside the engine.

The traced run wraps the public functions the engine's layers call into
(parser, compiler, step dispatch, ``execute_plan``, the columnar kernels,
DML, the server's request runner, the MPP superstep) with timing
wrappers.  Each call becomes a span ``(id, parent, name, start, end)``
kept in memory; a span's *self time* is its duration minus the time its
child spans cover, and self times roll up into the span's layer.

Functions are often imported by name (``from .kernels import
factorize``), so a wrapper must replace every binding of the original,
not just the one in its defining module.  :class:`Patcher` does that by
scanning the loaded ``repro`` modules, and undoes every replacement on
:meth:`Patcher.restore` — including bindings made while the wrappers
were installed, by modules imported late.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

LAYERS = ("sql", "plan", "runtime", "execution", "kernels", "storage",
          "server", "mpp")

# Spans kept per thread for the trace file; the totals count them all.
MAX_SPANS = 200_000

# execute_plan is classified by the logical node it evaluates.
NODE_KINDS = {
    "LogicalScan": "scan", "LogicalTempScan": "scan",
    "LogicalValues": "scan", "LogicalFilter": "filter",
    "LogicalProject": "project", "LogicalRename": "project",
    "LogicalJoin": "join", "LogicalSemiJoin": "join",
    "LogicalAggregate": "aggregate", "LogicalUnion": "setop",
    "LogicalSetDifference": "setop", "LogicalDistinct": "setop",
    "LogicalSort": "sort", "LogicalLimit": "sort",
}


def _node_name(args, kwargs) -> str:
    kind = NODE_KINDS.get(type(args[0]).__name__, "other")
    return "execution." + kind


def _step_name(args, kwargs) -> str:
    """The handler module ``repro.runtime.registry.dispatch`` picks."""
    from repro.runtime.registry import HANDLERS
    step = args[1]
    for step_type in type(step).__mro__:
        handler = HANDLERS.get(step_type)
        if handler is not None:
            return "runtime.step_" + handler.__module__.rsplit(".", 1)[-1]
    return "runtime.step_unknown"


def _len_arg(index: int) -> Callable:
    def rows(args, kwargs) -> int:
        return len(args[index]) if len(args) > index else 0
    return rows


def _len_first_column(args, kwargs) -> int:
    columns = args[0] if args else ()
    return len(columns[0]) if len(columns) else 0


def _rowcount(result) -> int:
    return int(result)


# (module, attribute, span name, layer, input rows, result rows)
FUNCTION_TARGETS = (
    ("repro.sql.parser", "parse", "sql.parse", "sql", None, None),
    ("repro.sql.normalize", "normalize_statement", "sql.normalize", "sql",
     None, None),
    ("repro.core.rewrite", "compile_statement", "plan.compile", "plan",
     None, None),
    ("repro.runtime.registry", "dispatch", _step_name, "runtime", None,
     None),
    ("repro.execution.operators", "execute_plan", _node_name, "execution",
     None, None),
    ("repro.execution.operators", "execute_to_table",
     "execution.materialize", "execution", None, None),
    ("repro.execution.kernels", "factorize", "kernels.factorize",
     "kernels", _len_arg(0), None),
    ("repro.execution.kernels", "encode_keys", "kernels.encode_keys",
     "kernels", _len_first_column, None),
    ("repro.execution.kernels", "build_probe_index",
     "kernels.build_probe_index", "kernels", _len_arg(0), None),
    ("repro.execution.kernels", "equi_join_pairs", "kernels.equi_join_pairs",
     "kernels", _len_arg(0), None),
    ("repro.execution.kernels", "group_ids", "kernels.group_ids", "kernels",
     _len_arg(0), None),
    ("repro.execution.kernels", "distinct_indices",
     "kernels.distinct_indices", "kernels", _len_first_column, None),
    ("repro.execution.kernels", "scatter_update", "kernels.scatter_update",
     "kernels", _len_arg(1), None),
    ("repro.execution.kernels", "sort_indices", "kernels.sort_indices",
     "kernels", _len_first_column, None),
    ("repro.execution.kernel_cache", "build_dictionary", "kernels.cache",
     "kernels", _len_arg(0), None),
    ("repro.engine.dml", "execute_insert", "storage.insert", "storage",
     None, _rowcount),
    ("repro.engine.dml", "execute_delete", "storage.delete", "storage",
     None, _rowcount),
    ("repro.engine.dml", "execute_update", "storage.update", "storage",
     None, _rowcount),
    ("repro.mpp.iterative", "distributed_pagerank", "mpp.loop", "mpp",
     None, None),
    ("repro.mpp.iterative", "distributed_sssp", "mpp.loop", "mpp", None,
     None),
    ("repro.mpp.superstep", "superstep_pool", "mpp.superstep", "mpp", None,
     None),
)

# (module, class, method, span name, layer, input rows)
METHOD_TARGETS = (
    ("repro.storage.column", "Column", "take", "kernels.take", "kernels",
     _len_arg(1)),
    ("repro.execution.kernel_cache", "KernelCache", "dictionary",
     "kernels.cache", "kernels", None),
    ("repro.execution.kernel_cache", "KernelCache", "join_index",
     "kernels.cache", "kernels", None),
    ("repro.plan.cache", "PlanCache", "get_text", "plan.cache", "plan",
     None),
    ("repro.plan.cache", "PlanCache", "get_normalized", "plan.cache",
     "plan", None),
    ("repro.plan.cache", "PlanCache", "store", "plan.cache", "plan", None),
    ("repro.runtime.interpreter", "ProgramRunner", "run", "runtime.run",
     "runtime", None),
    ("repro.storage.catalog", "Catalog", "get", "storage.catalog",
     "storage", None),
    ("repro.storage.catalog", "Catalog", "put", "storage.catalog",
     "storage", None),
    ("repro.storage.snapshot", "SnapshotCatalog", "get", "storage.snapshot",
     "storage", None),
    ("repro.server.service", "DatabaseServer", "_run", "server.service",
     "server", None),
    ("repro.mpp.cluster", "Cluster", "distribute", "mpp.distribute", "mpp",
     None),
    ("repro.mpp.workers", "WorkerPool", "load", "mpp.transfer", "mpp",
     None),
    ("repro.mpp.workers", "WorkerPool", "fetch", "mpp.transfer", "mpp",
     None),
)


class _ThreadState:
    """One thread's span stack and accumulators (merged at the end)."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.lock_depth = 0
        self.lock_since = 0.0


class LayerTracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self):
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _close(self, state: _ThreadState, frame: list, name: str,
               layer: str, start: float, end: float) -> None:
        duration = end - start
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[1] += duration
        state.calls[name] += 1
        state.inclusive[name] += duration
        state.self_time[name] += duration - frame[1]
        state.layer_self[layer] += duration - frame[1]
        if len(state.spans) < MAX_SPANS:
            state.spans.append((frame[0], parent[0] if parent else 0,
                                name, start, end, state.thread))

    def span(self, name: str, layer: str):
        """Context manager recording one span around a block."""
        return _Span(self, name, layer)

    def wrap(self, fn: Callable, name, layer: str,
             rows: Optional[Callable] = None,
             result_rows: Optional[Callable] = None) -> Callable:
        tracer = self
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            with tracer.span(span_name, layer) as span:
                result = fn(*args, **kwargs)
            if rows is not None:
                span.state.rows[span_name] += rows(args, kwargs)
            if result_rows is not None:
                span.state.rows[span_name] += result_rows(result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Merged accumulators: calls, inclusive/self seconds and rows per
        span name, self seconds per layer."""
        merged = {"calls": defaultdict(int), "inclusive": defaultdict(float),
                  "self": defaultdict(float), "rows": defaultdict(int),
                  "layer_self": defaultdict(float)}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, source in (("calls", state.calls),
                                ("inclusive", state.inclusive),
                                ("self", state.self_time),
                                ("rows", state.rows),
                                ("layer_self", state.layer_self)):
                for name, value in source.items():
                    merged[key][name] += value
        return merged

    def span_count(self) -> int:
        with self._lock:
            return sum(len(s.spans) for s in self._states)

    def write(self, path, header: dict) -> None:
        """Write every recorded span, times relative to the tracer's
        creation, as one JSON document."""
        with self._lock:
            states = list(self._states)
        spans = sorted((span for s in states for span in s.spans),
                       key=lambda span: span[3])
        document = dict(header)
        document["columns"] = ["id", "parent", "name", "start_s", "end_s",
                               "thread"]
        document["spans"] = [
            [sid, parent, name, round(start - self.origin, 7),
             round(end - self.origin, 7), thread]
            for sid, parent, name, start, end, thread in spans]
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "layer", "frame", "start", "end",
                 "state")

    def __init__(self, tracer: LayerTracer, name: str, layer: str):
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self):
        self.state = self.tracer._state()
        self.frame = [next(self.tracer._ids), 0.0]
        self.state.stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.state.stack.pop()
        self.tracer._close(self.state, self.frame, self.name, self.layer,
                           self.start, self.end)


class TimedLock:
    """Stands in for ``Engine.write_lock``: the wait to acquire it is a
    storage span, the time it is held is accumulated per thread."""

    def __init__(self, lock, tracer: LayerTracer):
        self.inner = lock
        self._tracer = tracer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        with self._tracer.span("storage.write_lock_wait",
                               "storage") as span:
            acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            span.state.lock_depth += 1
            if span.state.lock_depth == 1:
                span.state.lock_since = span.end
        return acquired

    def release(self) -> None:
        state = self._tracer._state()
        if state.lock_depth == 1:
            state.inclusive["storage.write_lock_hold"] += \
                time.perf_counter() - state.lock_since
            state.calls["storage.write_lock_hold"] += 1
        state.lock_depth -= 1
        self.inner.release()

    def __enter__(self) -> "TimedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class Patcher:
    """Replaces every binding of a function or method with a wrapper and
    puts each original back on :meth:`restore`."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id unique until restore() has run.
        self._wrappers: dict[int, tuple[Any, Any]] = {}

    @staticmethod
    def _modules() -> list:
        return [module for name, module in list(sys.modules.items())
                if module is not None
                and (name == "repro" or name.startswith("repro."))]

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def patch_function(self, module_name: str, attribute: str,
                       wrapper_of: Callable) -> None:
        original = getattr(importlib.import_module(module_name), attribute)
        wrapper = wrapper_of(original)
        self._wrappers[id(wrapper)] = (wrapper, original)
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def patch_method(self, module_name: str, class_name: str,
                     attribute: str, wrapper_of: Callable) -> None:
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__[attribute]
        wrapper = wrapper_of(original)
        self._wrappers[id(wrapper)] = (wrapper, original)
        self._set(owner, attribute, wrapper)

    def patch_attribute(self, owner, attribute: str, value) -> None:
        self._set(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
        # A module imported while the wrappers were installed may have
        # bound a wrapper by name; put the original there too.
        for module in self._modules():
            for name, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._wrappers.clear()


def install(tracer: LayerTracer, patcher: Patcher, engines=()) -> None:
    """Wrap every layer boundary listed above, plus the write lock of
    each engine in ``engines``."""
    for module, attribute, name, layer, rows, result_rows in \
            FUNCTION_TARGETS:
        patcher.patch_function(
            module, attribute,
            lambda fn, n=name, l=layer, r=rows, rr=result_rows:
            tracer.wrap(fn, n, l, r, rr))
    for module, cls, attribute, name, layer, rows in METHOD_TARGETS:
        patcher.patch_method(
            module, cls, attribute,
            lambda fn, n=name, l=layer, r=rows: tracer.wrap(fn, n, l, r))
    for engine in engines:
        patcher.patch_attribute(engine, "write_lock",
                                TimedLock(engine.write_lock, tracer))
