"""Spans and counts around the public entry points of each ``repro`` layer.

:func:`install` wraps, from outside the program, the functions and
methods through which one layer calls the next.  Each wrapped call
records a span ``(id, name, start, end, parent)`` in memory; spans are
written out once, by :meth:`Tracer.dump`, when the process ends.
Layer names are the ``src/repro/`` module names; a span's name is
``layer`` or ``layer.operation``.  Counts (task sets generated, probes
admitted, points cached …) are attached to the span of the call that
produced them, so any time window of a run sums its own counts.

Module-level functions are replaced in *every* loaded ``repro`` module
that binds them (``repro.experiments.runner`` imports
``try_partition_tasks`` at the top, the point runners import it at
call time), so :func:`install` first imports every module that binds
one.  Counts are taken at the outermost call of a layer only, so a
layer calling itself (``build_singlecore_system`` partitions through
``try_partition_tasks``) is counted once.

Times come from :func:`time.perf_counter`, which on Linux reads
``CLOCK_MONOTONIC`` and is therefore comparable across the server and
its worker processes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import logging
import math
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Environment variable naming the directory a traced process writes
#: its spans to (one ``spans-<pid>.json`` per process).
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Modules imported before patching, so that every module binding a
#: wrapped function gets the wrapper.
_MODULES = (
    "repro.partition.heuristics",
    "repro.partition",
    "repro.core.singlecore",
    "repro.core",
    "repro.experiments.runner",
    "repro.experiments.scenario",
    "repro.experiments.detection",
    "repro.experiments.fig1",
    "repro.experiments.ablations",
    "repro.sim.runner",
    "repro.sim",
    "repro.allocators.registry",
    "repro.allocators",
    "repro.workloads",
    "repro.analysis.admission",
    "repro.sim.detection",
    "repro.experiments.parallel",
    "repro.experiments.store",
    "repro.executors",
    "repro.jobs.runner",
)


class Tracer:
    """In-memory span and count recorder of one process."""

    def __init__(self) -> None:
        """An empty recorder."""
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self,
        span_id: int,
        name: str,
        start: float,
        parent: int | None,
        counts: dict[str, float] | None,
        end: float | None = None,
    ) -> None:
        if end is None:
            end = time.perf_counter()
        self.spans.append((span_id, name, start, end, parent,
                           threading.get_ident(), counts))

    def event(self, counts: dict[str, float]) -> None:
        """Record ``counts`` as a zero-length span at the current time."""
        now = time.perf_counter()
        self._record(next(self._ids), "event", now, None, counts, now)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Callable[[Any, tuple], dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` per call.

        For the outermost call of the layer (the part of ``name``
        before the first dot), ``observe(result, args)`` returns the
        counts attached to the span.
        """
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append((span_id, layer))
            parent_id = parent[0] if parent else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._record(span_id, name, start, parent_id, None)
                raise
            end = time.perf_counter()
            stack.pop()
            outermost = not any(entry[1] == layer for entry in stack)
            counts = (observe(result, args)
                      if observe is not None and outermost else None)
            self._record(span_id, name, start, parent_id, counts, end)
            return result

        return traced

    def to_dict(self) -> dict[str, Any]:
        """The recorded spans as plain JSON."""
        return {
            "pid": os.getpid(),
            "spans": [
                {
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "counts": counts,
                }
                for span_id, name, start, end, parent, thread, counts
                in self.spans
            ],
        }

    def dump(self, directory: str | Path) -> Path:
        """Write the spans to ``directory/spans-<pid>.json``."""
        target = Path(directory) / f"spans-{os.getpid()}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict()))
        return target


# -- observers ----------------------------------------------------------------


def _tasksets(result: Any, args: tuple) -> dict[str, float]:
    return {"workloads.tasksets":
            len(result) if isinstance(result, list) else 1}


def _partition(result: Any, args: tuple) -> dict[str, float]:
    return {"partition.calls": 1, "partition.failed": int(result is None)}


def _admits(result: Any, args: tuple) -> dict[str, float]:
    return {"analysis.probes": 1, "analysis.admitted": int(bool(result))}


def _allocate(result: Any, args: tuple) -> dict[str, float]:
    return {"allocators.calls": 1,
            "allocators.schedulable": int(bool(result.schedulable))}


def _simulate(result: Any, args: tuple) -> dict[str, float]:
    return {"sim.calls": 1, "sim.jobs": len(result.jobs)}


def _detect(result: Any, args: tuple) -> dict[str, float]:
    attack, surface_map = args[1], args[2]
    censored = math.isinf(result) and bool(surface_map.get(attack.surface))
    return {"detection.queries": 1, "detection.censored": int(censored)}


def _sweep(result: Any, args: tuple) -> dict[str, float]:
    return {"engine.sweeps": 1,
            "engine.points_computed": result.stats.computed_points,
            "engine.points_cached": result.stats.cached_points}


def _store_open(result: Any, args: tuple) -> dict[str, float]:
    return {"store.opens": 1}


def _store_read(result: Any, args: tuple) -> dict[str, float]:
    return {"store.entries_read": sum(e is not None for e in result)}


def _store_write(result: Any, args: tuple) -> dict[str, float]:
    return {"store.entries_written": result}


def _run_points(result: Any, args: tuple) -> dict[str, float]:
    return {"executors.batches": 1}


class _ExecutorLogCounter(logging.Handler):
    """Counts the ``repro.executors`` records that mark retries and
    worker spawns."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "spawned subprocess worker" in message:
            self.tracer.event({"executors.spawns": 1})
        elif "lost point" in message:
            self.tracer.event({"executors.retries": 1})


# -- installation -------------------------------------------------------------


def _replace_everywhere(
    module_name: str,
    attr: str,
    make: Callable[[Callable[..., Any]], Callable[..., Any]],
) -> None:
    """Replace function ``module_name.attr`` with ``make(original)`` in
    every loaded ``repro`` module bound to it."""
    original = getattr(sys.modules[module_name], attr)
    replacement = make(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _patch_function(
    tracer: Tracer,
    module_name: str,
    attr: str,
    span: str,
    observe: Callable[[Any, tuple], dict[str, float]],
) -> None:
    _replace_everywhere(
        module_name, attr, lambda fn: tracer.wrap(span, fn, observe)
    )


def _patch_method(
    tracer: Tracer,
    cls: type,
    attr: str,
    span: str,
    observe: Callable[[Any, tuple], dict[str, float]] | None = None,
) -> None:
    original = cls.__dict__.get(attr)
    if original is not None:
        setattr(cls, attr, tracer.wrap(span, original, observe))


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary of the loaded ``repro`` package."""
    for module in _MODULES:
        importlib.import_module(module)
    from repro.analysis.admission import ExactAdmissionCore
    from repro.executors.builtin import PoolExecutor, SerialExecutor
    from repro.executors.subproc import SubprocessExecutor
    from repro.experiments.parallel import SweepEngine
    from repro.experiments.store import ResultStore
    from repro.jobs import JobRunner
    from repro.sim.detection import DetectionIndex
    from repro.workloads import get_workload, workload_names

    _patch_function(tracer, "repro.partition.heuristics",
                    "try_partition_tasks", "partition", _partition)
    _patch_function(tracer, "repro.core.singlecore",
                    "build_singlecore_system", "partition", _partition)
    _patch_function(tracer, "repro.sim.runner", "simulate_allocation",
                    "sim", _simulate)
    _patch_method(tracer, ExactAdmissionCore, "admits", "analysis", _admits)
    _patch_method(tracer, DetectionIndex, "__init__", "detection.index")
    _patch_method(tracer, DetectionIndex, "detection_time",
                  "detection.query", _detect)
    _patch_method(tracer, SweepEngine, "run", "engine", _sweep)
    _patch_method(tracer, ResultStore, "__init__", "store.open", _store_open)
    _patch_method(tracer, ResultStore, "get_many", "store.read", _store_read)
    _patch_method(tracer, ResultStore, "put_many", "store.write",
                  _store_write)
    _patch_method(tracer, JobRunner, "run", "jobs.run")
    _patch_method(tracer, JobRunner, "submit", "jobs.submit")
    _patch_method(tracer, JobRunner, "result", "jobs.result")

    classes: set[type] = set()
    for spec in workload_names():
        classes.update(type(get_workload(spec)).__mro__)
    for cls in classes:
        _patch_method(tracer, cls, "generate", "workloads", _tasksets)
        _patch_method(tracer, cls, "generate_batch", "workloads", _tasksets)
    for cls in (SerialExecutor, PoolExecutor, SubprocessExecutor):
        _patch_method(tracer, cls, "run_points", "executors", _run_points)

    # Allocation is timed on the instances the registry hands out, so
    # an allocator delegating to an inner one is one call, not two.
    def _traced_instance(factory: Callable[[str], Any]) -> Callable:
        @functools.wraps(factory)
        def get(spec: str) -> Any:
            instance = factory(spec)
            instance.allocate = tracer.wrap(
                "allocators", instance.allocate, _allocate
            )
            return instance

        return get

    _replace_everywhere("repro.allocators.registry", "get_allocator",
                        _traced_instance)

    logger = logging.getLogger("repro.executors")
    logger.addHandler(_ExecutorLogCounter(tracer))
    if logger.getEffectiveLevel() > logging.INFO:
        logger.setLevel(logging.INFO)
    return tracer


def install_from_env() -> Tracer | None:
    """Install tracing when :data:`TRACE_DIR_ENV` is set, dumping the
    spans to that directory when the process exits."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    import atexit

    tracer = install(Tracer())
    atexit.register(tracer.dump, directory)
    return tracer
