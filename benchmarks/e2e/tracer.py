"""Traced runner: one ``repro`` CLI invocation with per-layer spans.

Usage::

    PYTHONPATH=src python benchmarks/e2e/tracer.py SPANS.json ARG...

runs ``repro.cli.main([ARG...])`` exactly as ``python -m repro ARG...``
would, after wrapping the public entry point of each layer so every call
records a span (name, start, end, parent, attributes).  The spans are
written to ``SPANS.json`` when the command returns.  Nothing under
``src/`` changes: the wrappers are installed from here, on the classes
and modules the callers look the names up in, and they call straight
through to the original.  No ``--trace``/``--guard``/``--profile`` flag
is added, so the batched MPI fast path and the fused kernels run as they
do for users.

Calls made in forked pool workers pass through unrecorded: their
tallies would die with the worker.  Task time on such runs comes from
``TaskResult.seconds``, which the scheduler span records.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: (module, attribute path, span name) for every wrapped entry point.
TARGETS = (
    ("repro.exec.engine", "Engine.run_many", "exec.engine"),
    ("repro.exec.scheduler", "Scheduler.map", "exec.scheduler"),
    ("repro.exec.tasks", "execute_task", "exec.task"),
    ("repro.exec.cache", "ResultCache.get", "exec.cache.get"),
    ("repro.exec.cache", "ResultCache.put", "exec.cache.put"),
    ("repro.exec.journal", "JournalWriter.append", "exec.journal.append"),
    ("repro.core.atomicio", "durable_append",
     "core.atomicio.durable_append"),
    ("repro.core.atomicio", "atomic_write_text",
     "core.atomicio.atomic_write"),
    ("repro.obs.collector", "MetricsStore.write",
     "obs.collector.store_write"),
    ("repro.mpi.comm", "MPIWorld.run", "mpi.run"),
    ("repro.shallowwaters.model", "ShallowWaterModel.run",
     "shallowwaters.run"),
    ("repro.guard.policy", "escalate", "guard.escalate"),
)


class Spans:
    """In-memory span log of this process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []  # indices of the open spans

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        self.records.append({
            "name": name, "start": start - self.t0, "end": end - self.t0,
            "parent": None, **attrs,
        })

    def wrap(
        self,
        name: str,
        fn: Callable,
        describe: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``describe(result, *args)``
        adds attributes once the call returns.  ``name`` may be a
        callable of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            stack = self._stack
            record = {
                "name": name(*args) if callable(name) else name,
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter() - self.t0,
            }
            self.records.append(record)
            stack.append(len(self.records) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter() - self.t0
                stack.pop()
            if describe is not None:
                record.update(describe(result, *args, **kwargs))
            return result

        return wrapper


def _scheduler_attrs(results, scheduler, *args, **kwargs):
    return {
        "tasks": len(results),
        "task_s": sum(r.seconds for r in results),
        "jobs": scheduler.jobs,
    }


def _mpi_attrs(results, world, *args, **kwargs):
    stats = world.last_stats
    return {"messages": stats.messages, "retransmits": stats.retransmits}


def _sw_attrs(result, model, *args, **kwargs):
    return {
        "steps": result.nsteps,
        "cells": model.params.nx * model.params.ny,
    }


DESCRIBE = {
    "exec.scheduler": _scheduler_attrs,
    "exec.cache.get": lambda result, *a, **k: {"hit": result is not None},
    "mpi.run": _mpi_attrs,
    "shallowwaters.run": _sw_attrs,
}


def _task_span_name(task, *args, **kwargs) -> str:
    # A campaign's tasks are whole scenarios; their sweep points run
    # through execute_task again, nested inside.
    return "scenarios.run" if task.kind == "scenario_run" else "exec.task"


def _rebind(original: Any, wrapped: Any) -> None:
    """Point every ``repro`` module global that holds ``original`` (a
    ``from x import name`` binding) at ``wrapped``."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(spans: Spans) -> None:
    """Wrap every layer entry point in :data:`TARGETS` and the report
    renderers."""
    for module_name, path, span_name in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        name = _task_span_name if span_name == "exec.task" else span_name
        wrapped = spans.wrap(name, original, DESCRIBE.get(span_name))
        setattr(owner, attr, wrapped)
        if not outer:
            _rebind(original, wrapped)

    report = importlib.import_module("repro.core.report")
    from repro.core.experiments import REGISTRY

    for attr, original in list(vars(report).items()):
        if not (attr.startswith("render_") and callable(original)):
            continue
        wrapped = spans.wrap("core.report.render", original)
        setattr(report, attr, wrapped)
        _rebind(original, wrapped)
        # Experiments registered a renderer by reference at import time.
        for exp in REGISTRY.values():
            if exp.render is original:
                object.__setattr__(exp, "render", wrapped)


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json ARG...", file=sys.stderr)
        return 2
    out, args = argv[0], argv[1:]
    spans = Spans()
    start = time.perf_counter()
    import repro.cli

    spans.add("cli.import", start, time.perf_counter())
    install(spans)
    try:
        return repro.cli.main(args)
    finally:
        with open(out, "w") as f:
            json.dump({"spans": spans.records}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
