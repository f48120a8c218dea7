"""Spans around each layer's public entry points, recorded from outside.

:class:`SpanRecorder` wraps the entry points listed in
:data:`ENTRY_POINTS` by rebinding them in every loaded ``repro`` module,
so the program itself is not changed.  A span has a name, start, end,
parent and pid; its self time is its duration minus the time its child
spans cover.  Entry points called once per record or per frame are
rolled up: instead of one span per call, their calls, total and self
seconds are summed per (parent span, name), which keeps the tracing
cost and the dump small.

Pool workers inherit the wrappers when the pool forks them (install the
recorder before the pool starts); each worker drops the spans it
inherited, records its own, and writes them to ``spans-<pid>.json``
when it leaves its job loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

SPAN, ROLLUP = "span", "rollup"

#: (module, attribute, kind) of every wrapped entry point
ENTRY_POINTS = (
    ("repro.graphs.datasets", "load_dataset", SPAN),
    ("repro.optimizer", "optimize_plan", SPAN),
    ("repro.runtime.executor", "Executor.run", SPAN),
    ("repro.runtime.drivers", "run_driver", SPAN),
    ("repro.runtime.drivers", "apply_combiner", SPAN),
    ("repro.runtime.fusion", "run_fused_chain", SPAN),
    ("repro.runtime.channels", "ship", SPAN),
    ("repro.common.batch", "RecordBatch.keys", ROLLUP),
    ("repro.common.batch", "RecordBatch.hashes", ROLLUP),
    ("repro.common.batch", "RecordBatch.partition_targets", ROLLUP),
    ("repro.iterations.solution_set", "SolutionSetIndex.build", SPAN),
    ("repro.iterations.solution_set", "SolutionSetIndex.lookup", ROLLUP),
    ("repro.iterations.solution_set", "SolutionSetIndex.apply_delta", SPAN),
    ("repro.iterations.solution_set", "SolutionSetIndex.apply_record",
     ROLLUP),
    ("repro.storage.diskdict", "DiskDict.get", ROLLUP),
    ("repro.storage.diskdict", "DiskDict.__getitem__", ROLLUP),
    ("repro.storage.diskdict", "DiskDict.__setitem__", ROLLUP),
    ("repro.storage.spill", "SpillFile.append", ROLLUP),
    ("repro.storage.spill", "SpillFile.read_entries", SPAN),
    ("repro.cluster.pool", "WorkerPool.run_job", SPAN),
    ("repro.cluster.codec", "dumps", SPAN),
    ("repro.cluster.fabric", "Endpoint.send", ROLLUP),
    ("repro.cluster.fabric", "Endpoint.send_raw", ROLLUP),
    ("repro.cluster.fabric", "Endpoint.send_columns", ROLLUP),
    ("repro.cluster.fabric", "Endpoint.recv", ROLLUP),
)

#: entry points whose result is a byte string; its length is recorded
SIZED = {"dumps"}


class SpanRecorder:
    """Collects this process's spans and roll-ups in memory."""

    def __init__(self):
        self.spans: list = []
        self.rollups: dict = {}
        # one frame per open call: [seconds covered by children, index of
        # the nearest enclosing span (-1 at the top)]
        self._stack: list = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self.rollups = {}
        self._stack = []

    # ------------------------------------------------------------------
    # recording

    def _wrap(self, name, fn, kind):
        recorder = self
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            parent = stack[-1][1] if stack else -1
            if kind == SPAN:
                index = len(recorder.spans)
                recorder.spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s = duration - frame[0]
                if kind == SPAN:
                    span = {"name": name, "start": start, "end": end,
                            "parent": parent, "self_s": self_s}
                    if sized and isinstance(result, (bytes, bytearray)):
                        span["bytes"] = len(result)
                    recorder.spans[index] = span
                else:
                    entry = recorder.rollups.setdefault(
                        (parent, name), [0, 0.0, 0.0]
                    )
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_s

        return traced

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span of the benchmark's own."""
        return self._wrap(name, fn, SPAN)(*args)

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every entry point in every loaded ``repro`` module."""
        for module_name, attribute, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, member = attribute.split(".")
                self._wrap_member(
                    getattr(module, class_name), member, attribute, kind
                )
            else:
                self._wrap_function(module, attribute, kind)

    def _wrap_function(self, module, name, kind) -> None:
        original = getattr(module, name)
        traced = self._wrap(name, original, kind)
        # rebind every ``from module import name`` copy as well
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if (
                other is not None
                and getattr(other, "__name__", "").startswith("repro")
                and namespace is not None
                and namespace.get(name) is original
            ):
                setattr(other, name, traced)
                self._undo.append((other, name, original))

    def _wrap_member(self, cls, member, label, kind) -> None:
        raw = inspect.getattr_static(cls, member)
        if isinstance(raw, property):
            wrapped = property(
                self._wrap(label, raw.fget, kind), raw.fset, raw.fdel,
                raw.__doc__,
            )
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(label, raw.__func__, kind))
        elif inspect.isfunction(raw):
            if inspect.isgeneratorfunction(raw):
                raise TypeError(f"{label} is a generator; cannot time it")
            wrapped = self._wrap(label, raw, kind)
        else:
            raise TypeError(f"cannot wrap {label}: {type(raw).__name__}")
        setattr(cls, member, wrapped)
        self._undo.append((cls, member, raw))

    def install_worker_dump(self, directory: str) -> None:
        """Make pool workers dump their spans when their job loop ends."""
        from repro.cluster import pool

        original = pool._pool_worker
        recorder = self

        def traced_worker(*args, **kwargs):
            recorder.reset()  # spans inherited from the parent at fork
            try:
                return original(*args, **kwargs)
            finally:
                recorder.dump(
                    os.path.join(directory, f"spans-{os.getpid()}.json")
                )

        pool._pool_worker = traced_worker
        self._undo.append((pool, "_pool_worker", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    # ------------------------------------------------------------------
    # output

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.timeline(), fh)

    def timeline(self) -> dict:
        return {
            "pid": os.getpid(),
            # list positions are the parent indices; a span still open
            # when dumped is None
            "spans": self.spans,
            "rollups": [
                {"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (parent, name), (calls, total, self_s)
                in self.rollups.items()
            ],
        }
