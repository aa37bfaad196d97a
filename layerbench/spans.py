"""Per-question spans and counters for the layered benchmark.

A :class:`Tracer` keeps every span in memory: its name, start, end, the
question it belongs to and the span open on the same thread when it
began (its parent).  The benchmark opens the ``session.*`` spans itself
around each call it makes into the ``repro.api`` facade.  With
``--trace 1`` it also wraps the functions at the boundaries of the
lower layers (kernels, assembly, the Pareto kernel, the HTTP client and
payload codec, the sweep service, the shard coordinator and its frame
codec), so the same spans cover work done on the service's executor and
event-loop threads.  End-to-end figures come from untraced runs; the
wrappers only ever run in traced ones.

A wrapper whose target no longer exists is skipped, so the benchmark
keeps running while the program is refactored: the layer then reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from typing import List, Optional

#: (span name, module, attribute) for module-level functions; every
#: module that imported the function by name gets its own wrapper
FUNCTION_SPANS = (
    ("kernel", "repro.core.dse", "emulate_batch"),
    ("kernel", "repro.explore.engine", "emulate_batch"),
    ("kernel", "repro.service.sweep_service", "emulate_batch"),
    ("assemble", "repro.core.dse", "assemble_shard_blocks"),
    ("assemble", "repro.core.dse", "finalize_sweep_result"),
    ("assemble", "repro.service.sweep_service", "assemble_shard_blocks"),
    ("assemble", "repro.service.sweep_service", "finalize_sweep_result"),
    ("assemble", "repro.service.cluster.coordinator", "assemble_shard_blocks"),
    ("assemble", "repro.service.cluster.coordinator", "finalize_sweep_result"),
    ("front", "repro.core.dse", "pareto_front"),
    ("front", "repro.explore.engine", "pareto_front"),
    ("front", "repro.service.progress", "pareto_front"),
    ("frames", "repro.service.cluster.coordinator", "encode_message"),
    ("frames", "repro.service.cluster.coordinator", "decode_message"),
)

#: (span name, module, class, method) for methods, patched on the class
METHOD_SPANS = (
    ("http.client", "repro.service.client", "SyncServiceClient", "request"),
    ("http.encode", "repro.core.dse", "SweepResult", "to_payload"),
    ("http.decode", "repro.core.dse", "SweepResult", "from_payload"),
    ("service.sweep", "repro.service.sweep_service", "SweepService", "sweep"),
    ("cluster.sweep", "repro.service.cluster.coordinator", "ShardCoordinator",
     "sweep_blocking"),
)


class Tracer:
    """In-memory spans and counters, keyed by the current question."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: List[tuple] = []
        #: index of the question being answered; None between questions
        self.question: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[tuple] = []

    # -- recording -------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(name)
        question = self.question
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.record(question, name, start, time.perf_counter(), parent)

    def record(self, question, name, start, end, parent=None) -> None:
        if question is not None:
            with self._lock:
                self.spans.append((question, name, start, end, parent))

    def count(self, name: str, amount: float = 1, question=None) -> None:
        if question is None:
            question = self.question
        if question is not None:
            with self._lock:
                self.counts.append((question, name, amount))

    # -- per-question aggregates ----------------------------------------------
    def per_question_ms(self, name: str, questions: int) -> List[float]:
        """Summed duration of spans named ``name`` in each question (ms)."""
        totals = [0.0] * questions
        for question, span_name, start, end, _ in self.spans:
            if span_name == name and 0 <= question < questions:
                totals[question] += (end - start) * 1000.0
        return totals

    def per_question_count(self, name: str, questions: int) -> List[float]:
        totals = [0.0] * questions
        for question, count_name, amount in self.counts:
            if count_name == name and 0 <= question < questions:
                totals[question] += amount
        return totals

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as out:
            for question, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "question": question, "name": name, "parent": parent,
                    "start_s": start, "end_s": end,
                }) + "\n")

    # -- wrapping the program's layer boundaries -------------------------------
    def install(self) -> None:
        """Wrap every layer boundary that exists in this build."""
        for name, module_name, attr in FUNCTION_SPANS:
            module = _import(module_name)
            target = getattr(module, attr, None) if module else None
            if callable(target):
                self._patch(module, attr, self._wrap(name, target))
        for name, module_name, cls_name, attr in METHOD_SPANS:
            module = _import(module_name)
            cls = getattr(module, cls_name, None) if module else None
            raw = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif callable(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            # coroutines interleave on one loop thread, so they stay off
            # the per-thread parent stack
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                question, start = tracer.question, time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.record(question, name, start, time.perf_counter())
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if name == "kernel":
                tracer.count("kernel.calls")
                timings = out.get("accelerated_ms") if isinstance(out, dict) else None
                if timings is not None:
                    tracer.count("kernel.points", getattr(timings, "size", 0))
            return out
        return wrapper


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None
