"""Spans around public vulngraph functions, recorded from outside the package.

``Tracer.install`` replaces each target function or method with a
wrapper that records one span per call: (id, name, start, end, parent,
run id, thread). A function imported elsewhere with ``from .x import y``
has several bindings; every binding is replaced, so the span fires
whichever module makes the call. ``uninstall`` puts the originals back.

Spans stay in memory until ``write``. Self time is a span's duration
minus the durations of its direct children; children are found through
a per-thread stack, so spans of ``scan --jobs`` worker threads never
count as children of the main thread's spans.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: (module, attribute, span name, note). ``note(args, result)`` returns a
#: number stored with the span, e.g. the flops of one matmul.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("vulngraph.cli", "main", "cli.main", None),
    ("vulngraph.scanner", "scan", "scanner.scan", None),
    ("vulngraph.scanner", "extract_functions", "scanner.extract_functions", None),
    ("vulngraph.scanner", "analyze", "scanner.analyze", None),
    ("vulngraph.lexer", "lex", "lexer.lex", None),
    ("vulngraph.lexer", "tokenize", "lexer.tokenize", None),
    ("vulngraph.lexer", "encode", "lexer.encode", None),
    ("vulngraph.semgraph", "build_graph", "semgraph.build_graph", None),
    ("vulngraph.trainer", "prepare_sample", "trainer.prepare_sample", None),
    ("vulngraph.trainer", "train", "trainer.train", None),
    ("vulngraph.trainer", "Adam.step", "trainer.Adam.step", None),
    ("vulngraph.trainer", "evaluate_samples", "trainer.evaluate_samples", None),
    ("vulngraph.trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("vulngraph.trainer", "save_checkpoint", "trainer.save_checkpoint", None),
    ("vulngraph.model", "VulnModel.forward", "model.forward", None),
    ("vulngraph.model", "VulnModel.forward_nodes", "model.forward_nodes", None),
    ("vulngraph.model", "VulnModel.embed", "model.embed", None),
    ("vulngraph.model", "VulnModel.gcn_forward", "model.gcn_forward", None),
    ("vulngraph.model", "VulnModel.pooled_embedding", "model.pooled_embedding",
     None),
    ("vulngraph.model", "VulnModel.heads", "model.heads", None),
    ("vulngraph.tensor", "from_op", "tensor.from_op", None),
    ("vulngraph.tensor", "matmul", "tensor.matmul",
     lambda args, result: 2.0 * args[0].rows * args[0].cols * args[1].cols),
    ("vulngraph.tensor", "backward", "tensor.backward", None),
    ("vulngraph.objectives", "focal_loss", "objectives.focal_loss", None),
    ("vulngraph.objectives", "mse_loss", "objectives.mse_loss", None),
    ("vulngraph.attribution", "attribute_tokens",
     "attribution.attribute_tokens", None),
    ("vulngraph.attribution", "select_root_cause",
     "attribution.select_root_cause",
     lambda args, result: float(result.fallback_used)),
    ("vulngraph.corpus", "load_dataset", "corpus.load_dataset", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    note: float | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[tuple] = field(default_factory=list)
    run: int = 0
    _ids: itertools.count = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)
    _restore: list[tuple] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, ids, local, clock = self.spans, self._ids, self._local, \
            time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            noted = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    noted = note(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.run,
                              threading.get_ident(), noted))

        return traced

    def install(self, targets=TARGETS) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vulngraph" or n.startswith("vulngraph.")]
        for module_name, attr, span_name, note in targets:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class attribute once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span_name, original, note))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, note)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for holder, binding, original in reversed(self._restore):
            setattr(holder, binding, original)
        self._restore.clear()

    def records(self) -> list[Span]:
        return [Span(*s) for s in self.spans]

    def write(self, path: Path) -> None:
        """All spans as gzip'd JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                     "parent": s[4], "run": s[5], "thread": s[6],
                     "note": s[7]}))
                fh.write("\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    tracer = Tracer()
    plain = lambda: None  # noqa: E731
    traced = tracer.wrap("calibrate", plain, None)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            plain()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
        tracer.spans.clear()
    return max(best, 0.0)


@dataclass
class Layer:
    """Aggregates of one span name."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list[float] = field(default_factory=list)
    notes: float = 0.0


def aggregate(spans: list[Span]) -> dict[str, Layer]:
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    layers: dict[str, Layer] = {}
    for s in spans:
        layer = layers.setdefault(s.name, Layer())
        layer.calls += 1
        layer.total += s.duration
        layer.self_time += s.duration - child_time.get(s.id, 0.0)
        layer.durations.append(s.duration)
        if s.note is not None:
            layer.notes += s.note
    return layers


def under(spans: list[Span], name: str, ancestor: str) -> int:
    """How many ``name`` spans have an ``ancestor`` span above them."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        count += parent is not None
    return count


def percentile_ms(durations: list[float], pct: int) -> float:
    """The pct-th percentile in ms; 0.0 when there are no samples."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1] * 1e3
