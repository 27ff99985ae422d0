"""Span recording from outside the program: wrappers around public functions.

The traced run installs :class:`Tracer` wrappers at the bindings each
caller actually looks up (a class attribute such as
``NumpyBackend.matmul``, or a module global such as
``repro.gnn.encoder.graph_ops``), records one :class:`Span` per call and
restores every original binding afterwards.  The untraced run installs
nothing, so it pays nothing for tracing.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (children are the spans opened on the same thread
while it was the innermost open span).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "SpanRecorder", "Tracer", "self_times", "summarise",
           "LAYER_SPANS"]

_MISSING = object()


class Span:
    """One call of a wrapped function."""

    __slots__ = ("ident", "name", "start", "end", "parent", "thread",
                 "phase", "subject")

    def __init__(self, ident: int, name: str, start: float,
                 parent: Optional[int], thread: int, phase: str = "",
                 subject=None):
        self.ident = ident
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.thread = thread
        self.phase = phase
        # The wrapped call's first argument (``self`` for methods); kept
        # in memory only, so a conv layer can find its encoder.
        self.subject = subject

    def as_dict(self) -> Dict:
        return {"id": self.ident, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "phase": self.phase}


class SpanRecorder:
    """Keeps spans in memory; each thread has its own stack of open spans.

    ``phase`` labels every span opened from now on (the workload sets it
    to ``"setup"``, ``"timed"`` or ``"check"``).
    """

    def __init__(self):
        self.phase = "setup"
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self, name: Optional[str] = None) -> Optional[Span]:
        """The innermost open span of this thread (named ``name`` if given)."""
        for span in reversed(self._stack()):
            if name is None or span.name == name:
                return span
        return None

    def open(self, name: str, subject=None) -> Span:
        stack = self._stack()
        parent = stack[-1].ident if stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident(), self.phase, subject)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:                                   # pragma: no cover - defensive
            stack.remove(span)

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] += value

    def write(self, path: str) -> None:
        """Write every closed span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span.end is not None:
                    handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: Iterable) -> Dict[int, float]:
    """Self time of every closed span: duration minus child coverage.

    ``spans`` are :class:`Span` objects (or anything with ``ident``,
    ``start``, ``end`` and ``parent``).  Overlapping children (possible
    only when spans of several threads name one parent) count once.
    """
    spans = [span for span in spans if span.end is not None]
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.ident, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.ident] = (span.end - span.start) - covered
    return result


def summarise(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: total self seconds, total wall seconds and calls.

    Wall time and calls count only *outermost* spans of a name (a span
    whose parent has another name), so a layer wrapped at several nested
    entry points is neither double-timed nor double-counted.
    """
    closed = [span for span in spans if span.end is not None]
    own = self_times(closed)
    names = {span.ident: span.name for span in closed}
    summary: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
    for span in closed:
        entry = summary[span.name]
        entry["self_s"] += own[span.ident]
        if names.get(span.parent) != span.name:
            entry["wall_s"] += span.end - span.start
            entry["calls"] += 1
    return dict(summary)


#: ``(module, owner, attribute, span name)``: where each layer is wrapped.
#: ``owner`` is a class name in ``module``, ``"<backend>"`` for the class
#: of the active array backend, or ``None`` for a module global.
LAYER_SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.nn.backend", "<backend>", "matmul", "nn.matmul"),
    ("repro.nn.backend", "<backend>", "spmm", "nn.spmm"),
    ("repro.nn.backend", "<backend>", "spmm_bias_act", "nn.spmm"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward"),
    ("repro.nn.optim", "Adam", "step", "nn.optim"),
    ("repro.nn.optim", None, "clip_grad_norm", "nn.optim"),
    ("repro.graph.batch", "GraphBatch", "__init__", "graph.collate"),
    ("repro.graph.graph", "Graph", "apply_delta", "graph.delta"),
    ("repro.gnn.encoder", None, "graph_ops", "gnn.graph_ops"),
    ("repro.core.model", None, "graph_ops", "gnn.graph_ops"),
    ("repro.gnn.conv", "GCNConv", "forward", "gnn.conv"),
    ("repro.gnn.conv", "GCNConv", "fused_forward", "gnn.conv"),
    ("repro.gnn.encoder", "GNNEncoder", "forward", "gnn.encoder"),
    ("repro.gnn.encoder", "GNNEncoder", "encode_hidden", "gnn.encoder"),
    ("repro.tasks.task", "Task", "features", "tasks.features"),
    ("repro.tasks.task", "Task", "support_features", "tasks.features"),
    ("repro.tasks.sampling", "TaskSampler", "sample_task", "tasks.sample"),
    ("repro.core.model", "CGNP", "context", "core.context"),
    ("repro.core.model", "CGNP", "context_batch", "core.context"),
    ("repro.core.model", "CGNP", "context_concat", "core.context"),
    ("repro.core.aggregators", "SumAggregator", "forward", "core.aggregate"),
    ("repro.nn.functional", None, "scatter_add", "core.aggregate"),
    ("repro.nn.backend", "<backend>", "scatter_add_rows", "core.aggregate"),
    ("repro.core.decoders", "MLPDecoder", "transform",
     "core.decoder_transform"),
    ("repro.core.model", "CGNP", "query_logits_batch", "core.decode"),
    ("repro.core.model", "CGNP", "query_logits_many", "core.decode"),
    ("repro.core.train", None, "task_batch_loss", "core.loss"),
    ("repro.api.bundle", "ModelBundle", "load", "api.bundle_load"),
    ("repro.api.engine", "CommunitySearchEngine", "from_bundle",
     "api.bundle_load"),
    ("repro.api.engine", "CommunitySearchEngine", "attach", "api.attach"),
    ("repro.api.engine", "CommunitySearchEngine", "attach_many",
     "api.attach"),
    ("repro.api.engine", "CommunitySearchEngine", "predict_proba",
     "api.predict"),
    ("repro.api.engine", "CommunitySearchEngine", "predict_proba_many",
     "api.predict"),
    ("repro.api.engine", "CommunitySearchEngine", "query", "api.predict"),
    ("repro.api.engine", "CommunitySearchEngine", "apply_delta",
     "api.apply_delta"),
    ("repro.serve.gateway", "ServeGateway", "flush", "serve.tick"),
)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of :data:`LAYER_SPANS`."""
        from repro.nn.backend import get_backend

        for module_name, owner_name, attribute, name in LAYER_SPANS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                owner = module
            elif owner_name == "<backend>":
                owner = type(get_backend())
            else:
                owner = getattr(module, owner_name)
            self.wrap(owner, attribute, name)

    def restore(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        Class-dict entries keep their kind (``classmethod`` stays a
        classmethod); an inherited method is shadowed on ``owner`` and
        deleted again on :meth:`restore`.
        """
        raw = (owner.__dict__.get(attribute, _MISSING)
               if isinstance(owner, type) else getattr(owner, attribute))
        if raw is _MISSING:
            target = getattr(owner, attribute)
            replacement = self._wrapper(target, name)
        elif isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(raw.__func__, name))
        else:
            replacement = self._wrapper(raw, name)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def _wrapper(self, function: Callable, name: str) -> Callable:
        recorder = self.recorder
        if name == "gnn.conv":
            naming = _conv_name
        elif name == "core.aggregate":
            naming = _aggregate_name
        else:
            naming = None
        on_result = _count_rows_repaired if name == "graph.delta" else None
        # Only an encoder span keeps its subject (for ``_conv_name``): any
        # other would keep, say, a whole autograd graph alive.
        keep_subject = name == "gnn.encoder"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_name = name if naming is None else naming(recorder, args)
            if span_name is None:
                return function(*args, **kwargs)
            span = recorder.open(span_name,
                                 args[0] if keep_subject else None)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_result is not None:
                on_result(recorder, result)
            return result

        return traced


def _conv_name(recorder: SpanRecorder, args) -> str:
    """``gnn.conv<i>``: the layer's position in the encoder running it."""
    encoder = recorder.innermost("gnn.encoder")
    if encoder is not None and args:
        for index, conv in enumerate(encoder.subject.convs):
            if conv is args[0]:
                return f"gnn.conv{index}"
    return "gnn.conv"


def _aggregate_name(recorder: SpanRecorder, args) -> Optional[str]:
    """The ⊕ of a sum aggregator runs as a scatter-add; only a scatter
    called directly by the context path (or by the ⊕ itself) is it."""
    if args and type(args[0]).__name__ == "SumAggregator":
        return "core.aggregate"
    parent = recorder.innermost()
    if parent is not None and parent.name in ("core.context",
                                              "core.aggregate"):
        return "core.aggregate"
    return None


def _count_rows_repaired(recorder: SpanRecorder, report) -> None:
    recorder.add("graph.rows_repaired", int(report.rows_repaired))
