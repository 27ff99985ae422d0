"""The span recorder's self-time arithmetic and the tracer's restore."""

from __future__ import annotations

import importlib
import threading

import numpy as np
import pytest

from perfbench.tracing import (LAYER_SPANS, Span, SpanRecorder, Tracer,
                               self_times, summarise)


def _span(ident, name, start, end, parent=None, thread=1):
    span = Span(ident, name, start, parent, thread)
    span.end = end
    return span


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        # Thread 1: a root with two overlapping children, a grandchild
        # and a child running past the root's end.
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 3.0, parent=1),
        _span(3, "b", 2.5, 6.0, parent=1),
        _span(4, "leaf", 4.0, 5.0, parent=3),
        _span(5, "late", 9.0, 11.0, parent=1),
        # Thread 2 overlaps thread 1 in time but is nobody's child there.
        _span(6, "root", 2.0, 8.0, thread=2),
        _span(7, "a", 3.0, 7.0, parent=6, thread=2),
    ]
    own = self_times(spans)
    # root 1: 10 - |[1,3] u [2.5,6]| - |[9,10]| = 10 - 5 - 1
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.5)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(2.0)
    assert own[6] == pytest.approx(2.0)
    assert own[7] == pytest.approx(4.0)

    summary = summarise(spans)
    assert summary["root"]["self_s"] == pytest.approx(6.0)
    assert summary["root"]["wall_s"] == pytest.approx(16.0)
    assert summary["root"]["calls"] == 2
    assert summary["a"]["calls"] == 2


def test_nested_spans_of_one_name_count_once():
    spans = [_span(1, "ctx", 0.0, 4.0),
             _span(2, "ctx", 1.0, 3.0, parent=1),
             _span(3, "mm", 1.5, 2.5, parent=2)]
    summary = summarise(spans)
    assert summary["ctx"]["calls"] == 1
    assert summary["ctx"]["wall_s"] == pytest.approx(4.0)
    assert summary["ctx"]["self_s"] == pytest.approx(3.0)


def test_recorder_keeps_parents_per_thread():
    recorder = SpanRecorder()
    start = threading.Barrier(2)

    def work(tag: str) -> None:
        start.wait(timeout=10)
        outer = recorder.open(f"outer-{tag}")
        for _ in range(3):
            inner = recorder.open(f"inner-{tag}")
            sum(range(2000))
            recorder.close(inner)
        recorder.close(outer)

    threads = [threading.Thread(target=work, args=(tag,)) for tag in "xy"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    by_id = {span.ident: span for span in recorder.spans}
    own = self_times(recorder.spans)
    for span in recorder.spans:
        if span.name.startswith("inner"):
            parent = by_id[span.parent]
            assert parent.name == "outer" + span.name[len("inner"):]
            assert parent.thread == span.thread
    for span in recorder.spans:
        if span.name.startswith("outer"):
            children = [s for s in recorder.spans if s.parent == span.ident]
            covered = sum(s.end - s.start for s in children)
            assert len(children) == 3
            assert own[span.ident] == pytest.approx(
                span.end - span.start - covered, abs=1e-12)


def _binding(module_name, owner_name, attribute):
    from repro.nn.backend import get_backend

    module = importlib.import_module(module_name)
    if owner_name is None:
        return module, getattr(module, attribute)
    owner = (type(get_backend()) if owner_name == "<backend>"
             else getattr(module, owner_name))
    return owner, owner.__dict__.get(attribute, "inherited")


def test_tracer_restores_every_binding():
    from repro.nn.backend import get_backend

    originals = [_binding(*entry[:3]) for entry in LAYER_SPANS]
    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        for entry, (owner, original) in zip(LAYER_SPANS, originals):
            _, current = _binding(*entry[:3])
            assert current is not original, entry
        get_backend().matmul(np.eye(2), np.eye(2))
    finally:
        tracer.restore()
    assert [span.name for span in recorder.spans] == ["nn.matmul"]
    for entry, (owner, original) in zip(LAYER_SPANS, originals):
        _, current = _binding(*entry[:3])
        assert current is original, entry
