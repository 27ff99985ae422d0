"""Text-table rendering of experiment results, in the paper's layout.

The benchmark harness prints these tables so a run of
``pytest benchmarks/ --benchmark-only -s`` regenerates every row the paper
reports (shape-wise; the substrate is synthetic, see
:mod:`repro.datasets.synthetic`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .evaluator import EvaluationResult

__all__ = ["format_metric_table", "format_time_table", "format_generic_table",
           "highlight_best_f1"]


def format_generic_table(headers: Sequence[str], rows: Sequence[Sequence],
                         title: Optional[str] = None,
                         float_format: str = "{:.4f}") -> str:
    """Render a monospace table; floats are formatted, strings passed through."""
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append([
            float_format.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ])
    widths = [max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_metric_table(results: Sequence[EvaluationResult],
                        title: Optional[str] = None,
                        mark_best: bool = True) -> str:
    """Tables II/III-style rows: method, Acc, Pre, Rec, F1.

    The best (and second-best) F1 are marked with ``*`` / ``+`` as a
    plain-text stand-in for the paper's purple/blue highlighting.
    """
    marks = highlight_best_f1(results) if mark_best else [""] * len(results)
    rows = []
    for result, mark in zip(results, marks):
        m = result.metrics
        rows.append([result.method + mark, m.accuracy, m.precision, m.recall, m.f1])
    return format_generic_table(["Method", "Acc", "Pre", "Rec", "F1"], rows,
                                title=title)


def format_time_table(results: Sequence[EvaluationResult],
                      title: Optional[str] = None) -> str:
    """Fig. 3-style rows: method, meta-train seconds, test seconds."""
    rows = [[r.method, r.train_time, r.test_time] for r in results]
    return format_generic_table(["Method", "TrainTime(s)", "TestTime(s)"], rows,
                                title=title, float_format="{:.3f}")


def highlight_best_f1(results: Sequence[EvaluationResult]) -> List[str]:
    """``*`` for the best F1, ``+`` for the second best, else empty."""
    order = sorted(range(len(results)), key=lambda i: -results[i].metrics.f1)
    marks = [""] * len(results)
    if order:
        marks[order[0]] = " *"
    if len(order) > 1:
        marks[order[1]] = " +"
    return marks
