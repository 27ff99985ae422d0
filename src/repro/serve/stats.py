"""Serving-gateway instrumentation: histograms, ``ServeStats``, metrics text.

Three pieces:

* :class:`Histogram` — a fixed-bucket counting histogram with
  percentile estimation, the building block for every latency and
  batch-size distribution the gateway records (constant memory, O(1)
  observe, no per-request allocation on the hot path);
* :class:`ServeStats` — extends
  :class:`~repro.api.engine.EngineStats` with the gateway-level
  counters: submissions/rejections/cancellations, tick counts,
  queue-depth high-water mark, queue-wait and end-to-end latency
  histograms (p50/p95/p99) and the per-tick batch-size distribution;
* :meth:`ServeStats.metrics_text` — every field declared with
  :func:`~repro.api.engine.metric` rendered in the Prometheus text
  exposition format, so any scraper (or ``curl``) can consume a
  gateway's ``/metrics``-style output without new deps.

Latency buckets are geometric from 10 µs to ≈5 min (factor 1.5): fine
enough that p99 interpolation is meaningful at sub-millisecond decode
times, coarse enough to stay at 43 buckets.  Batch-size buckets are
powers of two — per-tick coalescing counts are small integers.
"""

from __future__ import annotations

import dataclasses
import functools
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.engine import EngineStats, metric

__all__ = ["Histogram", "ServeStats", "latency_histogram",
           "batch_size_histogram", "LATENCY_BUCKETS", "BATCH_SIZE_BUCKETS"]


def _geometric(start: float, factor: float, count: int) -> tuple:
    bounds = []
    value = start
    for _ in range(count):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


#: Upper bucket bounds (seconds) for latency histograms: 10 µs … ≈290 s.
LATENCY_BUCKETS = _geometric(1e-5, 1.5, 43)

#: Upper bucket bounds for per-tick coalesced-request counts.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                      256.0, 512.0, 1024.0, 2048.0, 4096.0)


class Histogram:
    """Fixed-bucket counting histogram with Prometheus-style semantics.

    ``bounds`` are *inclusive* upper bucket bounds (the ``le`` labels);
    one implicit ``+Inf`` bucket catches everything above the last
    bound.  Percentiles are estimated by linear interpolation inside the
    owning bucket and clamped to the observed min/max, so a histogram
    that saw a single value reports that exact value at every quantile.
    """

    __slots__ = ("bounds", "counts", "count", "total",
                 "min_observed", "max_observed")

    def __init__(self, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # trailing +Inf bucket
        self.count = 0
        self.total = 0.0
        self.min_observed: Optional[float] = None
        self.max_observed: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min_observed is None or value < self.min_observed:
            self.min_observed = value
        if self.max_observed is None or value > self.max_observed:
            self.max_observed = value

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100]) of the stream."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(q / 100.0 * self.count, 1.0)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.bounds):
                    # +Inf bucket: the observed maximum is the best bound.
                    return float(self.max_observed)
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min_observed),
                           self.max_observed)
            cumulative += bucket_count
        return float(self.max_observed)    # pragma: no cover - unreachable

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> Dict[str, int]:
        """Cumulative counts keyed by ``le`` label, ``"+Inf"`` last."""
        return dict(zip([f"{bound:.9g}" for bound in self.bounds] + ["+Inf"],
                        accumulate(self.counts)))

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary: moments, key percentiles, cumulative buckets."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_observed,
            "max": self.max_observed,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": self.buckets(),
        }

    def __repr__(self) -> str:    # pragma: no cover - cosmetics
        return (f"Histogram(count={self.count}, p50={self.percentile(50):.2g}, "
                f"p99={self.percentile(99):.2g})")


def latency_histogram() -> Histogram:
    return Histogram(LATENCY_BUCKETS)


def batch_size_histogram() -> Histogram:
    return Histogram(BATCH_SIZE_BUCKETS)


def _escape(text: Any, quote: bool = True) -> str:
    """Escape a label value, or HELP text (``quote=False``), for the text
    exposition format."""
    text = str(text).replace("\\", "\\\\").replace("\n", "\\n")
    return text.replace('"', '\\"') if quote else text


def _samples(name: str, kind: str, label: Optional[str],
             labels: Dict[str, str], value: Any) -> List[Tuple]:
    """``(sample name, labels, value)`` of one ``metric(...)`` field."""
    if kind == "histogram":
        return [(f"{name}_bucket", {"le": le}, count)
                for le, count in value.buckets().items()] + [
            (f"{name}_sum", {}, f"{value.total:.9g}"),
            (f"{name}_count", {}, value.count)]
    if label is None:
        return [(name, labels, value)]
    # The value carries the label: one sample per dict key, or an info
    # gauge whose string is the label and whose value is always 1.
    pairs = sorted(value.items()) if isinstance(value, dict) else [(value, 1)]
    return [(name, {**labels, label: key}, count) for key, count in pairs]


_requests = functools.partial(metric, "counter", "repro_serve_requests_total",
                              "Requests by final outcome.")
_ticks = functools.partial(metric, "counter", "repro_serve_ticks_total",
                           "Flush ticks by kind.")


@dataclasses.dataclass
class ServeStats(EngineStats):
    """Gateway counters layered on top of the engine's serving stats.

    A snapshot carries *both* levels: the inherited
    :class:`~repro.api.engine.EngineStats` fields describe what the
    engine's decoder actually executed (one ``decode_calls`` increment
    per coalesced tick group), the fields below describe the request
    traffic the gateway mediated in front of it.
    """

    submitted: int = metric("counter", "repro_serve_requests_submitted_total",
                            "Requests accepted into the gateway queue.")
    completed: int = _requests(outcome="completed")
    rejected: int = _requests(outcome="rejected")
    cancelled: int = _requests(outcome="cancelled")
    failed: int = _requests(outcome="failed")
    busy_ticks: int = _ticks(kind="busy")
    empty_ticks: int = _ticks(kind="empty")
    queue_depth_high_water: int = metric(
        "gauge", "repro_serve_queue_depth_high_water",
        "Deepest the bounded request queue has been.")
    queue_wait: Histogram = metric(
        "histogram", "repro_serve_queue_wait_seconds",
        "Submit-to-flush wait inside the queue.", latency_histogram)
    request_latency: Histogram = metric(
        "histogram", "repro_serve_request_latency_seconds",
        "Submit-to-answer latency of completed requests.", latency_histogram)
    tick_batch_requests: Histogram = metric(
        "histogram", "repro_serve_tick_batch_requests",
        "Requests coalesced per busy tick.", batch_size_histogram)

    @property
    def ticks(self) -> int:
        """Flush ticks, busy or empty."""
        return self.busy_ticks + self.empty_ticks

    def with_engine(self, engine_stats: EngineStats) -> "ServeStats":
        """An isolated snapshot with the engine-level fields filled in."""
        return self.snapshot(**{field.name: getattr(engine_stats, field.name)
                                for field in dataclasses.fields(EngineStats)})

    def metrics_text(self) -> str:
        """The snapshot in the Prometheus text exposition format.

        Every field declared with :func:`~repro.api.engine.metric` is
        rendered; fields sharing a family name share its ``# HELP`` /
        ``# TYPE`` header, and a family with no samples (an empty dict)
        is left out.  Label values and HELP text are escaped.  Adding a
        metric is adding one field:

        >>> from repro.api.engine import metric
        >>> @dataclasses.dataclass
        ... class WidgetStats(ServeStats):
        ...     widgets: int = metric("counter", "demo_widgets_total",
        ...                           "Widgets made.")
        >>> text = WidgetStats(widgets=3).metrics_text()
        >>> print(text[text.index("# HELP demo_widgets_total"):], end="")
        # HELP demo_widgets_total Widgets made.
        # TYPE demo_widgets_total counter
        demo_widgets_total 3
        """
        families: Dict[str, List[str]] = {}
        for field in dataclasses.fields(self):
            if "metric" not in field.metadata:
                continue
            kind, name, help_text, label, labels = field.metadata["metric"]
            samples = _samples(name, kind, label, labels,
                               getattr(self, field.name))
            if not samples:
                continue
            lines = families.setdefault(name, [
                f"# HELP {name} {_escape(help_text, quote=False)}",
                f"# TYPE {name} {kind}"])
            for sample, sample_labels, value in samples:
                pairs = ",".join(f'{key}="{_escape(item)}"'
                                 for key, item in sample_labels.items())
                lines.append(f"{sample}{{{pairs}}} {value}" if pairs
                             else f"{sample} {value}")
        return "".join(line + "\n" for lines in families.values()
                       for line in lines)
