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
* :meth:`ServeStats.metrics_text` — the whole snapshot rendered in the
  Prometheus text exposition format, so any scraper (or ``curl``) can
  consume a gateway's ``/metrics``-style output without new deps.

Latency buckets are geometric from 10 µs to ≈5 min (factor 1.5): fine
enough that p99 interpolation is meaningful at sub-millisecond decode
times, coarse enough to stay at 43 buckets.  Batch-size buckets are
powers of two — per-tick coalescing counts are small integers.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence

from ..api.engine import EngineStats

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

    def copy(self) -> "Histogram":
        clone = Histogram(self.bounds)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.total = self.total
        clone.min_observed = self.min_observed
        clone.max_observed = self.max_observed
        return clone

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary: moments, key percentiles, cumulative buckets."""
        cumulative = 0
        buckets: Dict[str, int] = {}
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets[f"{bound:.9g}"] = cumulative
        buckets["+Inf"] = self.count
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_observed,
            "max": self.max_observed,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": buckets,
        }

    def __repr__(self) -> str:    # pragma: no cover - cosmetics
        return (f"Histogram(count={self.count}, p50={self.percentile(50):.2g}, "
                f"p99={self.percentile(99):.2g})")


def latency_histogram() -> Histogram:
    return Histogram(LATENCY_BUCKETS)


def batch_size_histogram() -> Histogram:
    return Histogram(BATCH_SIZE_BUCKETS)


@dataclasses.dataclass
class ServeStats(EngineStats):
    """Gateway counters layered on top of the engine's serving stats.

    A snapshot carries *both* levels: the inherited
    :class:`~repro.api.engine.EngineStats` fields describe what the
    engine's decoder actually executed (one ``decode_calls`` increment
    per coalesced tick group), the fields below describe the request
    traffic the gateway mediated in front of it.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    cancelled: int = 0
    failed: int = 0
    ticks: int = 0
    empty_ticks: int = 0
    queue_depth_high_water: int = 0
    queue_wait: Histogram = dataclasses.field(
        default_factory=latency_histogram)
    request_latency: Histogram = dataclasses.field(
        default_factory=latency_histogram)
    tick_batch_requests: Histogram = dataclasses.field(
        default_factory=batch_size_histogram)

    def with_engine(self, engine_stats: EngineStats) -> "ServeStats":
        """An isolated snapshot with the engine-level fields filled in."""
        merged = dataclasses.replace(
            self, **{field.name: getattr(engine_stats, field.name)
                     for field in dataclasses.fields(EngineStats)})
        merged.queue_wait = self.queue_wait.copy()
        merged.request_latency = self.request_latency.copy()
        merged.tick_batch_requests = self.tick_batch_requests.copy()
        merged.method_picks = dict(engine_stats.method_picks)
        return merged

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict: engine fields + gateway counters + histograms."""
        data = EngineStats.as_dict(self)
        for name in ("submitted", "completed", "rejected", "cancelled",
                     "failed", "ticks", "empty_ticks",
                     "queue_depth_high_water"):
            data[name] = int(getattr(self, name))
        data["queue_wait"] = self.queue_wait.as_dict()
        data["request_latency"] = self.request_latency.as_dict()
        data["tick_batch_requests"] = self.tick_batch_requests.as_dict()
        return data

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The snapshot in the Prometheus text exposition format.

        Counters end in ``_total``, durations are ``_seconds``,
        histograms emit cumulative ``_bucket{le=...}`` series plus
        ``_sum``/``_count`` — parseable by any Prometheus scraper (and
        asserted well-formed by ``tests/test_serve_stats.py``).
        """
        lines: List[str] = []

        def counter(name: str, help_text: str, value: float,
                    label: str = "") -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{label} {value}")

        def gauge(name: str, help_text: str, value: float,
                  label: str = "") -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{label} {value}")

        def histogram(name: str, help_text: str, hist: Histogram) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, bucket_count in zip(hist.bounds, hist.counts):
                cumulative += bucket_count
                lines.append(f'{name}_bucket{{le="{bound:.9g}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{name}_sum {hist.total:.9g}")
            lines.append(f"{name}_count {hist.count}")

        lines.append("# HELP repro_serve_requests_total Requests by final "
                     "outcome.")
        lines.append("# TYPE repro_serve_requests_total counter")
        for outcome in ("completed", "rejected", "cancelled", "failed"):
            lines.append(f'repro_serve_requests_total'
                         f'{{outcome="{outcome}"}} '
                         f"{getattr(self, outcome)}")
        counter("repro_serve_requests_submitted_total",
                "Requests accepted into the gateway queue.", self.submitted)
        lines.append("# HELP repro_serve_ticks_total Flush ticks by kind.")
        lines.append("# TYPE repro_serve_ticks_total counter")
        lines.append(f'repro_serve_ticks_total{{kind="busy"}} '
                     f"{self.ticks - self.empty_ticks}")
        lines.append(f'repro_serve_ticks_total{{kind="empty"}} '
                     f"{self.empty_ticks}")
        gauge("repro_serve_queue_depth_high_water",
              "Deepest the bounded request queue has been.",
              self.queue_depth_high_water)
        histogram("repro_serve_queue_wait_seconds",
                  "Submit-to-flush wait inside the queue.", self.queue_wait)
        histogram("repro_serve_request_latency_seconds",
                  "Submit-to-answer latency of completed requests.",
                  self.request_latency)
        histogram("repro_serve_tick_batch_requests",
                  "Requests coalesced per busy tick.",
                  self.tick_batch_requests)

        counter("repro_engine_queries_served_total",
                "Individual query nodes answered by the engine.",
                self.queries_served)
        counter("repro_engine_batches_served_total",
                "Logical request batches answered by the engine.",
                self.batches_served)
        counter("repro_engine_decode_calls_total",
                "Decoder passes (one per coalesced tick group).",
                self.decode_calls)
        counter("repro_engine_decode_seconds_total",
                "Wall-clock seconds inside the decoder.",
                self.decode_seconds)
        counter("repro_engine_contexts_encoded_total",
                "Task contexts encoded (cache misses that did work).",
                self.contexts_encoded)
        counter("repro_engine_context_seconds_total",
                "Wall-clock seconds encoding task contexts (encoder "
                "plus the decoder's context transform).",
                self.context_seconds)
        counter("repro_engine_context_cache_hits_total",
                "Context LRU hits.", self.context_cache_hits)
        counter("repro_engine_context_cache_misses_total",
                "Context LRU misses.", self.context_cache_misses)
        counter("repro_engine_contexts_evicted_total",
                "Context LRU evictions.", self.contexts_evicted)
        gauge("repro_engine_context_cache_bytes",
              "Resident bytes of the context LRU (payloads + scales).",
              self.context_cache_bytes)
        counter("repro_engine_contexts_bytes_evicted_total",
                "Cumulative bytes reclaimed by context LRU eviction.",
                self.contexts_bytes_evicted)
        counter("repro_engine_deltas_applied_total",
                "Graph deltas applied through the engine.",
                self.deltas_applied)
        counter("repro_engine_rows_repaired_total",
                "Operator rows rewritten in place by delta repair.",
                self.rows_repaired)
        counter("repro_engine_contexts_dirtied_total",
                "Cached task contexts invalidated for lazy re-encoding "
                "by a delta's dirty frontier.",
                self.contexts_dirtied)
        counter("repro_engine_auto_selections_total",
                "Tasks routed by the meta-method selector "
                "(method=\"auto\").", self.auto_selections)
        counter("repro_engine_auto_fallbacks_total",
                "auto tasks served by the native model because the "
                "selector abstained or none is configured.",
                self.auto_fallbacks)
        counter("repro_engine_auto_select_seconds_total",
                "Wall-clock seconds extracting meta-features and scoring "
                "candidates on the auto path.",
                self.auto_select_seconds)
        if self.method_picks:
            lines.append("# HELP repro_engine_method_picks_total Tasks "
                         "answered per method via answer_task.")
            lines.append("# TYPE repro_engine_method_picks_total counter")
            for name in sorted(self.method_picks):
                lines.append(f'repro_engine_method_picks_total'
                             f'{{method="{name}"}} '
                             f"{self.method_picks[name]}")
        gauge("repro_engine_graph_resident_bytes",
              "Estimated anonymous-RAM bytes of the active task graph "
              "(operators + feature working set).",
              self.graph_resident_bytes)
        gauge("repro_engine_shard_count",
              "Row shards of the active task graph (1 = dense, 0 = no "
              "task attached).",
              self.shard_count)
        gauge("repro_engine_backend_info",
              "Active array backend (value is always 1).", 1,
              label=f'{{backend="{self.backend}"}}')
        gauge("repro_engine_context_storage_info",
              "Context cache storage width (value is always 1).", 1,
              label=f'{{storage="{self.context_storage}"}}')
        return "\n".join(lines) + "\n"
