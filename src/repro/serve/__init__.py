"""``repro.serve`` — the async serving gateway above the engine facade.

The layer that turns :class:`~repro.api.engine.CommunitySearchEngine`
(a session facade answering pre-made batches) into something that
behaves like a production service under concurrent single-query
traffic.  Pure stdlib ``asyncio`` — no new dependencies.

* :mod:`~repro.serve.gateway` — :class:`ServeGateway`: bounded-queue
  admission, work-conserving cross-caller micro-batching, per-request
  futures; answers are bitwise-identical to direct engine calls;
* :mod:`~repro.serve.queue` — the bounded FIFO with reject-on-full
  (:class:`QueueFull`) or awaitable-slot backpressure;
* :mod:`~repro.serve.batcher` — per-task-session grouping and the
  single coalesced decoder pass per group;
* :mod:`~repro.serve.stats` — :class:`ServeStats` (extends
  ``EngineStats`` with latency/queue/batch-size histograms) and its
  Prometheus text exposition (:meth:`ServeStats.metrics_text`);
* :mod:`~repro.serve.loadgen` — the open-loop synthetic load generator
  driving ``repro serve`` and ``repro loadgen``.
"""

from .batcher import MicroBatcher, TickResult
from .gateway import GatewayClosed, GatewayConfig, ServeGateway
from .loadgen import (LoadResult, open_loop_arrivals, request_nodes,
                      run_baseline, run_gateway)
from .queue import QueueFull, RequestQueue, ServeRequest
from .stats import (BATCH_SIZE_BUCKETS, LATENCY_BUCKETS, Histogram,
                    ServeStats, batch_size_histogram, latency_histogram)

__all__ = [
    "ServeGateway",
    "GatewayConfig",
    "GatewayClosed",
    "MicroBatcher",
    "TickResult",
    "RequestQueue",
    "ServeRequest",
    "QueueFull",
    "ServeStats",
    "Histogram",
    "latency_histogram",
    "batch_size_histogram",
    "LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "LoadResult",
    "open_loop_arrivals",
    "request_nodes",
    "run_baseline",
    "run_gateway",
]
