"""The async serving gateway: cross-caller micro-batching for one engine.

A production deployment of the paper's deploy-once/query-many model sees
thousands of concurrent *single-node* requests, not pre-made batches —
yet the engine underneath answers a 64-query batch with one lock
acquisition, one context fetch and one GEMM.  :class:`ServeGateway`
converts the former into the latter:

1. concurrent ``await gateway.submit(nodes, task)`` calls validate the
   query ids up front and land in a bounded :class:`RequestQueue`
   (reject-on-full by default, ``wait=True`` for an awaitable slot);
2. a ticker starts a tick as soon as the loop is free: its batch is
   whatever queued while the previous tick decoded, split into per-task
   groups, each answered with ONE
   :meth:`~repro.api.engine.CommunitySearchEngine.predict_proba_many`
   decoder pass — so batches grow with load without a timing window;
3. each caller's future resolves with its own ``(len(nodes), n)``
   probability matrix — **bitwise-identical** to a direct
   ``engine.predict_proba(nodes, task)`` call (the coalesced pass keeps
   per-request BLAS shapes; see the engine docstring).

The decode runs *inline* on the event loop: the numerical kernels hold
the engine lock over the one shared model and context cache, so a
thread pool would serialise anyway — and an inline decode keeps tick
latency deterministic.  Callers on other threads submit through
``asyncio.run_coroutine_threadsafe(gateway.submit(...), gateway.loop)``.

>>> import asyncio
>>> from repro.serve import ServeGateway, GatewayConfig
>>> async def serve(engine, task, nodes):        # doctest: +SKIP
...     async with ServeGateway(engine) as gateway:
...         return await gateway.submit(nodes, task)
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..api.engine import CommunitySearchEngine
from ..core.infer import validate_queries
from ..tasks.task import Task
from .batcher import MicroBatcher
from .queue import QueueFull, RequestQueue, ServeRequest
from .stats import ServeStats

__all__ = ["GatewayConfig", "GatewayClosed", "ServeGateway"]


@dataclass
class GatewayConfig:
    """Settings of one gateway (see ``docs/serving.md``).

    There is no coalescing window: a tick starts as soon as the event
    loop is free and batches whatever queued during the previous tick.
    ``capacity`` bounds queued requests; beyond it, ``submit`` rejects
    (or parks, with ``wait=True``).  ``max_tick_requests`` optionally
    caps how many requests one tick may coalesce — a fairness guard so
    one burst cannot monopolise a tick indefinitely; the remainder
    stays queued for the next tick.
    """

    capacity: int = 1024
    max_tick_requests: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.max_tick_requests is not None and self.max_tick_requests < 1:
            raise ValueError("max_tick_requests must be >= 1 or None")


class GatewayClosed(RuntimeError):
    """Submit after ``stop()`` (or before a re-``start()``)."""


class ServeGateway:
    """Async micro-batching front door for one :class:`CommunitySearchEngine`.

    Use as an async context manager (starts the ticker, drains on exit)
    or drive ticks manually with :meth:`flush` — the deterministic mode
    the edge-case tests use: submits enqueue, an explicit ``flush()``
    executes exactly one tick.
    """

    def __init__(self, engine: CommunitySearchEngine,
                 config: Optional[GatewayConfig] = None):
        self.engine = engine
        self.config = config or GatewayConfig()
        self._queue = RequestQueue(self.config.capacity)
        self._batcher = MicroBatcher(engine)
        self._stats = ServeStats()
        self._wake: Optional[asyncio.Event] = None
        self._ticker: Optional["asyncio.Task[None]"] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ServeGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def start(self) -> None:
        """Start the ticker loop on the running event loop."""
        if self._ticker is not None:
            raise RuntimeError("gateway already started")
        self._closed = False
        self._wake = asyncio.Event()
        self._ticker = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-ticker")

    async def stop(self, drain: bool = True) -> None:
        """Stop the ticker; by default answer everything still queued.

        ``drain=False`` instead fails pending requests with
        :class:`GatewayClosed`.
        """
        self._closed = True
        if self._ticker is not None:
            self._ticker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ticker
            self._ticker = None
        if drain:
            while len(self._queue):
                self.flush()
        else:
            while len(self._queue):     # drain() re-admits parked waiters
                for request in self._queue.drain():
                    if not request.future.done():
                        request.future.set_exception(
                            GatewayClosed("gateway stopped before this "
                                          "request was served"))
        # Give the failed/answered futures' awaiters a chance to run
        # before the caller tears anything else down.
        await asyncio.sleep(0)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, nodes: Union[int, Sequence[int], np.ndarray],
                     task: Optional[Task] = None,
                     wait: bool = False) -> np.ndarray:
        """Submit one request; resolves with its probability matrix.

        Validation (task attached, node ids in range) happens *here*, in
        the caller's context — a malformed request fails fast instead of
        poisoning a tick.  ``wait`` picks the backpressure mode when the
        queue is full: ``False`` (default) raises :class:`QueueFull`
        immediately, ``True`` awaits a slot.

        Returns the ``(len(nodes), num_nodes)`` membership-probability
        matrix (a scalar node id becomes a single-row matrix), bitwise
        equal to ``engine.predict_proba(nodes, task)``.
        """
        if self._closed:
            raise GatewayClosed("gateway is closed; start() it (or use "
                                "'async with') before submitting")
        if task is None:
            task = self.engine.active_task
            if task is None:
                raise RuntimeError(
                    "no task attached: attach one on the engine or pass "
                    "task= explicitly")
        if isinstance(nodes, (int, np.integer)):
            nodes = [int(nodes)]
        indices = validate_queries(task.graph, nodes)
        loop = asyncio.get_running_loop()
        request = ServeRequest(task=task, nodes=indices,
                               future=loop.create_future(),
                               submitted_at=loop.time())
        if wait:
            await self._queue.put(request)
        else:
            try:
                self._queue.put_nowait(request)
            except QueueFull:
                self._stats.rejected += 1
                raise
        self._stats.submitted += 1
        if self._wake is not None:
            self._wake.set()
        return await request.future

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        """Ticker: sleep until work arrives, flush, repeat — no timer."""
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            # Let submits already scheduled on the loop join this tick;
            # those arriving during the inline decode form the next one.
            await asyncio.sleep(0)
            self.flush()
            if len(self._queue):
                # max_tick_requests left a remainder — keep ticking
                # without waiting for a new submission.
                self._wake.set()

    def flush(self) -> int:
        """Execute one tick synchronously; returns requests answered.

        The ticker calls this whenever work is queued; tests (and
        ``stop()``'s drain) call it directly for deterministic
        single-tick control.
        """
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:            # stop() after the loop exited
            now = None
        batch = self._queue.drain(self.config.max_tick_requests)
        self._stats.ticks += 1
        if not batch:
            self._stats.empty_ticks += 1
            return 0
        if now is not None:
            for request in batch:
                self._stats.queue_wait.observe(now - request.submitted_at)
        self._stats.tick_batch_requests.observe(len(batch))
        result = self._batcher.execute(batch)
        self._stats.completed += result.completed
        self._stats.cancelled += result.cancelled
        self._stats.failed += result.failed
        if now is not None and result.answered:
            done = asyncio.get_running_loop().time()
            for request in result.answered:
                self._stats.request_latency.observe(
                    done - request.submitted_at)
        return result.completed

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def apply_delta(self, delta, task: Optional[Task] = None,
                    repair: bool = True):
        """Apply a :class:`~repro.graph.delta.GraphDelta` atomically
        between ticks.

        Delegates to :meth:`CommunitySearchEngine.apply_delta
        <repro.api.engine.CommunitySearchEngine.apply_delta>`, which
        holds the engine lock for the whole patch — and every tick's
        decode (:meth:`flush` → ``predict_proba_many``) holds the same
        lock, so a delta can never land inside a coalesced decoder pass:
        each tick answers entirely against the pre-delta or entirely
        against the post-delta graph.  Callable from any thread, with or
        without the ticker running.  Returns the
        :class:`~repro.graph.delta.DeltaReport`.
        """
        return self.engine.apply_delta(delta, task=task, repair=repair)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServeStats:
        """Isolated snapshot: gateway counters + the engine's counters."""
        snapshot = self._stats.with_engine(self.engine.stats())
        snapshot.queue_depth_high_water = self._queue.high_water
        return snapshot

    def metrics_text(self) -> str:
        """Current :meth:`stats` in Prometheus text exposition format."""
        return self.stats().metrics_text()

    def reset_stats(self) -> None:
        """Zero the gateway's counters (the engine keeps its own)."""
        self._stats = ServeStats()
        self._queue.high_water = len(self._queue)

    def __repr__(self) -> str:    # pragma: no cover - cosmetics
        state = "closed" if self._closed else (
            "running" if self._ticker else "manual")
        return (f"ServeGateway({state}, queued={len(self._queue)}, "
                f"capacity={self.config.capacity})")
