"""Tests for the ``repro.serve`` gateway: queue, batcher, ticker edge cases.

No pytest-asyncio in the toolchain: every event-loop scenario is a plain
sync test wrapping ``asyncio.run``, marked ``asyncio`` so CI can select
the fast serving tests with ``-m asyncio``.  Deterministic single-tick
control comes from *manual mode*: a gateway that was never ``start()``-ed
accepts submits and executes exactly one tick per explicit ``flush()``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import CGNP, CGNPConfig
from repro.serve import (GatewayClosed, GatewayConfig, QueueFull,
                         RequestQueue, ServeGateway, ServeRequest)
from repro.api import CommunitySearchEngine
from repro.utils import make_rng

pytestmark = pytest.mark.asyncio


@pytest.fixture
def engine(tiny_tasks):
    train, _ = tiny_tasks
    in_dim = train[0].features().shape[1]
    config = CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn", decoder="ip")
    return CommunitySearchEngine(CGNP(in_dim, config, make_rng(3)))


@pytest.fixture
def task(tiny_tasks):
    return tiny_tasks[1][0]


@pytest.fixture
def other_task(tiny_tasks):
    return tiny_tasks[1][1]


def manual_gateway(engine, **config) -> ServeGateway:
    """A gateway in manual mode: no ticker, flush() drives the ticks."""
    return ServeGateway(engine, GatewayConfig(**config))


async def submit_pending(gateway, nodes, task, **kwargs):
    """Enqueue a submit and yield until it sits in the queue."""
    pending = asyncio.ensure_future(gateway.submit(nodes, task, **kwargs))
    await asyncio.sleep(0)
    return pending


#: Loop iterations a started gateway may take to answer what is queued.
CLOCKLESS_YIELDS = 8


async def yield_until_done(futures) -> bool:
    """``sleep(0)`` up to :data:`CLOCKLESS_YIELDS` times; True once every
    future is done.  No timed sleep: a ticker that needs a timer to
    fire fails this."""
    for _ in range(CLOCKLESS_YIELDS):
        await asyncio.sleep(0)
        if all(future.done() for future in futures):
            return True
    return False


class TestGatewayConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            GatewayConfig(capacity=0)
        with pytest.raises(ValueError, match="max_tick_requests"):
            GatewayConfig(max_tick_requests=0)
        with pytest.raises(TypeError):      # no coalescing window to set
            GatewayConfig(tick_seconds=0.002)


class TestManualTicks:
    def test_single_tick_bitwise_equals_direct_predict(self, engine, task):
        """One flush answers all waiting requests with ONE decoder pass,
        each answer bitwise-identical to a standalone engine call."""
        batches = [np.array([0, 1, 2]), np.array([3]), np.array([4, 5])]

        async def scenario():
            gateway = manual_gateway(engine)
            pending = [await submit_pending(gateway, nodes, task)
                       for nodes in batches]
            engine.reset_stats()
            answered = gateway.flush()
            results = await asyncio.gather(*pending)
            return answered, results, gateway.stats()

        answered, results, stats = asyncio.run(scenario())
        assert answered == 3
        for nodes, result in zip(batches, results):
            direct = engine.predict_proba(nodes, task)
            assert result.shape == (len(nodes), task.graph.num_nodes)
            assert np.array_equal(result, direct)
        assert stats.decode_calls == 1          # ONE coalesced pass...
        assert stats.batches_served == 3        # ...for 3 logical batches
        assert stats.completed == 3
        assert stats.submitted == 3

    def test_scalar_node_becomes_single_row(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine)
            pending = await submit_pending(gateway, 0, task)
            gateway.flush()
            return await pending

        result = asyncio.run(scenario())
        assert result.shape == (1, task.graph.num_nodes)

    def test_empty_tick_counts_but_answers_nothing(self, engine):
        async def scenario():
            gateway = manual_gateway(engine)
            return gateway.flush(), gateway.stats()

        answered, stats = asyncio.run(scenario())
        assert answered == 0
        assert stats.ticks == 1
        assert stats.empty_ticks == 1

    def test_multi_task_groups_one_pass_each(self, engine, task, other_task):
        async def scenario():
            gateway = manual_gateway(engine)
            a = await submit_pending(gateway, [0, 1], task)
            b = await submit_pending(gateway, [2], other_task)
            c = await submit_pending(gateway, [3], task)
            engine.reset_stats()
            gateway.flush()
            return await asyncio.gather(a, b, c), gateway.stats()

        (a, b, c), stats = asyncio.run(scenario())
        assert stats.decode_calls == 2          # one pass per task group
        assert a.shape[0] == 2 and b.shape[0] == 1 and c.shape[0] == 1

    def test_detached_task_is_reencoded_not_failed(self, engine, task):
        """Sessions are a cache, not a lease: a request whose task was
        detached between submit and flush still gets its answer."""
        async def scenario():
            engine.attach(task)
            gateway = manual_gateway(engine)
            pending = await submit_pending(gateway, [0, 1], task)
            engine.detach(task)
            encoded_before = engine.stats().contexts_encoded
            gateway.flush()
            return await pending, engine.stats().contexts_encoded - \
                encoded_before

        result, reencodes = asyncio.run(scenario())
        assert result.shape[0] == 2
        assert reencodes == 1

    def test_cancelled_future_skipped_mid_tick(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine)
            keep = await submit_pending(gateway, [0], task)
            drop = await submit_pending(gateway, [1], task)
            drop.cancel()
            await asyncio.sleep(0)
            answered = gateway.flush()
            result = await keep
            with pytest.raises(asyncio.CancelledError):
                await drop
            return answered, result, gateway.stats()

        answered, result, stats = asyncio.run(scenario())
        assert answered == 1
        assert result.shape[0] == 1
        assert stats.completed == 1
        assert stats.cancelled == 1

    def test_failing_group_does_not_poison_other_groups(
            self, engine, task, other_task, monkeypatch):
        real = engine.predict_proba_many

        def sabotaged(node_batches, task=None):
            if task is other_task:
                raise RuntimeError("decode exploded")
            return real(node_batches, task=task)

        monkeypatch.setattr(engine, "predict_proba_many", sabotaged)

        async def scenario():
            gateway = manual_gateway(engine)
            good = await submit_pending(gateway, [0], task)
            bad = await submit_pending(gateway, [1], other_task)
            gateway.flush()
            result = await good
            with pytest.raises(RuntimeError, match="decode exploded"):
                await bad
            return result, gateway.stats()

        result, stats = asyncio.run(scenario())
        assert result.shape[0] == 1
        assert stats.completed == 1
        assert stats.failed == 1

    def test_invalid_nodes_fail_fast_in_submit(self, engine, task):
        """Validation happens in the caller's context, not inside a tick."""
        async def scenario():
            gateway = manual_gateway(engine)
            with pytest.raises(ValueError, match="out of range"):
                await gateway.submit([task.graph.num_nodes + 7], task)
            return len(gateway._queue)

        assert asyncio.run(scenario()) == 0

    def test_submit_without_task_or_session_raises(self, engine):
        async def scenario():
            gateway = manual_gateway(engine)
            with pytest.raises(RuntimeError, match="no task attached"):
                await gateway.submit([0])

        asyncio.run(scenario())

    def test_submit_falls_back_to_engine_session(self, engine, task):
        async def scenario():
            engine.attach(task)
            gateway = manual_gateway(engine)
            pending = await submit_pending(gateway, [0], None)
            gateway.flush()
            return await pending

        assert asyncio.run(scenario()).shape[0] == 1


class TestBackpressure:
    def test_queue_full_rejection(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine, capacity=2)
            a = await submit_pending(gateway, [0], task)
            b = await submit_pending(gateway, [1], task)
            with pytest.raises(QueueFull) as info:
                await gateway.submit([2], task)
            gateway.flush()
            await asyncio.gather(a, b)
            return info.value.capacity, gateway.stats()

        capacity, stats = asyncio.run(scenario())
        assert capacity == 2
        assert stats.rejected == 1
        assert stats.submitted == 2
        assert stats.queue_depth_high_water == 2

    def test_wait_for_slot_admitted_by_next_drain(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine, capacity=1)
            first = await submit_pending(gateway, [0], task)
            parked = await submit_pending(gateway, [1], task, wait=True)
            assert gateway._queue.waiting_for_slot == 1
            gateway.flush()                     # frees the slot -> admits
            await asyncio.sleep(0)
            assert gateway._queue.waiting_for_slot == 0
            gateway.flush()                     # serves the admitted one
            return await asyncio.gather(first, parked)

        first, parked = asyncio.run(scenario())
        assert first.shape[0] == 1 and parked.shape[0] == 1

    def test_cancelled_parked_waiter_never_admitted(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine, capacity=1)
            first = await submit_pending(gateway, [0], task)
            parked = await submit_pending(gateway, [1], task, wait=True)
            parked.cancel()
            await asyncio.sleep(0)
            gateway.flush()
            gateway.flush()
            with pytest.raises(asyncio.CancelledError):
                await parked
            return await first, len(gateway._queue)

        result, depth = asyncio.run(scenario())
        assert result.shape[0] == 1
        assert depth == 0

    def test_max_tick_requests_leaves_remainder_queued(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine, max_tick_requests=2)
            pending = [await submit_pending(gateway, [i], task)
                       for i in range(5)]
            first = gateway.flush()
            remaining = len(gateway._queue)
            second = gateway.flush()
            third = gateway.flush()
            await asyncio.gather(*pending)
            return first, remaining, second, third

        first, remaining, second, third = asyncio.run(scenario())
        assert (first, remaining, second, third) == (2, 3, 2, 1)


class TestLifecycle:
    def test_ticker_round_trip(self, engine, task):
        """The started gateway answers concurrent submits on its own."""
        batches = [np.array([i]) for i in range(6)]

        async def scenario():
            async with ServeGateway(engine) as gateway:
                results = await asyncio.gather(
                    *[gateway.submit(nodes, task) for nodes in batches])
                return results, gateway.stats()

        results, stats = asyncio.run(scenario())
        for nodes, result in zip(batches, results):
            assert np.array_equal(result, engine.predict_proba(nodes, task))
        assert stats.completed == len(batches)
        assert stats.ticks == 1
        assert stats.request_latency.count == len(batches)

    def test_single_submit_resolves_without_a_timer(self, engine, task):
        """Work-conserving ticker: a lone request is answered within a
        few loop iterations — only ``sleep(0)`` yields, no clock."""
        async def scenario():
            async with ServeGateway(engine) as gateway:
                pending = asyncio.ensure_future(gateway.submit([0], task))
                done = await yield_until_done([pending])
                return done, pending.result() if done else None

        done, result = asyncio.run(scenario())
        assert done, f"submit still pending after {CLOCKLESS_YIELDS} yields"
        assert np.array_equal(result, engine.predict_proba([0], task))

    def test_submits_gathered_in_one_step_share_one_tick(self, engine, task):
        count = 12

        async def scenario():
            async with ServeGateway(engine) as gateway:
                pending = [asyncio.ensure_future(gateway.submit([i], task))
                           for i in range(count)]
                return await yield_until_done(pending), gateway.stats()

        done, stats = asyncio.run(scenario())
        assert done, f"submits still pending after {CLOCKLESS_YIELDS} yields"
        assert stats.tick_batch_requests.count == 1
        assert stats.tick_batch_requests.mean == count
        assert stats.empty_ticks == 0

    def test_tick_remainder_drains_without_new_submit(self, engine, task):
        async def scenario():
            config = GatewayConfig(max_tick_requests=2)
            async with ServeGateway(engine, config) as gateway:
                results = await asyncio.gather(*[gateway.submit([i], task)
                                                 for i in range(5)])
                return results, gateway.stats()

        results, stats = asyncio.run(scenario())
        assert [r.shape[0] for r in results] == [1] * 5
        assert stats.tick_batch_requests.count == 3     # 2 + 2 + 1
        assert stats.ticks == 3

    def test_stop_drains_pending_by_default(self, engine, task):
        async def scenario():
            gateway = ServeGateway(engine)
            await gateway.start()
            pending = [asyncio.ensure_future(gateway.submit([i], task))
                       for i in range(3)]
            await asyncio.sleep(0)          # all three enqueue...
            queued = len(gateway._queue)
            await gateway.stop()            # ...and stop beats the ticker
            return queued, await asyncio.gather(*pending), gateway.stats()

        queued, results, stats = asyncio.run(scenario())
        assert queued == 3
        assert [r.shape[0] for r in results] == [1, 1, 1]
        assert stats.ticks == 1             # the drain's flush

    def test_stop_without_drain_fails_pending(self, engine, task):
        async def scenario():
            gateway = ServeGateway(engine)
            await gateway.start()
            pending = await submit_pending(gateway, [0], task)
            assert len(gateway._queue) == 1
            await gateway.stop(drain=False)
            with pytest.raises(GatewayClosed):
                await pending
            return gateway.closed, gateway.stats()

        closed, stats = asyncio.run(scenario())
        assert closed is True
        assert stats.ticks == 0

    def test_submit_after_stop_raises(self, engine, task):
        async def scenario():
            gateway = ServeGateway(engine)
            await gateway.start()
            await gateway.stop()
            with pytest.raises(GatewayClosed):
                await gateway.submit([0], task)

        asyncio.run(scenario())

    def test_double_start_rejected(self, engine):
        async def scenario():
            gateway = ServeGateway(engine)
            await gateway.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await gateway.start()
            finally:
                await gateway.stop()

        asyncio.run(scenario())

    def test_reset_stats_zeroes_gateway_counters(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine)
            pending = await submit_pending(gateway, [0], task)
            gateway.flush()
            await pending
            gateway.reset_stats()
            return gateway.stats()

        stats = asyncio.run(scenario())
        assert stats.submitted == 0
        assert stats.completed == 0
        assert stats.ticks == 0

    def test_metrics_text_reflects_traffic(self, engine, task):
        async def scenario():
            gateway = manual_gateway(engine)
            pending = await submit_pending(gateway, [0], task)
            gateway.flush()
            await pending
            return gateway.metrics_text()

        text = asyncio.run(scenario())
        assert 'repro_serve_requests_total{outcome="completed"} 1' in text
        assert "repro_serve_request_latency_seconds_count 1" in text


class TestRequestQueue:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            RequestQueue(0)

    def test_fifo_order_and_high_water(self, engine, task):
        async def scenario():
            queue = RequestQueue(4)
            loop = asyncio.get_running_loop()
            requests = [ServeRequest(task=task, nodes=np.array([i]),
                                     future=loop.create_future(),
                                     submitted_at=loop.time())
                        for i in range(3)]
            for request in requests:
                queue.put_nowait(request)
            drained = queue.drain()
            return requests, drained, queue.high_water

        requests, drained, high_water = asyncio.run(scenario())
        assert drained == requests
        assert high_water == 3

    def test_drain_limit_pops_front(self, engine, task):
        async def scenario():
            queue = RequestQueue(4)
            loop = asyncio.get_running_loop()
            requests = [ServeRequest(task=task, nodes=np.array([i]),
                                     future=loop.create_future(),
                                     submitted_at=0.0)
                        for i in range(3)]
            for request in requests:
                queue.put_nowait(request)
            first = queue.drain(limit=2)
            rest = queue.drain()
            return requests, first, rest

        requests, first, rest = asyncio.run(scenario())
        assert first == requests[:2]
        assert rest == requests[2:]
