"""Micro-benchmark — engine serving throughput: batched vs per-query loop.

The :class:`~repro.api.engine.CommunitySearchEngine` answers a query batch
with one cached context and one *batched* decoder pass; the pre-engine
code path answered the same batch with a Python loop of single-query
decoder passes.  This bench measures both on the same model/task and
records the speedup (and that the outputs are identical).

The MLP/GNN decoders benefit the most: the engine runs their context
transform once per encoded context, the loop once per query.

Run:  pytest benchmarks/bench_engine_serving.py --benchmark-only -s
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CommunitySearchEngine
from repro.core import CGNP, CGNPConfig
from repro.nn.tensor import no_grad
from repro.tasks import ScenarioConfig, make_scenario
from repro.utils import make_rng

BATCH_SIZE = 32


def _legacy_loop(model: CGNP, task, context, queries) -> np.ndarray:
    """The pre-engine serving path: one decoder pass per query."""
    rows = []
    with no_grad():
        for query in queries:
            logits = model.query_logits(context, int(query), task.graph)
            rows.append(logits.sigmoid().data)
    return np.stack(rows)


@pytest.fixture(scope="module", params=["ip", "mlp", "gnn"])
def serving_setup(request, profile):
    decoder = request.param
    config = ScenarioConfig(num_train_tasks=1, num_valid_tasks=1,
                            num_test_tasks=1,
                            subgraph_nodes=profile.subgraph_nodes,
                            num_query=profile.num_query, seed=41)
    tasks = make_scenario("sgsc", "citeseer", config,
                          scale=profile.dataset_scale)
    task = tasks.test[0]
    model = CGNP(task.features().shape[1],
                 CGNPConfig(hidden_dim=profile.hidden_dim,
                            num_layers=profile.num_layers, conv="gat",
                            decoder=decoder), make_rng(5))
    model.eval()
    queries = (np.arange(BATCH_SIZE) % task.graph.num_nodes).tolist()
    return decoder, model, task, queries


@pytest.mark.benchmark(group="engine-serving")
def test_engine_batched_throughput(benchmark, serving_setup):
    decoder, model, task, queries = serving_setup
    engine = CommunitySearchEngine(model).attach(task)

    batched = benchmark(engine.predict_proba, queries)

    stats = engine.stats()
    assert stats.contexts_encoded == 1, "context must encode once, not per batch"
    print(f"\n[{decoder}] engine: {stats.queries_served} queries, "
          f"{stats.queries_per_second:,.0f} q/s (decode path)")

    # Equivalence: the batched pass must reproduce the loop exactly.
    with no_grad():
        context = model.context(task)
    looped = _legacy_loop(model, task, context, queries)
    np.testing.assert_allclose(batched, looped, atol=1e-10)


@pytest.mark.benchmark(group="engine-serving")
def test_legacy_per_query_loop_throughput(benchmark, serving_setup):
    decoder, model, task, queries = serving_setup
    with no_grad():
        context = model.context(task)

    benchmark(_legacy_loop, model, task, context, queries)

    # One timed round of each path for the headline speedup number.
    import time
    start = time.perf_counter()
    _legacy_loop(model, task, context, queries)
    loop_seconds = time.perf_counter() - start

    engine = CommunitySearchEngine(model).attach(task)
    engine.predict_proba(queries)
    batched_seconds = engine.stats().decode_seconds
    if batched_seconds > 0:
        print(f"\n[{decoder}] one batch of {BATCH_SIZE}: per-query loop vs "
              f"batched decode = {loop_seconds:.4f}s vs {batched_seconds:.4f}s "
              f"(speedup ~{loop_seconds / batched_seconds:.1f}x)")
