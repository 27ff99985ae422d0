"""Block-diagonal ``GraphBatch`` collation and every batched path built on it.

The contract under test: batching is a *layout* change, never a *numerics*
change.  Encoding k graphs through one block-diagonal forward, training on
task mini-batches, bulk-attaching engine sessions and the baselines'
collated steps must all agree with the per-graph / per-query reference
paths to float tolerance (1e-9), including ragged batches (different graph
sizes, different support counts).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CommunitySearchEngine
from repro.baselines.common import batch_loss, example_loss, predict_task_proba
from repro.core import CGNP, CGNPConfig, make_aggregator, task_batch_loss, task_loss
from repro.gnn import (GNNEncoder, GNNNodeClassifier, graph_ops,
                       make_query_features)
from repro.gnn.conv import GRAPH_OPS_KEY
from repro.graph import Graph, GraphBatch, attributed_community_graph
from repro.nn import Tensor
from repro.nn.loss import bce_with_logits
from repro.nn.tensor import no_grad
from repro.tasks import TaskSampler
from repro.utils import make_rng

ATOL = 1e-9


def random_graph(num_nodes: int, seed: int) -> Graph:
    """A connected-ish random graph (ring + random chords)."""
    rng = make_rng(seed)
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    extra = max(num_nodes // 2, 1)
    chords = rng.integers(0, num_nodes, size=(extra, 2))
    edges.extend((int(u), int(v)) for u, v in chords if u != v)
    return Graph(num_nodes, edges, name=f"rand{num_nodes}-{seed}")


@pytest.fixture(scope="module")
def ragged_tasks():
    """Tasks of *different* graph sizes and support counts."""
    data = attributed_community_graph(
        num_nodes=150, num_communities=5, avg_degree=8.0, mixing=0.12,
        num_attributes=16, rng=make_rng(11), name="batch-fixture")
    tasks = []
    for i, (sub, shots) in enumerate([(50, 1), (70, 3), (60, 2)]):
        sampler = TaskSampler(data, subgraph_nodes=sub, num_support=shots,
                              num_query=4, num_positive=3, num_negative=6)
        tasks.append(sampler.sample_task(make_rng(100 + i), name=f"rag-{i}"))
    return tasks


def tiny_model(tasks, conv="gcn", decoder="ip", aggregator="sum", seed=3):
    dim = tasks[0].features().shape[1]
    model = CGNP(dim, CGNPConfig(hidden_dim=8, num_layers=2, conv=conv,
                                 decoder=decoder, aggregator=aggregator,
                                 dropout=0.0), make_rng(seed))
    model.eval()
    return model


class TestGraphBatchStructure:
    def test_offsets_sizes_and_node_index(self):
        graphs = [random_graph(n, s) for n, s in [(5, 0), (9, 1), (3, 2)]]
        batch = GraphBatch(graphs)
        assert batch.num_graphs == 3
        assert batch.num_nodes == 17
        np.testing.assert_array_equal(batch.sizes, [5, 9, 3])
        np.testing.assert_array_equal(batch.offsets, [0, 5, 14, 17])
        np.testing.assert_array_equal(
            batch.node_graph_index, [0] * 5 + [1] * 9 + [2] * 3)

    def test_adjacency_is_block_diagonal(self):
        graphs = [random_graph(6, 3), random_graph(4, 4)]
        batch = GraphBatch(graphs)
        dense = batch.adjacency.toarray()
        np.testing.assert_array_equal(dense[:6, :6], graphs[0].adjacency.toarray())
        np.testing.assert_array_equal(dense[6:, 6:], graphs[1].adjacency.toarray())
        assert not dense[:6, 6:].any(), "no edges may cross blocks"
        assert not dense[6:, :6].any()

    def test_directed_edges_are_offset(self):
        graphs = [random_graph(5, 5), random_graph(7, 6)]
        batch = GraphBatch(graphs)
        src, dst = batch.directed_edges()
        s0, d0 = graphs[0].directed_edges()
        s1, d1 = graphs[1].directed_edges()
        np.testing.assert_array_equal(src, np.concatenate([s0, s1 + 5]))
        np.testing.assert_array_equal(dst, np.concatenate([d0, d1 + 5]))

    def test_replicate(self):
        g = random_graph(4, 7)
        batch = GraphBatch.replicate(g, 3)
        assert batch.num_graphs == 3 and batch.num_nodes == 12
        assert all(member is g for member in batch)
        with pytest.raises(ValueError):
            GraphBatch.replicate(g, 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            GraphBatch([])

    def test_global_ids_and_blocks(self):
        batch = GraphBatch([random_graph(5, 8), random_graph(6, 9)])
        np.testing.assert_array_equal(batch.global_ids(1, [0, 5]), [5, 10])
        assert batch.block(1) == (5, 11)
        with pytest.raises(ValueError):
            batch.global_ids(0, [5])        # out of member range
        with pytest.raises(IndexError):
            batch.global_ids(2, [0])

    def test_split_scatter_roundtrip(self):
        batch = GraphBatch([random_graph(4, 10), random_graph(7, 11)])
        stacked = make_rng(0).normal(size=(batch.num_nodes, 3))
        chunks = batch.split_rows(stacked)
        assert [len(c) for c in chunks] == [4, 7]
        np.testing.assert_array_equal(batch.scatter_rows(chunks), stacked)
        with pytest.raises(ValueError):
            batch.split_rows(stacked[:-1])
        with pytest.raises(ValueError):
            batch.scatter_rows(chunks[:1])

    def test_degrees_concatenate(self):
        graphs = [random_graph(5, 12), random_graph(8, 13)]
        batch = GraphBatch(graphs)
        np.testing.assert_array_equal(
            batch.degrees(),
            np.concatenate([graphs[0].degrees(), graphs[1].degrees()]))


class TestOpsCache:
    def test_graph_ops_memoised_per_instance(self):
        g = random_graph(6, 20)
        assert graph_ops(g) is graph_ops(g)

    def test_batch_ops_do_not_alias_member_ops(self):
        g = random_graph(6, 21)
        batch = GraphBatch.replicate(g, 2)
        single = graph_ops(g)
        batched = graph_ops(batch)
        assert single is not batched
        assert batched.num_nodes == 2 * single.num_nodes
        # The member graph's cache must be untouched by the batch build.
        assert graph_ops(g) is single

    def test_invalidate_cached_ops(self):
        g = random_graph(6, 22)
        first = graph_ops(g)
        g.invalidate_cached_ops(GRAPH_OPS_KEY)
        assert graph_ops(g) is not first
        second = graph_ops(g)
        g.invalidate_cached_ops()           # clear-all form
        assert graph_ops(g) is not second

    def test_invalidate_unknown_key_is_noop(self):
        g = random_graph(4, 23)
        g.invalidate_cached_ops("never-cached")
        first = graph_ops(g)
        g.invalidate_cached_ops("still-not-cached")
        assert graph_ops(g) is first


class TestBatchedEncoderEquivalence:
    @pytest.mark.parametrize("conv", ["gcn", "gat", "sage"])
    def test_block_diagonal_forward_matches_per_graph(self, conv):
        graphs = [random_graph(n, 30 + n) for n in (5, 11, 8)]
        encoder = GNNEncoder(3, 6, 2, conv, 0.0, make_rng(1))
        encoder.eval()
        features = [make_rng(40 + i).normal(size=(g.num_nodes, 3))
                    for i, g in enumerate(graphs)]
        batch = GraphBatch(graphs)
        with no_grad():
            batched = encoder(Tensor(np.concatenate(features)), batch).data
            singles = [encoder(Tensor(x), g).data
                       for x, g in zip(features, graphs)]
        np.testing.assert_allclose(batched, np.concatenate(singles), atol=ATOL)

    @given(sizes=st.lists(st.integers(3, 12), min_size=1, max_size=4),
           seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_batched_equals_concatenated(self, sizes, seed):
        """For arbitrary ragged batches the block-diagonal forward equals
        the concatenation of per-graph forwards."""
        graphs = [random_graph(n, seed + i) for i, n in enumerate(sizes)]
        encoder = GNNEncoder(2, 4, 2, "gcn", 0.0, make_rng(seed))
        encoder.eval()
        features = [make_rng(seed + 50 + i).normal(size=(g.num_nodes, 2))
                    for i, g in enumerate(graphs)]
        with no_grad():
            batched = encoder(Tensor(np.concatenate(features)),
                              GraphBatch(graphs)).data
            singles = [encoder(Tensor(x), g).data
                       for x, g in zip(features, graphs)]
        np.testing.assert_allclose(batched, np.concatenate(singles), atol=ATOL)

    def test_support_features_match_per_view(self, ragged_tasks):
        task = ragged_tasks[1]
        features = task.features()
        support = task.support_features()
        per_view = np.concatenate(
            [make_query_features(features, e.query, e.positives)
             for e in task.support])
        assert support.shape == per_view.shape
        # Projecting through the identity reads the stack back exactly.
        identity = Tensor(np.eye(per_view.shape[1], dtype=per_view.dtype))
        np.testing.assert_array_equal(support.project(identity).data,
                                      per_view)
        # Storage: the task's features once whatever the shot count, plus
        # the views' indicator mask — never the dense k·n·(1 + d) tile.
        [(stored, indicators)] = support.blocks
        assert stored is task.encoder_features()
        assert indicators.shape == (len(task.support), task.num_nodes)
        assert indicators.sum() == np.count_nonzero(per_view[:, 0])


class TestAggregatorStackedViews:
    @pytest.mark.parametrize("name", ["sum", "mean", "attention"])
    def test_stacked_tensor_matches_view_list(self, name):
        rng = make_rng(2)
        aggregator = make_aggregator(name, 5, make_rng(0))
        views = [Tensor(rng.normal(size=(7, 5))) for _ in range(3)]
        stacked = Tensor(np.stack([v.data for v in views]))
        np.testing.assert_allclose(aggregator(views).data,
                                   aggregator(stacked).data, atol=ATOL)

    @pytest.mark.parametrize("name", ["sum", "mean", "attention"])
    def test_single_view(self, name):
        aggregator = make_aggregator(name, 4, make_rng(0))
        view = make_rng(3).normal(size=(1, 6, 4))
        np.testing.assert_allclose(aggregator(Tensor(view)).data, view[0],
                                   atol=ATOL)

    def test_bad_shapes_rejected(self):
        aggregator = make_aggregator("sum", 4, make_rng(0))
        with pytest.raises(ValueError):
            aggregator([])
        with pytest.raises(ValueError):
            aggregator(Tensor(np.zeros((3, 4))))      # not (k, n, d)
        with pytest.raises(ValueError):
            aggregator([Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4)))])


class TestContextBatchEquivalence:
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "attention"])
    def test_context_batch_matches_per_view_reference(self, ragged_tasks,
                                                      aggregator):
        model = tiny_model(ragged_tasks, aggregator=aggregator)
        with no_grad():
            contexts = model.context_batch(ragged_tasks)
            for task, context in zip(ragged_tasks, contexts):
                views = [model.encode_view(task, e) for e in task.support]
                reference = model.aggregator(views)
                np.testing.assert_allclose(context.data, reference.data,
                                           atol=ATOL)

    def test_support_overrides(self, ragged_tasks):
        model = tiny_model(ragged_tasks)
        task = ragged_tasks[1]
        override = task.support[:1]
        with no_grad():
            batched = model.context_batch([task], supports=[override])[0]
            reference = model.aggregator(
                [model.encode_view(task, override[0])])
        np.testing.assert_allclose(batched.data, reference.data, atol=ATOL)
        with pytest.raises(ValueError):
            model.context_batch([task], supports=[])
        with pytest.raises(ValueError):
            model.context_batch([task], supports=[[]])
        with pytest.raises(ValueError):
            model.context_batch([])


def reference_task_loss(model, task):
    """The seed's per-query task loss (kept as the equivalence oracle)."""
    context = model.context(task)
    total = None
    for example in task.queries:
        logits = model.query_logits(context, example.query, task.graph)
        nodes, targets = example.label_arrays()
        loss = bce_with_logits(logits.take_rows(nodes), targets, reduction="sum")
        total = loss if total is None else total + loss
    num_labels = sum(1 + e.num_labels for e in task.queries)
    return total * (1.0 / num_labels)


class TestBatchedLossEquivalence:
    @pytest.mark.parametrize("decoder", ["ip", "mlp", "gnn"])
    def test_task_loss_matches_per_query_reference(self, ragged_tasks, decoder):
        model = tiny_model(ragged_tasks, decoder=decoder)
        with no_grad():
            for task in ragged_tasks:
                vectorised = float(task_loss(model, task).data)
                reference = float(reference_task_loss(model, task).data)
                assert vectorised == pytest.approx(reference, abs=ATOL)

    @pytest.mark.parametrize("decoder", ["ip", "mlp", "gnn"])
    def test_task_batch_loss_matches_mean_of_task_losses(self, ragged_tasks,
                                                         decoder):
        model = tiny_model(ragged_tasks, decoder=decoder)
        with no_grad():
            batched = float(task_batch_loss(model, ragged_tasks).data)
            singles = [float(reference_task_loss(model, t).data)
                       for t in ragged_tasks]
        assert batched == pytest.approx(float(np.mean(singles)), abs=ATOL)

    def test_task_batch_loss_gradients_match_accumulated_singles(self,
                                                                 ragged_tasks):
        """One mini-batch backward equals the mean of per-task backwards."""
        model = tiny_model(ragged_tasks)
        model.train()
        task_batch_loss(model, ragged_tasks).backward()
        batched_grads = {name: p.grad.copy()
                         for name, p in model.named_parameters()}
        model.zero_grad()
        for task in ragged_tasks:
            (reference_task_loss(model, task)
             * (1.0 / len(ragged_tasks))).backward()
        for name, parameter in model.named_parameters():
            np.testing.assert_allclose(batched_grads[name], parameter.grad,
                                       atol=1e-8, err_msg=name)

    def test_empty_queries_rejected(self, ragged_tasks):
        model = tiny_model(ragged_tasks)
        task = ragged_tasks[0]
        stripped = type(task)(task.graph, task.support, [], name="no-queries")
        with pytest.raises(ValueError):
            task_loss(model, stripped)
        with pytest.raises(ValueError):
            task_batch_loss(model, [stripped])
        with pytest.raises(ValueError):
            task_batch_loss(model, [])


class TestEngineAttachMany:
    def test_bulk_attach_matches_sequential_attach(self, ragged_tasks):
        model = tiny_model(ragged_tasks)
        bulk = CommunitySearchEngine(model).attach_many(ragged_tasks)
        sequential = CommunitySearchEngine(model)
        for task in ragged_tasks:
            sequential.attach(task)
        for task in ragged_tasks:
            queries = [e.query for e in task.queries]
            np.testing.assert_allclose(
                bulk.predict_proba(queries, task=task),
                sequential.predict_proba(queries, task=task), atol=ATOL)
        assert bulk.active_task is ragged_tasks[-1]
        assert bulk.stats().contexts_encoded == len(ragged_tasks)

    def test_bulk_attach_reuses_cached_contexts(self, ragged_tasks):
        model = tiny_model(ragged_tasks)
        engine = CommunitySearchEngine(model).attach(ragged_tasks[0])
        engine.attach_many(ragged_tasks)
        stats = engine.stats()
        assert stats.contexts_encoded == len(ragged_tasks)
        assert stats.context_cache_hits == 1
        engine.attach_many(ragged_tasks, refresh=True)
        assert engine.stats().contexts_encoded == 2 * len(ragged_tasks)

    def test_bulk_attach_validates(self, ragged_tasks):
        model = tiny_model(ragged_tasks)
        engine = CommunitySearchEngine(model)
        with pytest.raises(ValueError):
            engine.attach_many([])
        with pytest.raises(TypeError):
            engine.attach_many([ragged_tasks[0], "not a task"])


class TestBaselineBatchedPaths:
    def test_batch_loss_matches_mean_example_loss(self, ragged_tasks):
        dim = ragged_tasks[0].features().shape[1]
        model = GNNNodeClassifier(dim + 1, 8, 2, "gcn", 0.0, make_rng(4))
        model.eval()
        pairs = [(task, example) for task in ragged_tasks
                 for example in task.all_examples()]
        with no_grad():
            batched = float(batch_loss(model, pairs).data)
            singles = [float(example_loss(model, t, e).data) for t, e in pairs]
        assert batched == pytest.approx(float(np.mean(singles)), abs=ATOL)

    def test_predict_task_proba_matches_per_example(self, ragged_tasks):
        from repro.baselines.common import predict_example_proba

        dim = ragged_tasks[0].features().shape[1]
        model = GNNNodeClassifier(dim + 1, 8, 2, "gat", 0.0, make_rng(5))
        task = ragged_tasks[2]
        rows = predict_task_proba(model, task, task.queries)
        assert len(rows) == len(task.queries)
        for row, example in zip(rows, task.queries):
            np.testing.assert_allclose(
                row, predict_example_proba(model, task, example), atol=ATOL)
        assert predict_task_proba(model, task, []) == []


class TestMiniBatchTraining:
    def test_task_batch_size_trains_and_matches_shapes(self, ragged_tasks):
        from repro.core import MetaTrainConfig, meta_train

        model = tiny_model(ragged_tasks)
        state = meta_train(model, ragged_tasks,
                           MetaTrainConfig(epochs=4, learning_rate=2e-3,
                                           task_batch_size=2), make_rng(6))
        assert len(state.epoch_losses) == 4
        assert all(np.isfinite(loss) for loss in state.epoch_losses)
        assert state.epoch_losses[-1] < state.epoch_losses[0]

    def test_invalid_batch_size_rejected(self):
        from repro.core import MetaTrainConfig

        with pytest.raises(ValueError):
            MetaTrainConfig(task_batch_size=0)
