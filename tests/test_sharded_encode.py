"""Shard-streaming encode & serve: bitwise parity with the dense path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CommunitySearchEngine
from repro.core import CGNP, CGNPConfig
from repro.graph import Graph, ShardedGraph
from repro.nn import no_grad
from repro.nn.backend import fused_inference, index_precision, precision
from repro.tasks import QueryExample, Task
from repro.utils import make_rng

N, D = 60, 12


def _graph_pair(tmp_dir=None, num_shards=3, seed=0, sparse=False):
    rng = make_rng(seed)
    edges = rng.integers(0, N, size=(N * 3, 2))
    attrs = rng.standard_normal((N, D))
    if sparse:
        attrs[rng.random((N, D)) >= 0.05] = 0.0
    dense = Graph(N, edges, attributes=attrs)
    sharded = ShardedGraph(N, edges, attributes=attrs,
                           num_shards=num_shards,
                           memmap_dir=None if tmp_dir is None else str(tmp_dir))
    return dense, sharded


def _example(query: int) -> QueryExample:
    positives = np.array([(query + 1) % N, (query + 3) % N])
    negatives = np.array([(query + 10) % N, (query + 20) % N])
    membership = np.zeros(N, dtype=bool)
    membership[query] = True
    membership[positives] = True
    return QueryExample(query=query, positives=positives,
                        negatives=negatives, membership=membership)


def _task(graph, shots=2, use_structural=False) -> Task:
    support = [_example(5 + 7 * s) for s in range(shots)]
    return Task(graph, support, [_example(40)], name="shard-parity",
                use_attributes=True, use_structural=use_structural)


def _model(conv="gcn", aggregator="sum", seed=3) -> CGNP:
    model = CGNP(D, CGNPConfig(hidden_dim=8, num_layers=2, conv=conv,
                               aggregator=aggregator, decoder="ip",
                               num_heads=1, use_attributes=True,
                               use_structural=False), make_rng(seed))
    model.eval()
    return model


def _context(model, task):
    with no_grad():
        contexts, offsets = model.context_concat([task])
    return contexts.data, offsets


def _assert_context_parity(model, dense_graph, sharded_graph, shots=2,
                           use_structural=False):
    dense, off_d = _context(model, _task(dense_graph, shots,
                                         use_structural))
    sharded, off_s = _context(model, _task(sharded_graph, shots,
                                           use_structural))
    assert np.array_equal(off_d, off_s)
    assert dense.dtype == sharded.dtype
    assert np.array_equal(dense, sharded), \
        f"max gap {np.abs(dense - sharded).max()}"


class TestContextParity:
    @pytest.mark.parametrize("conv", ["gcn", "gat", "sage"])
    @pytest.mark.parametrize("num_shards", [1, 3, 7])
    def test_bitwise_vs_dense(self, tmp_path, conv, num_shards):
        with precision("float32"), fused_inference(False):
            dense, sharded = _graph_pair(tmp_path, num_shards)
            _assert_context_parity(_model(conv), dense, sharded)

    @pytest.mark.parametrize("index_dtype", ["int32", "int64"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtype_matrix(self, tmp_path, dtype, index_dtype):
        with precision(dtype), index_precision(index_dtype), \
                fused_inference(False):
            dense, sharded = _graph_pair(tmp_path, num_shards=4)
            _assert_context_parity(_model("gcn"), dense, sharded)

    def test_mean_aggregator(self, tmp_path):
        with precision("float32"), fused_inference(False):
            dense, sharded = _graph_pair(tmp_path, num_shards=3)
            _assert_context_parity(_model("gcn", aggregator="mean"),
                                   dense, sharded)

    def test_structural_features_fallback(self, tmp_path):
        """With structural features on, the support fill falls back to
        the dense feature builder — still bitwise, just not streaming."""
        with precision("float32"), fused_inference(False):
            rng = make_rng(0)
            edges = rng.integers(0, N, size=(N * 3, 2))
            attrs = rng.standard_normal((N, D))
            dense = Graph(N, edges, attributes=attrs)
            sharded = ShardedGraph(N, edges, attributes=attrs, num_shards=3)
            in_dim = _task(dense, use_structural=True).features(
                True, True).shape[1]
            model = CGNP(in_dim, CGNPConfig(
                hidden_dim=8, num_layers=2, conv="gcn", aggregator="sum",
                decoder="ip", use_attributes=True, use_structural=True),
                make_rng(3))
            model.eval()
            _assert_context_parity(model, dense, sharded,
                                   use_structural=True)

    @pytest.mark.parametrize("conv", ["gcn", "gat", "sage"])
    def test_bitwise_with_sparse_features(self, tmp_path, conv):
        """Mostly-zero attributes take the CSR layer-0 product on both
        paths: the CSR copy of the memmap must give the dense path's
        bits."""
        with precision("float64"), fused_inference(False):
            dense, sharded = _graph_pair(tmp_path, num_shards=3, sparse=True)
            _assert_context_parity(_model(conv), dense, sharded, shots=3)

    def test_storage_wider_than_model(self, tmp_path):
        """Features stored at float64 feed a float32 model through a
        float32 arena copy, with the dense path's bits."""
        with precision("float64"):
            dense, sharded = _graph_pair(tmp_path, num_shards=3)
        with precision("float32"), fused_inference(False):
            _assert_context_parity(_model("sage"), dense, sharded)
        assert sharded.attributes.dtype == np.float64
        assert any(key.startswith("enc.x.") for key in sharded._buffers)

    def test_requires_eval_mode(self, tmp_path):
        with precision("float32"):
            _, sharded = _graph_pair(tmp_path, num_shards=2)
            model = _model("gcn")
            model.train()
            with pytest.raises(RuntimeError):
                model.encoder.encode_sharded(sharded, None)

    def test_stale_shard_op_never_survives_mutation(self, tmp_path):
        """Regression: mutate features through set_attributes, re-encode,
        and compare against a *fresh* dense graph built from the mutated
        matrix — a stale cached shard operator would break parity."""
        with precision("float32"), fused_inference(False):
            dense, sharded = _graph_pair(tmp_path, num_shards=3)
            model = _model("gcn")
            _assert_context_parity(model, dense, sharded)  # warm caches
            mutated = make_rng(77).standard_normal((N, D))
            sharded.set_attributes(mutated)
            rng = make_rng(0)
            edges = rng.integers(0, N, size=(N * 3, 2))
            fresh_dense = Graph(N, edges, attributes=mutated)
            _assert_context_parity(model, fresh_dense, sharded)


class TestEngineServing:
    def test_one_shot_serve_parity_under_default_fusion(self, tmp_path):
        """predict_proba answers are bitwise identical dense vs sharded
        with the default (fused) serving configuration at 1 shot."""
        with precision("float32"):
            dense, sharded = _graph_pair(tmp_path, num_shards=4)
            model = _model("gcn")
            dense_engine = CommunitySearchEngine(model).attach(
                _task(dense, shots=1))
            shard_engine = CommunitySearchEngine(model).attach(
                _task(sharded, shots=1))
            rng = make_rng(11)
            for _ in range(4):
                nodes = rng.integers(0, N, size=3)
                assert np.array_equal(dense_engine.predict_proba(nodes),
                                      shard_engine.predict_proba(nodes))

    def test_stats_gauges(self, tmp_path):
        with precision("float32"):
            dense, sharded = _graph_pair(tmp_path, num_shards=4)
            model = _model("gcn")
            engine = CommunitySearchEngine(model)
            assert engine.stats().shard_count == 0  # nothing attached

            engine.attach(_task(dense, shots=1))
            stats = engine.stats()
            assert stats.shard_count == 1
            dense_resident = stats.graph_resident_bytes
            assert dense_resident > 0

            engine.attach(_task(sharded, shots=1))
            stats = engine.stats()
            assert stats.shard_count == 4
            assert 0 < stats.graph_resident_bytes

    def test_attach_many_all_sharded(self, tmp_path):
        with precision("float32"):
            _, first = _graph_pair(tmp_path / "a", num_shards=2)
            _, second = _graph_pair(tmp_path / "b", num_shards=3, seed=1)
            model = _model("gcn")
            engine = CommunitySearchEngine(model)
            tasks = [_task(first, shots=1), _task(second, shots=1)]
            engine.attach_many(tasks)
            probs = engine.predict_proba([2, 4], tasks[1])
            assert probs.shape == (2, N)

    def test_metrics_text_exports_gauges(self, tmp_path):
        from repro.serve.stats import ServeStats
        with precision("float32"):
            _, sharded = _graph_pair(tmp_path, num_shards=4)
            engine = CommunitySearchEngine(_model("gcn")).attach(
                _task(sharded, shots=1))
            text = ServeStats().with_engine(engine.stats()).metrics_text()
        assert "repro_engine_graph_resident_bytes" in text
        assert "repro_engine_shard_count 4" in text
