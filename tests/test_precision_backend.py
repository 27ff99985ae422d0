"""Tests for the precision policy + pluggable array backend.

Covers the `repro.nn.backend` surface itself, its threading through the
tensor/sparse/graph/model layers, dtype-keyed operator caches, bundle
dtype round-trips and the engine's serving-precision controls.

This module intentionally does NOT appear in conftest's float64-pinned
set: every assertion here either names its dtype explicitly or checks
policy-following behaviour, so the suite is meaningful under both
``REPRO_DTYPE`` matrix entries.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import CommunitySearchEngine, ModelBundle
from repro.api.bundle import BUNDLE_HEADER_KEY
from repro.core import CGNP, CGNPConfig, MetaTrainConfig, meta_train
from repro.eval.metrics import community_metrics
from repro.gnn.conv import GRAPH_OPS_KEY, graph_ops
from repro.graph import Graph, attributed_community_graph
from repro.nn import Adam, Linear, Tensor
from repro.nn.backend import (
    ArrayBackend,
    NumpyBackend,
    Precision,
    default_dtype,
    get_backend,
    precision,
    resolve_dtype,
    set_backend,
    use_backend,
)
from repro.nn.serialize import save_state
from repro.nn.sparse import normalized_adjacency, row_normalized_adjacency, spmm
from repro.tasks import TaskSampler
from repro.utils import make_rng


def _sample_task(seed: int = 0, name: str = "t"):
    graph = attributed_community_graph(
        num_nodes=60, num_communities=3, avg_degree=6.0, mixing=0.15,
        num_attributes=12, rng=make_rng(seed), name=f"{name}-graph")
    sampler = TaskSampler(graph, subgraph_nodes=40, num_support=2,
                          num_query=3, num_positive=3, num_negative=6)
    return sampler.sample_task(make_rng(seed + 1))


class TestPrecisionPolicy:
    def test_precision_context_nests_and_restores(self):
        base = default_dtype()
        with precision("float32"):
            assert default_dtype() == np.dtype(np.float32)
            with precision("float64"):
                assert default_dtype() == np.dtype(np.float64)
            assert default_dtype() == np.dtype(np.float32)
        assert default_dtype() == base

    def test_resolve_dtype_prefers_explicit(self):
        with precision("float32"):
            assert resolve_dtype() == np.dtype(np.float32)
            assert resolve_dtype("float64") == np.dtype(np.float64)
            assert resolve_dtype(Precision("float64")) == np.dtype(np.float64)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported precision"):
            Precision("float16")
        with pytest.raises(ValueError, match="unsupported precision"):
            with precision("int64"):
                pass  # pragma: no cover

    def test_precision_equality(self):
        assert Precision("float32") == Precision(np.float32)
        assert Precision("float32") == "float32"
        assert Precision("float32") != Precision("float64")


class TestTensorDtype:
    def test_integers_promote_to_policy_dtype(self):
        with precision("float32"):
            assert Tensor([1, 2, 3]).dtype == np.float32
        with precision("float64"):
            assert Tensor([1, 2, 3]).dtype == np.float64

    def test_floating_arrays_keep_their_dtype(self):
        with precision("float32"):
            assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_explicit_dtype_wins(self):
        t = Tensor(np.zeros(3, dtype=np.float64), dtype="float32")
        assert t.dtype == np.float32

    def test_astype_is_differentiable(self):
        x = Tensor(np.ones(4, dtype=np.float64), requires_grad=True)
        y = (x.astype("float32") * 3.0).sum()
        y.backward()
        assert x.grad.dtype == np.float64
        np.testing.assert_allclose(x.grad, 3.0)

    def test_astype_same_dtype_is_identity(self):
        x = Tensor(np.ones(2, dtype=np.float32))
        assert x.astype("float32") is x

    def test_scalar_operands_adopt_operand_dtype(self):
        """Python-scalar arithmetic must not upcast a float32 tensor to
        the ambient (float64) policy — the float32-serving-in-a-float64-
        process case."""
        with precision("float64"):
            x = Tensor(np.ones(3, dtype=np.float32))
            for result in (x + 1e-16, 1.0 - x, x * 0.5, x / 3.0, 2.0 / x,
                           x - 1.0):
                assert result.dtype == np.float32


class TestLayersAndOptimDtype:
    def test_linear_parameters_follow_policy(self):
        with precision("float32"):
            layer = Linear(4, 3, make_rng(0))
        assert layer.weight.dtype == np.float32
        assert layer.bias.dtype == np.float32

    def test_adam_step_preserves_float32(self):
        with precision("float32"):
            layer = Linear(4, 1, make_rng(0))
            optimizer = Adam(layer.parameters(), lr=1e-2)
            out = layer(Tensor(np.ones((2, 4), dtype=np.float32))).sum()
            out.backward()
            optimizer.step()
        assert all(p.dtype == np.float32 for p in layer.parameters())
        assert all(p.grad.dtype == np.float32 for p in layer.parameters())

    def test_same_seed_init_matches_across_dtypes(self):
        """The init draw happens at full width, so float32 weights are the
        cast of the float64 weights — not a different random stream."""
        with precision("float64"):
            w64 = Linear(6, 5, make_rng(7)).weight.data
        with precision("float32"):
            w32 = Linear(6, 5, make_rng(7)).weight.data
        np.testing.assert_allclose(w32, w64.astype(np.float32))


class TestSparseOperators:
    def _line_graph_adj(self, dtype=np.float64):
        return sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                                      dtype=dtype))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_normalized_adjacency_dtype(self, dtype):
        norm = normalized_adjacency(self._line_graph_adj(), dtype=dtype)
        assert norm.dtype == np.dtype(dtype)
        assert row_normalized_adjacency(self._line_graph_adj(),
                                        dtype=dtype).dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_isolated_node_rows_stay_zero(self, dtype):
        """Regression: isolated nodes yield zero rows (never NaN) at both
        element widths, with and without the self-loop path."""
        adj = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                                     dtype=np.float64))
        no_loops = normalized_adjacency(adj, add_self_loops=False, dtype=dtype)
        np.testing.assert_array_equal(no_loops.toarray()[2], 0.0)
        row_norm = row_normalized_adjacency(adj, dtype=dtype)
        np.testing.assert_array_equal(row_norm.toarray()[2], 0.0)
        assert np.all(np.isfinite(no_loops.toarray()))
        assert np.all(np.isfinite(row_norm.toarray()))

    def test_self_loop_add_skipped_when_diagonal_present(self):
        """`A + I` is skipped (no copy, same nnz) when every diagonal entry
        already exists."""
        base = self._line_graph_adj() + sp.eye(3, format="csr")
        norm = normalized_adjacency(base, add_self_loops=True, dtype="float64")
        reference = normalized_adjacency(self._line_graph_adj(),
                                         add_self_loops=True, dtype="float64")
        np.testing.assert_allclose(norm.toarray(), reference.toarray())
        assert norm.nnz == reference.nnz

    def test_spmm_requires_csr(self):
        matrix = self._line_graph_adj().tocsc()
        with pytest.raises(TypeError, match="CSR"):
            spmm(matrix, Tensor(np.ones((3, 2))))

    def test_spmm_uses_cached_transpose_for_backward(self):
        rng = make_rng(5)
        matrix = sp.csr_matrix((rng.random((4, 4)) < 0.5).astype(np.float64))
        matrix_t = matrix.T.tocsr()
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = spmm(matrix, x, matrix_t)
        upstream = rng.normal(size=(4, 3))
        out.backward(upstream)
        np.testing.assert_allclose(x.grad, matrix.toarray().T @ upstream)


class TestDtypeKeyedOpsCache:
    def _graph(self, seed=11):
        rng = make_rng(seed)
        edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)]
        return Graph(num_nodes=8, edges=np.asarray(edges))

    def test_dtype_variants_cached_side_by_side(self):
        g = self._graph()
        ops32 = graph_ops(g, "float32")
        ops64 = graph_ops(g, "float64")
        assert ops32 is not ops64
        assert ops32.norm_adj.dtype == np.float32
        assert ops64.norm_adj.dtype == np.float64
        # Each variant is memoised independently.
        assert graph_ops(g, "float32") is ops32
        assert graph_ops(g, "float64") is ops64

    def test_family_invalidation_drops_all_dtype_variants(self):
        g = self._graph()
        ops32 = graph_ops(g, "float32")
        ops64 = graph_ops(g, "float64")
        g.invalidate_cached_ops(GRAPH_OPS_KEY)
        assert graph_ops(g, "float32") is not ops32
        assert graph_ops(g, "float64") is not ops64

    def test_default_dtype_follows_policy(self):
        g = self._graph()
        with precision("float32"):
            assert graph_ops(g).norm_adj.dtype == np.float32
        with precision("float64"):
            assert graph_ops(g).norm_adj.dtype == np.float64

    def test_transposed_operators(self):
        g = self._graph()
        ops = graph_ops(g, "float64")
        # The symmetric normalisation aliases its own transpose.
        assert ops.norm_adj_t is ops.norm_adj
        np.testing.assert_allclose(ops.row_norm_adj_t.toarray(),
                                   ops.row_norm_adj.toarray().T)
        assert ops.row_norm_adj_t.format == "csr"


class TestFloat32EndToEnd:
    def test_float32_training_stays_float32(self):
        with precision("float32"):
            task = _sample_task(seed=21)
            model = CGNP(task.features().shape[1],
                         CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                                    decoder="ip"), make_rng(0))
            assert model.dtype == np.float32
            state = meta_train(model, [task], MetaTrainConfig(epochs=2),
                               make_rng(1))
        assert all(p.dtype == np.float32 for p in model.parameters())
        assert np.isfinite(state.epoch_losses[-1])

    def test_float32_predictions_close_to_float64(self):
        task = _sample_task(seed=22)
        config = CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                            decoder="ip")
        with precision("float64"):
            model64 = CGNP(task.features().shape[1], config, make_rng(4))
        with precision("float32"):
            model32 = CGNP(task.features().shape[1], config, make_rng(4))
        query = task.queries[0].query
        p64 = model64.predict_proba(task, query)
        p32 = model32.predict_proba(task, query)
        assert p32.dtype == np.float32
        np.testing.assert_allclose(p32, p64, atol=1e-3)

    def test_float32_gat_model_stays_float32_under_float64_ambient(self):
        """A float32-built GAT model (the CGNP default conv) must compute
        float32 contexts and logits even when the ambient policy is
        float64 — the exact contract of from_bundle(dtype="float32")."""
        with precision("float64"):
            task = _sample_task(seed=24)
            with precision("float32"):
                model = CGNP(task.features().shape[1],
                             CGNPConfig(hidden_dim=8, num_layers=2,
                                        conv="gat", decoder="ip"),
                             make_rng(0))
            model.eval()
            context = model.context(task)
            assert context.dtype == np.float32
            probabilities = model.predict_proba(task, task.queries[0].query)
            assert probabilities.dtype == np.float32

    def test_edgeless_graph_follows_policy(self):
        with precision("float32"):
            graph = Graph(num_nodes=4, edges=np.zeros((0, 2), dtype=np.int64))
        assert graph.adjacency.dtype == np.float32

    def test_to_dtype_casts_model_in_place(self):
        task = _sample_task(seed=23)
        model = CGNP(task.features().shape[1],
                     CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                                decoder="ip"), make_rng(0))
        model.to_dtype("float32")
        assert model.dtype == np.float32
        assert all(p.dtype == np.float32 for p in model.parameters())
        assert model.predict_proba(task, task.queries[0].query).dtype == np.float32


class TestBundleDtypeRoundTrip:
    def _model(self, task, dtype):
        with precision(dtype):
            return CGNP(task.features().shape[1],
                        CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                                   decoder="ip"), make_rng(2))

    def test_float32_bundle_round_trip(self, tmp_path):
        task = _sample_task(seed=31)
        model = self._model(task, "float32")
        path = str(tmp_path / "f32.npz")
        ModelBundle.from_model(model).save(path)
        restored = ModelBundle.load(path)
        assert restored.dtype == "float32"
        rebuilt = restored.build_model()
        assert rebuilt.dtype == np.float32
        assert all(p.dtype == np.float32 for p in rebuilt.parameters())
        query = task.queries[0].query
        np.testing.assert_allclose(rebuilt.predict_proba(task, query),
                                   model.predict_proba(task, query))

    def test_header_without_dtype_defaults_to_float64(self, tmp_path):
        """Bundles written before the precision refactor load as float64."""
        import json
        task = _sample_task(seed=32)
        model = self._model(task, "float64")
        bundle = ModelBundle.from_model(model)
        header = bundle.header()
        del header["dtype"]  # simulate a pre-refactor header
        payload = dict(bundle.state)
        payload[BUNDLE_HEADER_KEY] = np.asarray(json.dumps(header))
        path = str(tmp_path / "legacy-header.npz")
        save_state(payload, path)
        restored = ModelBundle.load(path)
        assert restored.dtype == "float64"
        assert restored.build_model().dtype == np.float64

    def test_invalid_header_dtype_rejected_at_load(self, tmp_path):
        """A corrupt dtype field fails at load time (which CLIs handle),
        not deep inside model construction."""
        import json
        task = _sample_task(seed=35)
        model = self._model(task, "float64")
        bundle = ModelBundle.from_model(model)
        header = bundle.header()
        header["dtype"] = "float16"
        payload = dict(bundle.state)
        payload[BUNDLE_HEADER_KEY] = np.asarray(json.dumps(header))
        path = str(tmp_path / "bad-dtype.npz")
        save_state(payload, path)
        with pytest.raises(ValueError, match="invalid dtype"):
            ModelBundle.load(path)

    def test_weight_only_archive_defaults_to_float64(self, tmp_path):
        task = _sample_task(seed=33)
        model = self._model(task, "float64")
        path = str(tmp_path / "weights.npz")
        save_state(model.state_dict(), path)
        restored = ModelBundle.load(path)
        assert restored.is_legacy and restored.dtype == "float64"

    def test_build_model_dtype_override(self, tmp_path):
        task = _sample_task(seed=34)
        model = self._model(task, "float64")
        path = str(tmp_path / "f64.npz")
        ModelBundle.from_model(model).save(path)
        served = ModelBundle.load(path).build_model(dtype="float32")
        assert served.dtype == np.float32
        query = task.queries[0].query
        np.testing.assert_allclose(served.predict_proba(task, query),
                                   model.predict_proba(task, query), atol=1e-3)


class TestEngineServingDtype:
    def test_from_bundle_serves_at_float32(self, tmp_path):
        task = _sample_task(seed=41)
        with precision("float64"):
            model = CGNP(task.features().shape[1],
                         CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                                    decoder="ip"), make_rng(2))
        path = str(tmp_path / "serve.npz")
        ModelBundle.from_model(model).save(path)
        engine = CommunitySearchEngine.from_bundle(path, dtype="float32")
        assert engine.dtype == np.float32
        engine.attach(task)
        members = engine.query(task.queries[0].query)
        assert task.queries[0].query in members.tolist()

    @staticmethod
    def _ranking_auc(scores, labels):
        """Mann–Whitney AUC of ``scores`` against a boolean mask."""
        labels = np.asarray(labels, dtype=bool)
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        if n_pos == 0 or n_neg == 0:
            return float("nan")
        ranks = np.empty(scores.size)
        ranks[np.argsort(scores, kind="mergesort")] = np.arange(1, scores.size + 1)
        return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0)
                     / (n_pos * n_neg))

    def test_trained_bundle_metrics_agree_across_serving_dtypes(self, tmp_path):
        """A meta-trained float64 bundle served at float32 must keep the
        float64 eval metrics: per-query F1 and ranking AUC within 1e-3."""
        with precision("float64"):
            tasks = [_sample_task(seed=50 + 2 * i, name=f"train{i}")
                     for i in range(4)]
            test_task = _sample_task(seed=60, name="test")
            model = CGNP(tasks[0].features().shape[1],
                         CGNPConfig(hidden_dim=16, num_layers=2, conv="gcn",
                                    decoder="ip"), make_rng(5))
            state = meta_train(model, tasks,
                               MetaTrainConfig(epochs=3, learning_rate=5e-3),
                               make_rng(6))
        assert state.epoch_losses[-1] < state.epoch_losses[0]
        path = str(tmp_path / "trained.npz")
        ModelBundle.from_model(model).save(path)

        queries = [example.query for example in test_task.queries]
        per_dtype = {}
        for dtype in ("float32", "float64"):
            engine = CommunitySearchEngine.from_bundle(path, dtype=dtype)
            engine.attach(test_task)
            probabilities = engine.predict_proba(queries)
            aucs, f1s = [], []
            for row, example in zip(probabilities, test_task.queries):
                keep = np.ones(test_task.graph.num_nodes, dtype=bool)
                keep[example.query] = False
                aucs.append(self._ranking_auc(row[keep],
                                              example.membership[keep]))
                members = np.flatnonzero(row >= 0.5)
                f1s.append(community_metrics(members, example.membership,
                                             example.query).f1)
            per_dtype[dtype] = (probabilities, np.asarray(aucs),
                                np.asarray(f1s))
        (p32, auc32, f1_32), (p64, auc64, f1_64) = (per_dtype["float32"],
                                                   per_dtype["float64"])
        assert p32.dtype == np.float32 and p64.dtype == np.float64
        np.testing.assert_allclose(p32, p64, atol=1e-3)
        assert np.nanmax(np.abs(auc32 - auc64)) <= 1e-3
        assert np.max(np.abs(f1_32 - f1_64)) <= 1e-3

    def test_attach_many_rejects_mixed_feature_dtypes(self):
        with precision("float32"):
            task32 = _sample_task(seed=42, name="f32")
        with precision("float64"):
            task64 = _sample_task(seed=43, name="f64")
            model = CGNP(task64.features().shape[1],
                         CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                                    decoder="ip"), make_rng(2))
        engine = CommunitySearchEngine(model)
        with pytest.raises(ValueError, match="mixed feature dtypes"):
            engine.attach_many([task32, task64])
        # Uniform-precision batches still bulk-attach fine.
        engine.attach_many([task64])


class TestArrayBackend:
    def test_default_backend_is_numpy(self):
        assert type(get_backend()) is NumpyBackend
        assert get_backend().name == "numpy"

    def test_backend_creation_helpers_follow_policy(self):
        xp = get_backend()
        with precision("float32"):
            assert xp.zeros((2, 2)).dtype == np.float32
            assert xp.ones(3).dtype == np.float32
            assert xp.full((2,), 7.0).dtype == np.float32
            assert xp.asarray([1, 2]).dtype == np.float32

    def test_to_operator_avoids_needless_copies(self):
        xp = get_backend()
        csr = sp.csr_matrix(np.eye(3))
        already_canonical = xp.to_operator(csr, dtype="float64",
                                           index_dtype=csr.indices.dtype)
        assert already_canonical is csr
        converted = xp.to_operator(csr, dtype="float32")
        assert converted.dtype == np.float32
        # Recasting only the structure arrays shares the data array.
        other_width = (np.int64 if csr.indices.dtype == np.int32
                       else np.int32)
        recast = xp.to_operator(csr, dtype="float64",
                                index_dtype=other_width)
        assert recast.indices.dtype == other_width
        assert recast.data is csr.data

    def test_use_backend_routes_kernels(self):
        class CountingBackend(NumpyBackend):
            name = "counting"

            def __init__(self):
                self.matmuls = 0
                self.spmms = 0

            def matmul(self, a, b):
                self.matmuls += 1
                return super().matmul(a, b)

            def spmm(self, matrix, dense):
                self.spmms += 1
                return super().spmm(matrix, dense)

        counting = CountingBackend()
        matrix = sp.csr_matrix(np.eye(3))
        with use_backend(counting):
            Tensor(np.ones((3, 3))).matmul(Tensor(np.ones((3, 2))))
            spmm(matrix, Tensor(np.ones((3, 2))))
        assert counting.matmuls == 1
        assert counting.spmms == 1
        assert isinstance(get_backend(), NumpyBackend)

    def test_set_backend_type_checked(self):
        # Only ArrayBackend instances install; names are not looked up.
        for bad in (42, "numpy"):
            with pytest.raises(TypeError, match="ArrayBackend instance"):
                set_backend(bad)
            with pytest.raises(TypeError, match="ArrayBackend instance"):
                with use_backend(bad):
                    pass
        assert type(get_backend()) is NumpyBackend

    def test_backend_rng_seeded(self):
        xp = get_backend()
        a = xp.rng(9).normal(size=4)
        b = xp.rng(9).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_process_defaults_visible_across_threads(self):
        """set_default_dtype/set_backend are process-wide: worker threads
        must see them, while scoped precision()/use_backend() overrides
        stay per-thread."""
        import threading

        from repro.nn.backend import set_default_dtype

        class NamedBackend(NumpyBackend):
            name = "named"

        seen = {}

        def worker():
            seen["dtype"] = default_dtype()
            seen["backend"] = get_backend().name

        original_dtype = default_dtype()
        try:
            set_default_dtype("float32")
            set_backend(NamedBackend())
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        finally:
            set_default_dtype(original_dtype)
            set_backend(NumpyBackend())
        assert seen["dtype"] == np.dtype(np.float32)
        assert seen["backend"] == "named"

    def test_scoped_overrides_stay_per_thread(self):
        import threading

        process_default = default_dtype()
        opposite = ("float32" if process_default == np.dtype(np.float64)
                    else "float64")
        seen = {}

        def worker():
            seen["dtype"] = default_dtype()

        with precision(opposite):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker saw the process default, not this thread's override.
        assert seen["dtype"] == process_default
