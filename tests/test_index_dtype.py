"""Index-dtype policy: int32 end-to-end, int64 opt-in, exact parity.

The index policy changes the width of bookkeeping arrays (edge lists,
CSR ``indices``/``indptr``, gather/scatter/segment indices) and nothing
else — so every numeric output must be *bit-stable* across index widths,
operator caches must keep the widths apart, and bundles written before
the policy existed must still load.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CGNP, CGNPConfig, task_batch_loss, task_loss
from repro.graph import GraphBatch, attributed_community_graph, stack_csr
from repro.gnn.conv import GRAPH_OPS_KEY, graph_ops
from repro.nn.backend import (SUPPORTED_INDEX_DTYPES, default_index_dtype,
                              index_precision, resolve_index_dtype)
from repro.tasks import TaskSampler
from repro.utils import make_rng


@pytest.fixture(autouse=True)
def _pin_int32_policy():
    """Pin the ambient index policy to its int32 default for this module.

    The CI matrix flips the process default with ``REPRO_INDEX_DTYPE=int64``;
    these tests assert *explicit-width* behaviour (what int32 structure
    looks like, how the widths coexist), so they pin the scope instead of
    assuming the process default.  The process-default plumbing itself is
    covered by ``TestPolicy``.
    """
    with index_precision("int32"):
        yield


def make_graph(seed: int = 7, num_nodes: int = 80):
    return attributed_community_graph(
        num_nodes=num_nodes, num_communities=3, avg_degree=6.0, mixing=0.15,
        num_attributes=12, rng=make_rng(seed), name=f"idx-fixture-{seed}")


class TestPolicy:
    def test_ambient_default_is_int32(self):
        assert default_index_dtype() == np.int32
        assert resolve_index_dtype() == np.int32

    def test_process_default_follows_env(self):
        import os
        import threading

        # Scoped overrides (including this module's pin) are per-thread,
        # so a fresh thread sees the raw process default: REPRO_INDEX_DTYPE
        # or int32.
        seen = {}
        worker = threading.Thread(
            target=lambda: seen.update(dtype=default_index_dtype()))
        worker.start()
        worker.join()
        expected = os.environ.get("REPRO_INDEX_DTYPE", "int32")
        assert seen["dtype"] == np.dtype(expected)

    def test_supported_widths(self):
        assert SUPPORTED_INDEX_DTYPES == ("int32", "int64")
        with pytest.raises(ValueError):
            resolve_index_dtype("int16")
        with pytest.raises(ValueError):
            resolve_index_dtype("uint32")

    def test_scoped_override_nests_and_restores(self):
        assert resolve_index_dtype() == np.int32
        with index_precision("int64"):
            assert resolve_index_dtype() == np.int64
            with index_precision("int32"):
                assert resolve_index_dtype() == np.int32
            assert resolve_index_dtype() == np.int64
        assert resolve_index_dtype() == np.int32

    def test_env_default_validated(self, monkeypatch):
        from repro.nn.backend import _index_dtype_from_env

        monkeypatch.setenv("REPRO_INDEX_DTYPE", "int64")
        assert _index_dtype_from_env() == np.int64
        monkeypatch.setenv("REPRO_INDEX_DTYPE", "int7")
        with pytest.raises(ValueError, match="REPRO_INDEX_DTYPE"):
            _index_dtype_from_env()


class TestGraphStructure:
    def test_graph_structure_is_policy_width(self):
        graph = make_graph()
        assert graph.edges.dtype == np.int32
        assert graph.adjacency.indices.dtype == np.int32
        assert graph.adjacency.indptr.dtype == np.int32
        src, dst = graph.directed_edges()
        assert src.dtype == np.int32 and dst.dtype == np.int32

    def test_int64_graph_under_scoped_policy(self):
        with index_precision("int64"):
            graph = make_graph(seed=11)
        assert graph.edges.dtype == np.int64
        assert graph.adjacency.indices.dtype == np.int64

    def test_stack_csr_keeps_int32(self):
        graphs = [make_graph(seed=s, num_nodes=n)
                  for s, n in ((1, 40), (2, 64), (3, 25))]
        stacked = stack_csr([g.adjacency for g in graphs])
        assert stacked.indices.dtype == np.int32
        assert stacked.indptr.dtype == np.int32
        dense = sp.block_diag([g.adjacency for g in graphs],
                              format="csr").toarray()
        np.testing.assert_array_equal(stacked.toarray(), dense)

    def test_batch_bookkeeping_is_policy_width(self):
        batch = GraphBatch([make_graph(seed=1, num_nodes=30),
                            make_graph(seed=2, num_nodes=45)])
        assert batch.sizes.dtype == np.int32
        assert batch.offsets.dtype == np.int32
        assert batch.node_graph_index.dtype == np.int32
        src, dst = batch.directed_edges()
        assert src.dtype == np.int32 and dst.dtype == np.int32
        assert batch.adjacency.indices.dtype == np.int32


class TestOperatorCache:
    def test_cache_keys_do_not_collide(self):
        graph = make_graph()
        ops32 = graph_ops(graph, "float64", "int32")
        ops64 = graph_ops(graph, "float64", "int64")
        assert ops32 is not ops64
        assert ops32.norm_adj.indices.dtype == np.int32
        assert ops64.norm_adj.indices.dtype == np.int64
        assert ops32.edge_src.dtype == np.int32
        assert ops64.edge_src.dtype == np.int64
        cache = graph.__dict__["_ops_cache"]
        assert f"{GRAPH_OPS_KEY}.float64.int32" in cache
        assert f"{GRAPH_OPS_KEY}.float64.int64" in cache
        # Memoisation returns the same object per (elem, index) pair.
        assert graph_ops(graph, "float64", "int32") is ops32

    def test_operator_values_equal_across_widths(self):
        graph = make_graph()
        ops32 = graph_ops(graph, "float64", "int32")
        ops64 = graph_ops(graph, "float64", "int64")
        np.testing.assert_array_equal(ops32.norm_adj.toarray(),
                                      ops64.norm_adj.toarray())
        np.testing.assert_array_equal(ops32.row_norm_adj_t.toarray(),
                                      ops64.row_norm_adj_t.toarray())
        np.testing.assert_array_equal(ops32.edge_src, ops64.edge_src)

    def test_batch_ops_honor_explicit_width_against_ambient(self):
        # The composed batch operators must match the *requested* width
        # even when the ambient policy differs — otherwise the cache key
        # would label an int64 operator as int32.
        batch = GraphBatch([make_graph(seed=4, num_nodes=30),
                            make_graph(seed=5, num_nodes=40)])
        with index_precision("int64"):
            ops = graph_ops(batch, "float64", "int32")
        assert ops.index_dtype == np.int32
        assert ops.norm_adj.indices.dtype == np.int32
        assert ops.norm_adj.indptr.dtype == np.int32
        assert ops.row_norm_adj_t.indptr.dtype == np.int32
        assert ops.edge_src.dtype == np.int32

    def test_family_invalidation_drops_every_width(self):
        graph = make_graph()
        graph_ops(graph, "float64", "int32")
        graph_ops(graph, "float64", "int64")
        graph_ops(graph, "float32", "int32")
        graph.invalidate_cached_ops(f"{GRAPH_OPS_KEY}.float64")
        cache = graph.__dict__["_ops_cache"]
        assert f"{GRAPH_OPS_KEY}.float64.int32" not in cache
        assert f"{GRAPH_OPS_KEY}.float64.int64" not in cache
        assert f"{GRAPH_OPS_KEY}.float32.int32" in cache
        graph.invalidate_cached_ops(GRAPH_OPS_KEY)
        assert not any(k.startswith(GRAPH_OPS_KEY) for k in cache)


def _loss_and_grads(model, tasks, batched: bool):
    for parameter in model.parameters():
        parameter.zero_grad()
    loss = (task_batch_loss(model, tasks) if batched
            else sum(task_loss(model, t) for t in tasks) * (1.0 / len(tasks)))
    loss.backward()
    return (loss.data.copy(),
            [None if p.grad is None else p.grad.copy()
             for p in model.parameters()])


class TestNumericParity:
    """Outputs and gradients must be *bitwise* stable across index widths."""

    @pytest.mark.parametrize("conv", ["gcn", "gat", "sage"])
    def test_loss_and_grads_bit_stable(self, conv):
        graph = make_graph(seed=21, num_nodes=70)
        sampler = TaskSampler(graph, subgraph_nodes=40, num_support=2,
                              num_query=3)
        tasks = sampler.sample_tasks(3, make_rng(5))
        model = CGNP(tasks[0].features().shape[1],
                     CGNPConfig(hidden_dim=12, num_layers=2, conv=conv),
                     make_rng(9))
        model.eval()  # no dropout: forwards must match exactly

        with index_precision("int32"):
            loss32, grads32 = _loss_and_grads(model, tasks, batched=True)
        with index_precision("int64"):
            loss64, grads64 = _loss_and_grads(model, tasks, batched=True)
        np.testing.assert_array_equal(loss32, loss64)
        for g32, g64 in zip(grads32, grads64):
            np.testing.assert_array_equal(g32, g64)

    def test_batched_matches_reference_under_both_widths(self):
        graph = make_graph(seed=31, num_nodes=90)
        sampler = TaskSampler(graph, subgraph_nodes=35, num_support=2,
                              num_query=3)
        tasks = sampler.sample_tasks(3, make_rng(2))
        model = CGNP(tasks[0].features().shape[1],
                     CGNPConfig(hidden_dim=10, num_layers=2, conv="gcn"),
                     make_rng(3))
        model.eval()
        for width in SUPPORTED_INDEX_DTYPES:
            with index_precision(width):
                batched_loss, batched_grads = _loss_and_grads(
                    model, tasks, batched=True)
                loop_loss, loop_grads = _loss_and_grads(
                    model, tasks, batched=False)
            np.testing.assert_allclose(batched_loss, loop_loss,
                                       rtol=0, atol=1e-9)
            for gb, gl in zip(batched_grads, loop_grads):
                np.testing.assert_allclose(gb, gl, rtol=0, atol=1e-9)


class TestBundleProvenance:
    def test_from_model_records_active_policies(self):
        from repro.api import ModelBundle
        from repro.nn.backend import get_backend

        model = CGNP(4, CGNPConfig(hidden_dim=6, num_layers=1, conv="gcn"),
                     make_rng(0))
        bundle = ModelBundle.from_model(model)
        assert bundle.index_dtype == "int32"
        assert bundle.backend == get_backend().name
        with index_precision("int64"):
            assert ModelBundle.from_model(model).index_dtype == "int64"

    def test_round_trip_and_legacy_defaults(self, tmp_path):
        from repro.api import ModelBundle
        from repro.nn.serialize import save_state

        model = CGNP(4, CGNPConfig(hidden_dim=6, num_layers=1, conv="gcn"),
                     make_rng(0))
        from repro.nn.backend import get_backend

        path = str(tmp_path / "bundle.npz")
        ModelBundle.from_model(model).save(path)
        loaded = ModelBundle.load(path)
        assert loaded.index_dtype == "int32"
        assert loaded.backend == get_backend().name
        assert "index_dtype" in loaded.header()

        # A weight-only archive (the pre-bundle format) still loads, with
        # the historical defaults.
        legacy_path = str(tmp_path / "legacy.npz")
        save_state(model.state_dict(), legacy_path)
        legacy = ModelBundle.load(legacy_path)
        assert legacy.is_legacy
        assert legacy.dtype == "float64"
        assert legacy.index_dtype == "int64"
        assert legacy.backend == "numpy"

    def test_validate_queries_reports_ids_beyond_int32(self):
        # A query id past the int32 range must surface as the documented
        # out-of-range ValueError, not as an OverflowError from the
        # narrow policy cast (numpy 2.x raises on out-of-bounds ints).
        from repro.core.infer import validate_queries

        graph = make_graph(seed=41, num_nodes=30)
        with pytest.raises(ValueError, match="out of range"):
            validate_queries(graph, [2 ** 40])
        assert validate_queries(graph, [3, 7]).dtype == np.int32

    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64",
                                       "uint8", "uint16", "uint32",
                                       "uint64"])
    def test_validate_queries_ndarray_path_matches_list_path(self, dtype):
        # Integer ndarrays skip the per-element coercion; the result
        # (dtype, values, never aliasing the input) and every rejection
        # must match the per-element path over the same ids.
        from types import SimpleNamespace

        from repro.core.infer import validate_queries

        def outcome(graph, queries):
            try:
                result = validate_queries(graph, queries)
            except ValueError as exc:
                return "ValueError", str(exc)
            assert not np.shares_memory(result, queries)
            return result.dtype, result.tolist()

        info = np.iinfo(dtype)
        graph = SimpleNamespace(num_nodes=30)
        cases = [[0, 5, 29], [], [30], [info.max]]
        if info.min < 0:
            cases.append([3, -1])
        if info.max > 2 ** 63:
            cases.append([2 ** 64 - 1])    # above int64's maximum
        for ids in cases:
            array = np.array(ids, dtype=dtype)
            assert outcome(graph, array) == outcome(graph, list(array))
        assert outcome(graph, np.array([0, 5], dtype=dtype))[0] == np.int32
        # Widening to int64 when the graph outgrows the int32 policy.
        if info.max > 2 ** 31:
            huge = SimpleNamespace(num_nodes=2 ** 31 + 10)
            array = np.array([2 ** 31 + 5], dtype=dtype)
            got = outcome(huge, array)
            assert got == outcome(huge, list(array))
            assert got == (np.int64, [2 ** 31 + 5])

    @pytest.mark.parametrize("queries", [np.array([1.0, 2.0]),
                                         np.array([True, False]),
                                         np.array([[1, 2]])])
    def test_validate_queries_rejects_non_index_arrays(self, queries):
        from repro.core.infer import validate_queries

        graph = make_graph(seed=43, num_nodes=30)
        with pytest.raises(ValueError, match="must be integers"):
            validate_queries(graph, queries)
        with pytest.raises(ValueError, match="must be integers"):
            validate_queries(graph, list(queries))

    def test_global_ids_reports_ids_beyond_int32(self):
        batch = GraphBatch([make_graph(seed=42, num_nodes=20)])
        with pytest.raises(ValueError, match="out of range"):
            batch.global_ids(0, np.asarray([2 ** 40]))

    def test_invalid_header_index_dtype_rejected(self, tmp_path):
        from repro.api import ModelBundle

        model = CGNP(4, CGNPConfig(hidden_dim=6, num_layers=1, conv="gcn"),
                     make_rng(0))
        bundle = ModelBundle.from_model(model)
        bundle.index_dtype = "int16"
        path = str(tmp_path / "bad.npz")
        bundle.save(path)
        with pytest.raises(ValueError, match="index_dtype"):
            ModelBundle.load(path)
