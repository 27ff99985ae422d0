"""Differential tests for :mod:`repro.graph.delta`.

The contract under test: after ``Graph.apply_delta`` patches the CSR
structure and repairs the cached message-passing operators in place,
every operator family is **bitwise identical** to what a cold build on a
fresh ``Graph`` holding the final edge set produces — across index
dtypes, element dtypes and shard counts.  Bitwise, not allclose:
the repair path re-derives normalisation values with the exact
cold-build expressions, and any drift would silently break the engine's
"attach once, stream forever" story.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gnn import graph_shard_ops
from repro.gnn.conv import GRAPH_OPS_KEY, graph_ops
from repro.graph import Graph, GraphDelta, ShardedGraph
from repro.graph.algorithms import (TRIANGLES_KEY,
                                    local_clustering_coefficients,
                                    triangle_counts)
from repro.graph.delta import (GRAPH_OPS_PREFIX, _splice_rows, dirty_frontier,
                               dirty_frontier_mask)
from repro.graph.features import structural_features
from repro.nn.backend import index_precision, precision, resolve_dtype, \
    resolve_index_dtype
from repro.tasks import QueryExample, Task
from repro.utils import make_rng


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def csr_equal(a, b) -> bool:
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.indices.dtype == b.indices.dtype
            and np.array_equal(a.data, b.data)
            and a.data.dtype == b.data.dtype)


def ops_equal(a, b) -> bool:
    return (csr_equal(a.norm_adj, b.norm_adj)
            and csr_equal(a.row_norm_adj, b.row_norm_adj)
            and csr_equal(a.row_norm_adj_t, b.row_norm_adj_t)
            and np.array_equal(a.edge_src, b.edge_src)
            and np.array_equal(a.edge_dst, b.edge_dst)
            and a.edge_src.dtype == b.edge_src.dtype)


def random_graph(rng: np.random.Generator, num_attributes: int = 5) -> Graph:
    n = int(rng.integers(8, 48))
    m = int(rng.integers(n, 4 * n))
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return Graph(n, edges,
                 attributes=rng.standard_normal((n, num_attributes)))


def random_delta(graph: Graph, rng: np.random.Generator,
                 allow_nodes: bool = True) -> GraphDelta:
    """A compound delta: additions, removals of live edges, optional
    appended nodes and attribute rewrites — all in one batch."""
    n = graph.num_nodes
    add = rng.integers(0, n, size=(int(rng.integers(1, 6)), 2))
    add = add[add[:, 0] != add[:, 1]]
    remove = None
    if graph.num_edges:
        picks = rng.choice(graph.num_edges,
                           size=min(3, graph.num_edges), replace=False)
        remove = graph.edges[picks]
    add_nodes = int(rng.integers(0, 3)) if allow_nodes else 0
    node_attributes = (rng.standard_normal((add_nodes,
                                            graph.num_attributes))
                       if add_nodes else None)
    update = None
    if rng.integers(0, 2):
        rows = np.unique(rng.integers(0, n, size=2))
        update = (rows,
                  rng.standard_normal((rows.size, graph.num_attributes)))
    return GraphDelta(add_edges=add if add.size else None,
                      remove_edges=remove, add_nodes=add_nodes,
                      node_attributes=node_attributes,
                      update_attributes=update)


def fresh_dense(graph: Graph) -> Graph:
    return Graph(graph.num_nodes, graph.edges,
                 attributes=np.asarray(graph.attributes))


# ----------------------------------------------------------------------
# Module contracts
# ----------------------------------------------------------------------
class TestContracts:
    def test_cache_key_prefix_matches_conv(self):
        # delta.py duplicates the literal to avoid a circular import; if
        # conv.py ever renames its key family, repair would silently
        # stop finding cached operators — this is the tripwire.
        assert GRAPH_OPS_PREFIX == GRAPH_OPS_KEY

    def test_empty_delta_is_noop(self):
        graph = random_graph(make_rng(0))
        before = graph.edges.copy()
        report = graph.apply_delta(GraphDelta())
        assert not report.dirty
        assert np.array_equal(graph.edges, before)

    def test_removing_absent_edge_is_noop(self):
        graph = random_graph(make_rng(1))
        absent = np.array([[0, graph.num_nodes - 1]])
        if any((graph.edges == np.sort(absent)).all(axis=1)):
            pytest.skip("random graph happened to contain the probe edge")
        report = graph.apply_delta(GraphDelta(remove_edges=absent))
        assert report.edges_removed == 0 and not report.structural

    def test_self_loops_dropped_like_graph_canonicalisation(self):
        graph = Graph(5, [[0, 1], [1, 2]])
        report = graph.apply_delta(GraphDelta(
            add_edges=np.array([[3, 3], [0, 2]])))
        assert report.edges_added == 1
        assert [0, 2] in graph.edges.tolist()
        assert [3, 3] not in graph.edges.tolist()

    def test_node_attribute_shape_enforced(self):
        graph = random_graph(make_rng(2))
        with pytest.raises(ValueError):
            graph.apply_delta(GraphDelta(add_nodes=2))  # missing rows

    def test_report_counts(self):
        graph = Graph(6, [[0, 1], [1, 2], [2, 3]])
        report = graph.apply_delta(GraphDelta(
            add_edges=[[3, 4], [0, 1]], remove_edges=[[1, 2], [4, 5]]))
        assert report.edges_added == 1       # [0,1] already present
        assert report.edges_removed == 1     # [4,5] never existed
        assert graph.num_edges == 3


class TestPatchedEdgeList:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_patched_edges_match_fresh_canonicalisation(self, seed):
        rng = make_rng(seed)
        graph = random_graph(rng)
        graph.apply_delta(random_delta(graph, rng))
        rebuilt = Graph(graph.num_nodes, graph.edges)
        assert np.array_equal(graph.edges, rebuilt.edges)
        assert graph.num_edges == rebuilt.num_edges


# ----------------------------------------------------------------------
# Dense differential: patched operators vs cold rebuild, bitwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index_dtype", ["int32", "int64"])
class TestDenseDifferential:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_repaired_ops_bitwise_equal_cold_build(self, index_dtype, seed):
        with index_precision(index_dtype):
            rng = make_rng(seed)
            graph = random_graph(rng)
            graph_ops(graph)                     # build, then mutate
            graph.apply_delta(random_delta(graph, rng))
            cold = fresh_dense(graph)
            assert csr_equal(graph.adjacency, cold.adjacency)
            assert ops_equal(graph_ops(graph), graph_ops(cold))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_consecutive_deltas_compound(self, index_dtype, seed):
        with index_precision(index_dtype):
            rng = make_rng(seed)
            graph = random_graph(rng)
            graph_ops(graph)
            for _ in range(3):
                graph.apply_delta(random_delta(graph, rng))
            cold = fresh_dense(graph)
            assert csr_equal(graph.adjacency, cold.adjacency)
            assert ops_equal(graph_ops(graph), graph_ops(cold))


class TestDensePrecisionWidths:
    """The conftest pin runs this module at float64; the repair contract
    is width-agnostic, so spot-check the float32 serving width too."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_float32_parity(self, seed):
        with precision("float32"):
            rng = make_rng(seed)
            graph = random_graph(rng)
            graph_ops(graph)
            graph.apply_delta(random_delta(graph, rng))
            assert ops_equal(graph_ops(graph), graph_ops(fresh_dense(graph)))


# ----------------------------------------------------------------------
# Sharded differential
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Layer-0 features: patched task vs cold task, bitwise
# ----------------------------------------------------------------------
def attributed_task(rng: np.random.Generator, density: float) -> Task:
    """A task over a random graph whose attributes are bag-of-words at
    ``density`` (low: the CSR layer-0 path; high: the dense one)."""
    n = int(rng.integers(8, 48))
    edges = rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2))
    attributes = (rng.random((n, 30)) < density).astype(resolve_dtype())
    graph = Graph(n, edges[edges[:, 0] != edges[:, 1]], attributes=attributes)
    membership = np.zeros(n, dtype=bool)
    membership[:2] = True
    return Task(graph, [QueryExample(0, [1], [n - 1], membership)], [])


def cold_task(task: Task) -> Task:
    """``task`` over a new graph built from copies of its arrays."""
    graph = task.graph
    copy = Graph(graph.num_nodes, np.array(graph.edges),
                 attributes=np.array(graph.attributes))
    return Task(copy, task.support, task.queries)


def layer0_equal(a, b) -> bool:
    if sp.issparse(a) or sp.issparse(b):
        return (sp.issparse(a) and sp.issparse(b) and a.shape == b.shape
                and a.indptr.tobytes() == b.indptr.tobytes()
                and a.indices.tobytes() == b.indices.tobytes()
                and a.indptr.dtype == b.indptr.dtype
                and a.indices.dtype == b.indices.dtype
                and a.data.dtype == b.data.dtype
                and a.data.tobytes() == b.data.tobytes())
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("index_dtype", ["int32", "int64"])
class TestLayer0Differential:
    """``Task.encoder_features`` keeps its attribute block across
    structure-only deltas and rebuilds it on every attribute change; at
    each step it must equal a cold task's, byte for byte."""

    @given(seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.03, 0.6]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_patched_features_equal_cold_task(self, index_dtype, seed,
                                              density):
        with index_precision(index_dtype):
            rng = make_rng(seed)
            task = attributed_task(rng, density)
            graph = task.graph

            def check(step):
                assert layer0_equal(task.encoder_features(),
                                    cold_task(task).encoder_features()), step

            check("initial")
            graph.apply_delta(GraphDelta(
                add_edges=rng.integers(0, graph.num_nodes, size=(4, 2)),
                remove_edges=graph.edges[:2]))
            check("add/remove edges")
            rows = np.unique(rng.integers(0, graph.num_nodes, size=3))
            graph.apply_delta(GraphDelta(update_attributes=(
                rows, (rng.random((rows.size, graph.num_attributes))
                       < density).astype(graph.attributes.dtype))))
            check("update_attributes")
            graph.apply_delta(random_delta(graph, rng))
            check("compound delta")
            graph.set_attributes((rng.random(graph.attributes.shape)
                                  < density).astype(graph.attributes.dtype))
            check("set_attributes")

    def test_structure_only_delta_keeps_attribute_block(self, index_dtype):
        with index_precision(index_dtype):
            task = attributed_task(make_rng(3), 0.03)
            graph = task.graph
            before = task.encoder_features()
            block = task._attribute_csr()
            graph.apply_delta(GraphDelta(add_edges=[[0, graph.num_nodes - 1]],
                                         remove_edges=graph.edges[:1]))
            assert task.encoder_features() is not before
            assert task._attribute_csr() is block
            graph.apply_delta(GraphDelta(update_attributes=(
                np.array([0]), np.ones((1, graph.num_attributes)))))
            assert task._attribute_csr() is not block


def sharded_pair(rng: np.random.Generator, num_shards: int):
    n = int(rng.integers(20, 60))
    m = int(rng.integers(2 * n, 5 * n))
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    attrs = rng.standard_normal((n, 6))
    return ShardedGraph(n, edges, attributes=attrs, num_shards=num_shards)


def force_build_all(sharded: ShardedGraph) -> None:
    for shard in graph_shard_ops(sharded):
        shard.norm_adj, shard.row_norm_adj, shard.edge_src, \
            shard.edge_dst_local, shard.halo


def assert_shards_equal(patched: ShardedGraph) -> None:
    fresh = ShardedGraph(patched.num_nodes, patched.edges,
                         attributes=np.asarray(patched.attributes),
                         num_shards=patched.num_shards)
    assert np.array_equal(patched.shard_bounds, fresh.shard_bounds)
    for a, b in zip(graph_shard_ops(patched), graph_shard_ops(fresh)):
        assert np.array_equal(a.halo, b.halo)
        assert csr_equal(a.norm_adj, b.norm_adj)
        assert csr_equal(a.row_norm_adj, b.row_norm_adj)
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_dst_local, b.edge_dst_local)


@pytest.mark.parametrize("num_shards", [1, 3])
class TestShardedDifferential:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shard_ops_bitwise_equal_cold_build(self, num_shards, seed):
        rng = make_rng(seed)
        sharded = sharded_pair(rng, num_shards)
        force_build_all(sharded)       # repair must fix *built* entries
        sharded.apply_delta(random_delta(sharded, rng, allow_nodes=False))
        assert_shards_equal(sharded)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_appended_nodes_recompute_shard_bounds(self, num_shards, seed):
        rng = make_rng(seed)
        sharded = sharded_pair(rng, num_shards)
        force_build_all(sharded)
        sharded.apply_delta(GraphDelta(
            add_nodes=2, node_attributes=rng.standard_normal((2, 6)),
            add_edges=[[0, sharded.num_nodes - 1]]))
        assert_shards_equal(sharded)


# ----------------------------------------------------------------------
# Cache accounting: what survives a delta, what must not
# ----------------------------------------------------------------------
class TestCacheAccounting:
    def _dense_key(self) -> str:
        return (f"{GRAPH_OPS_KEY}.{resolve_dtype().name}"
                f".{resolve_index_dtype().name}")

    def test_dense_entry_repaired_in_place(self):
        graph = random_graph(make_rng(3))
        stale = graph_ops(graph)
        report = graph.apply_delta(GraphDelta(add_edges=[[0, 1], [2, 5]]))
        assert report.ops_repaired == 1 and report.ops_dropped == 0
        cache = graph.__dict__["_ops_cache"]
        assert self._dense_key() in cache
        assert cache[self._dense_key()] is not stale

    def test_repair_false_drops_instead(self):
        graph = random_graph(make_rng(4))
        graph_ops(graph)
        report = graph.apply_delta(GraphDelta(add_edges=[[0, 1], [2, 5]]),
                                   repair=False)
        assert report.ops_repaired == 0 and report.ops_dropped >= 1
        assert self._dense_key() not in graph.__dict__["_ops_cache"]
        # the next access rebuilds from the patched structure
        assert ops_equal(graph_ops(graph), graph_ops(fresh_dense(graph)))

    def test_untouched_shards_keep_their_entries(self):
        """A delta confined to the last shard's interior must not evict
        the first shard's cached operators (nor its halo)."""
        n, shards = 90, 3
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        sharded = ShardedGraph(n, edges,
                               attributes=make_rng(5).standard_normal((n, 4)),
                               num_shards=shards)
        force_build_all(sharded)
        cache = sharded.__dict__["_ops_cache"]
        kept_key = f"{self._dense_key()}.shard0"
        assert kept_key in cache
        kept = cache[kept_key]
        report = sharded.apply_delta(GraphDelta(add_edges=[[80, 85]]))
        assert cache[kept_key] is kept           # shard 0 untouched
        assert f"{self._dense_key()}.shard2" not in cache
        assert report.ops_dropped >= 1
        assert_shards_equal(sharded)

    def test_halo_overlap_marks_neighbour_shard_dirty(self):
        """An edge whose endpoints sit inside shard 2 but within shard
        1's halo must evict shard 1 too: its compacted column space
        references those rows."""
        n, shards = 90, 3
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        sharded = ShardedGraph(n, edges,
                               attributes=make_rng(6).standard_normal((n, 4)),
                               num_shards=shards)
        force_build_all(sharded)
        cache = sharded.__dict__["_ops_cache"]
        # node 60 is shard 2's first row and sits in shard 1's halo (the
        # chain edge 59-60 pulls it in).
        sharded.apply_delta(GraphDelta(add_edges=[[60, 62]]))
        assert f"{self._dense_key()}.shard1" not in cache
        assert_shards_equal(sharded)

    def test_memmap_sharded_rejects_add_nodes(self, tmp_path):
        n = 24
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        attrs = make_rng(7).standard_normal((n, 4))
        with ShardedGraph(n, edges, attributes=attrs, num_shards=2,
                          memmap_dir=str(tmp_path)) as sharded:
            with pytest.raises(ValueError):
                sharded.apply_delta(GraphDelta(
                    add_nodes=1, node_attributes=np.zeros((1, 4))))
            # plain edge deltas still work against memmapped features
            sharded.apply_delta(GraphDelta(add_edges=[[0, 5]]))
            assert_shards_equal(sharded)


class TestInvalidationBoundary:
    """``invalidate_cached_ops`` must match whole dotted components: the
    family "a.b" owns "a.b.x" but NOT "a.b_t" (a sibling family whose
    name merely extends the prefix string)."""

    def test_prefix_is_component_wise(self):
        graph = random_graph(make_rng(8))
        cache = graph.__dict__.setdefault("_ops_cache", {})
        cache["fam.norm_adj"] = 1
        cache["fam.norm_adj.float64.int64"] = 2
        cache["fam.norm_adj_t"] = 3
        cache["fam.norm_adj_t.float64.int64"] = 4
        graph.invalidate_cached_ops("fam.norm_adj")
        assert "fam.norm_adj" not in cache
        assert "fam.norm_adj.float64.int64" not in cache
        assert cache["fam.norm_adj_t"] == 3
        assert cache["fam.norm_adj_t.float64.int64"] == 4

    def test_shard_suffixes_belong_to_their_family(self):
        graph = random_graph(make_rng(9))
        cache = graph.__dict__.setdefault("_ops_cache", {})
        elem, index = resolve_dtype().name, resolve_index_dtype().name
        cache[f"{GRAPH_OPS_KEY}.{elem}.{index}.shard0"] = "s0"
        graph.invalidate_cached_ops(GRAPH_OPS_KEY)
        assert not [k for k in cache if k.startswith(GRAPH_OPS_KEY)]


# ----------------------------------------------------------------------
# Dirty-frontier semantics (what the engine's context tracking rides on)
# ----------------------------------------------------------------------
class TestDirtyFrontier:
    def test_frontier_covers_removed_edge_endpoints(self):
        graph = Graph(10, [[0, 1], [1, 2], [2, 3], [5, 6], [7, 8]])
        graph_ops(graph)
        report = graph.apply_delta(GraphDelta(remove_edges=[[1, 2]]))
        frontier = dirty_frontier(graph, report, hops=1)
        # 1 and 2 changed degree; their *current* neighbours (0 and 3)
        # hold rescaled normalisation values.
        for node in (0, 1, 2, 3):
            assert node in frontier
        assert 7 not in frontier

    def test_frontier_grows_with_hops(self):
        graph = Graph(8, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
        graph_ops(graph)
        report = graph.apply_delta(GraphDelta(add_edges=[[0, 7]]))
        one = dirty_frontier(graph, report, hops=1)
        two = dirty_frontier(graph, report, hops=2)
        assert set(one.tolist()) <= set(two.tolist())
        assert 2 in two and 2 not in one

    def test_attribute_update_seeds_frontier(self):
        graph = Graph(6, [[0, 1], [1, 2], [3, 4]],
                      attributes=np.zeros((6, 3)))
        report = graph.apply_delta(GraphDelta(
            update_attributes=(np.array([3]), np.ones((1, 3)))))
        frontier = dirty_frontier(graph, report, hops=1)
        assert 3 in frontier and 4 in frontier and 0 not in frontier


def loop_dirty_frontier(graph: Graph, report, hops: int) -> np.ndarray:
    """The per-node frontier loop ``dirty_frontier`` replaced, kept as
    its reference: each hop slices every frontier node's row and its
    removed-edge partners, then takes the union."""
    seeds = np.union1d(report.structure_nodes, report.feature_nodes)
    if seeds.size == 0:
        return seeds.astype(np.int64)
    extra = {}
    for u, v in report.removed_edges.tolist():
        extra.setdefault(u, []).append(v)
        extra.setdefault(v, []).append(u)
    frontier = seeds.astype(np.int64)
    for _ in range(hops):
        blocks = [frontier]
        for node in frontier.tolist():
            if node < graph.num_nodes:
                blocks.append(graph.neighbors(node).astype(np.int64))
            if node in extra:
                blocks.append(np.asarray(extra[node], dtype=np.int64))
        grown = np.unique(np.concatenate(blocks))
        if grown.size == frontier.size:
            break
        frontier = grown
    return frontier


class TestDirtyFrontierDifferential:
    @pytest.mark.parametrize("index_dtype", ["int32", "int64"])
    @given(seed=st.integers(0, 2**32 - 1), hops=st.integers(0, 4))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_per_node_loop(self, index_dtype, seed, hops):
        with index_precision(index_dtype):
            rng = make_rng(seed)
            graph = random_graph(rng)
            for _ in range(2):
                report = graph.apply_delta(random_delta(graph, rng))
                frontier = dirty_frontier(graph, report, hops)
                assert frontier.dtype == np.int64
                assert np.array_equal(frontier,
                                      loop_dirty_frontier(graph, report, hops))
                mask = dirty_frontier_mask(graph, report, hops)
                assert np.array_equal(np.flatnonzero(mask), frontier)

    def test_removed_edge_conducts_beyond_the_endpoints(self):
        # 0-1 is removed; 1's only other route to 3 is through 2, so at
        # two hops from 0 the frontier must still reach 2 via the old edge.
        graph = Graph(6, [[0, 1], [1, 2], [2, 3], [4, 5]])
        report = graph.apply_delta(GraphDelta(remove_edges=[[0, 1]],
                                              add_edges=[[4, 0]]))
        frontier = dirty_frontier(graph, report, hops=2)
        assert np.array_equal(frontier, loop_dirty_frontier(graph, report, 2))
        assert {0, 1, 2, 4, 5} <= set(frontier.tolist())

    def test_negative_hops_rejected(self):
        graph = Graph(3, [[0, 1]])
        report = graph.apply_delta(GraphDelta(add_edges=[[1, 2]]))
        with pytest.raises(ValueError):
            dirty_frontier(graph, report, -1)


# ----------------------------------------------------------------------
# Triangle counts: patched across deltas vs a cold recount
# ----------------------------------------------------------------------
def churn_delta(graph: Graph, rng: np.random.Generator) -> GraphDelta:
    """A structural delta that removes some live edges and re-adds one of
    them in the same batch (set semantics: removed, then present again)."""
    n = graph.num_nodes
    add = rng.integers(0, n, size=(int(rng.integers(1, 6)), 2))
    remove = None
    if graph.num_edges:
        picks = rng.choice(graph.num_edges, size=min(4, graph.num_edges),
                           replace=False)
        remove = graph.edges[picks]
        add = np.concatenate([add, remove[:1]])
    return GraphDelta(add_edges=add, remove_edges=remove)


def assert_structure_matches_cold(graph: Graph) -> None:
    cold = Graph(graph.num_nodes, np.array(graph.edges))
    assert np.array_equal(triangle_counts(graph), triangle_counts(cold))
    ours = local_clustering_coefficients(graph, graph.adjacency.dtype)
    theirs = local_clustering_coefficients(cold, cold.adjacency.dtype)
    assert ours.tobytes() == theirs.tobytes()
    ours, theirs = structural_features(graph), structural_features(cold)
    assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("index_dtype", ["int32", "int64"])
@pytest.mark.parametrize("num_shards", [0, 3], ids=["dense", "sharded"])
class TestTriangleRepair:
    """After every delta the cached triangle counts are patched, not
    dropped, and equal a cold recount — so the clustering column and the
    whole structural block are bitwise a cold task's."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_patched_counts_equal_cold_recount(self, index_dtype, num_shards,
                                               seed):
        with index_precision(index_dtype):
            rng = make_rng(seed)
            graph = (sharded_pair(rng, num_shards) if num_shards
                     else random_graph(rng))
            structural_features(graph)
            graph_ops(graph)
            cache = graph.__dict__["_ops_cache"]
            for step in range(4):
                before = cache[TRIANGLES_KEY]
                delta = (churn_delta(graph, rng) if step % 2
                         else random_delta(graph, rng, allow_nodes=False))
                report = graph.apply_delta(delta)
                if report.structural:
                    assert cache[TRIANGLES_KEY] is not before
                assert_structure_matches_cold(graph)

    def test_remove_then_readd_across_deltas(self, index_dtype, num_shards):
        with index_precision(index_dtype):
            edges = [[0, 1], [1, 2], [0, 2], [2, 3], [1, 3], [3, 4]]
            graph = (ShardedGraph(6, edges, num_shards=num_shards)
                     if num_shards else Graph(6, edges))
            assert triangle_counts(graph).tolist() == [1, 2, 2, 1, 0, 0]
            graph.apply_delta(GraphDelta(remove_edges=[[1, 2]]))
            assert triangle_counts(graph).tolist() == [0, 0, 0, 0, 0, 0]
            graph.apply_delta(GraphDelta(add_edges=[[2, 1]],
                                         remove_edges=[[3, 4]]))
            assert triangle_counts(graph).tolist() == [1, 2, 2, 1, 0, 0]
            graph.apply_delta(GraphDelta(remove_edges=[[1, 2], [0, 1]],
                                         add_edges=[[1, 2], [2, 4], [3, 4]]))
            assert_structure_matches_cold(graph)


class TestTriangleCacheLifecycle:
    def test_appended_nodes_start_at_zero(self):
        graph = Graph(4, [[0, 1], [1, 2], [0, 2]],
                      attributes=np.zeros((4, 2)))
        triangle_counts(graph)
        graph.apply_delta(GraphDelta(add_nodes=2,
                                     node_attributes=np.zeros((2, 2)),
                                     add_edges=[[4, 0], [4, 1], [5, 3]]))
        assert triangle_counts(graph).tolist() == [2, 2, 1, 0, 1, 0]
        assert_structure_matches_cold(graph)

    def test_counts_are_read_only(self):
        counts = triangle_counts(Graph(3, [[0, 1], [1, 2], [0, 2]]))
        with pytest.raises(ValueError):
            counts[0] = 7

    def test_repair_false_and_set_attributes_drop_the_entry(self):
        graph = Graph(5, [[0, 1], [1, 2], [0, 2]],
                      attributes=np.zeros((5, 2)))
        triangle_counts(graph)
        graph.apply_delta(GraphDelta(add_edges=[[2, 3]]), repair=False)
        assert TRIANGLES_KEY not in graph.__dict__["_ops_cache"]
        triangle_counts(graph)
        graph.set_attributes(np.ones((5, 2)))
        assert TRIANGLES_KEY not in graph.__dict__["_ops_cache"]
        assert_structure_matches_cold(graph)

    def test_attribute_only_delta_keeps_the_entry(self):
        graph = Graph(4, [[0, 1], [1, 2], [0, 2]],
                      attributes=np.zeros((4, 2)))
        counts = triangle_counts(graph)
        graph.apply_delta(GraphDelta(update_attributes=([1], np.ones((1, 2)))))
        assert triangle_counts(graph) is counts


# ----------------------------------------------------------------------
# _splice_rows edge cases, against a row-list reference
# ----------------------------------------------------------------------
def splice_reference(matrix: sp.csr_matrix, num_rows: int, rebuild,
                     revalue) -> sp.csr_matrix:
    rows, counts, cols, vals = rebuild
    new_rows = {}
    start = 0
    for row, count in zip(rows.tolist(), counts.tolist()):
        new_rows[row] = (cols[start:start + count], vals[start:start + count])
        start += count
    if revalue is not None:
        start = 0
        for row in revalue[0].tolist():
            lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
            new_rows[row] = (matrix.indices[lo:hi],
                             revalue[1][start:start + hi - lo])
            start += hi - lo
    indices, data, indptr = [], [], [0]
    for row in range(num_rows):
        if row in new_rows:
            row_cols, row_vals = new_rows[row]
        elif row < matrix.shape[0]:
            lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
            row_cols, row_vals = matrix.indices[lo:hi], matrix.data[lo:hi]
        else:
            row_cols, row_vals = [], []
        indices.extend(np.asarray(row_cols).tolist())
        data.extend(np.asarray(row_vals).tolist())
        indptr.append(len(indices))
    return (np.asarray(indptr), np.asarray(indices),
            np.asarray(data, dtype=matrix.dtype))


class TestSpliceRows:
    def _matrix(self, rng, n: int) -> sp.csr_matrix:
        dense = (rng.random((n, n)) < 0.3) * rng.standard_normal((n, n))
        return sp.csr_matrix(dense)

    def _rebuild(self, rng, rows, num_cols):
        rows = np.asarray(rows, dtype=np.int64)
        counts = rng.integers(0, 4, size=rows.size)
        cols = np.concatenate(
            [np.sort(rng.choice(num_cols, size=c, replace=False))
             for c in counts.tolist()] + [np.zeros(0, dtype=np.int64)])
        return rows, counts, cols, rng.standard_normal(cols.size)

    def _check(self, matrix, num_rows, rebuild, revalue=None):
        ours = _splice_rows(matrix, num_rows, matrix.shape[1], rebuild,
                            revalue, np.dtype(np.int32))
        indptr, indices, data = splice_reference(matrix, num_rows, rebuild,
                                                 revalue)
        assert ours.shape == (num_rows, matrix.shape[1])
        assert np.array_equal(ours.indptr, indptr)
        assert np.array_equal(ours.indices, indices)
        assert ours.data.tobytes() == data.tobytes()
        assert ours.indices.dtype == np.int32

    @pytest.mark.parametrize("case", ["none", "first_and_last", "every",
                                      "appended"])
    def test_edge_cases(self, case):
        rng = make_rng(11)
        n = 9
        matrix = self._matrix(rng, n)
        num_rows = n + 3 if case == "appended" else n
        rows = {"none": [], "first_and_last": [0, n - 1],
                "every": list(range(n)), "appended": [2, n + 1]}[case]
        self._check(matrix, num_rows, self._rebuild(rng, rows, n))

    def test_revalue_beside_rebuild(self):
        rng = make_rng(12)
        n = 9
        matrix = self._matrix(rng, n)
        revalue_rows = np.array([1, 4, 8], dtype=np.int64)
        nnz = int(sum(matrix.indptr[r + 1] - matrix.indptr[r]
                      for r in revalue_rows.tolist()))
        self._check(matrix, n, self._rebuild(rng, [0, 5], n),
                    (revalue_rows, rng.standard_normal(nnz)))
        self._check(matrix, n, self._rebuild(rng, [], n),
                    (revalue_rows, rng.standard_normal(nnz)))
