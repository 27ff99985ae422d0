"""Graph-algorithm tests, cross-validated against networkx."""

from __future__ import annotations

import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    bfs_distances,
    bfs_order,
    bfs_sample,
    component_of,
    connected_components,
    connected_k_core_containing,
    core_numbers,
    edge_support,
    graph_diameter_estimate,
    k_core_subgraph,
    k_truss_nodes,
    local_clustering_coefficients,
    max_truss_containing,
    planted_partition_graph,
    to_networkx,
    triangle_counts,
    trussness,
)
from repro.utils import make_rng

from helpers import path_graph, triangle_graph, two_cliques_graph


def loop_triangle_counts(graph: Graph) -> np.ndarray:
    """The per-edge intersection loop ``triangle_counts`` replaced, kept
    as its reference: each triangle u < v < w is found once, from its
    edge (u, v), and credited to all three nodes."""
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    for u, v in graph.edges:
        u, v = int(u), int(v)
        nu = indices[indptr[u]:indptr[u + 1]]
        nv = indices[indptr[v]:indptr[v + 1]]
        for w in np.intersect1d(nu, nv, assume_unique=True):
            if w > v:
                counts[u] += 1
                counts[v] += 1
                counts[int(w)] += 1
    return counts


def bucket_core_numbers(graph: Graph) -> np.ndarray:
    """The per-node Batagelj–Zaversnik bucket peel ``core_numbers``
    replaced, kept as its reference: nodes in degree order, each
    neighbour of higher core moved one bucket down."""
    n = graph.num_nodes
    degree = graph.degrees().copy()
    bin_starts = np.zeros(int(degree.max(initial=0)) + 2, dtype=np.int64)
    for d in degree:
        bin_starts[d + 1] += 1
    bin_starts = np.cumsum(bin_starts)
    position = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    fill = bin_starts[:-1].copy()
    for v in range(n):
        position[v] = fill[degree[v]]
        order[position[v]] = v
        fill[degree[v]] += 1
    bin_ptr = bin_starts[:-1].copy()
    core = degree.copy()
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    for i in range(n):
        v = order[i]
        for u in indices[indptr[v]:indptr[v + 1]]:
            if core[u] > core[v]:
                du, pu = core[u], position[u]
                pw = bin_ptr[du]
                w = order[pw]
                if u != w:
                    order[pu], order[pw] = w, u
                    position[u], position[w] = pw, pu
                bin_ptr[du] += 1
                core[u] -= 1
    return core


@st.composite
def sparse_graphs(draw, max_nodes=80):
    """Graphs from edgeless to dense, isolated nodes included."""
    n = draw(st.integers(1, max_nodes))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=4 * n))
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


@pytest.fixture(scope="module")
def random_graph():
    rng = make_rng(31)
    return planted_partition_graph(150, 4, 7.0, 0.2, rng, name="algo-fixture")


class TestCoreNumbers:
    def test_triangle_is_2core(self):
        np.testing.assert_array_equal(core_numbers(triangle_graph()), [2, 2, 2])

    def test_path_is_1core(self):
        np.testing.assert_array_equal(core_numbers(path_graph(5)), [1] * 5)

    def test_matches_networkx(self, random_graph):
        ours = core_numbers(random_graph)
        theirs = nx.core_number(to_networkx(random_graph))
        for node in range(random_graph.num_nodes):
            assert ours[node] == theirs.get(node, 0), f"node {node}"

    def test_isolated_node_core_zero(self):
        g = Graph(3, [(0, 1)])
        assert core_numbers(g)[2] == 0

    @given(graph=sparse_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx_and_bucket_peel(self, graph):
        ours = core_numbers(graph)
        reference = bucket_core_numbers(graph)
        assert ours.dtype == reference.dtype
        np.testing.assert_array_equal(ours, reference)
        theirs = nx.core_number(to_networkx(graph))
        np.testing.assert_array_equal(
            ours, [theirs[node] for node in range(graph.num_nodes)])

    def test_edgeless_graph_is_0core(self):
        edgeless = Graph(5, np.zeros((0, 2), dtype=np.int64))
        np.testing.assert_array_equal(core_numbers(edgeless), [0] * 5)

    def test_long_path_no_slower_than_bucket_peel(self):
        # A path peels one node per end each round: a peel that rescans
        # all n nodes per round would be quadratic here.
        n = 20_000
        path = Graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                result = fn(path)
                times.append(time.perf_counter() - start)
            return min(times), result

        new_time, ours = best_of(core_numbers)
        old_time, reference = best_of(bucket_core_numbers, repeats=1)
        np.testing.assert_array_equal(ours, reference)
        assert new_time <= old_time

    def test_k_core_subgraph(self):
        g = two_cliques_graph(5)  # 5-cliques are 4-cores
        assert len(k_core_subgraph(g, 4)) == 10
        assert len(k_core_subgraph(g, 5)) == 0

    def test_connected_k_core(self):
        # The bridge keeps both 4-cores in one connected component.
        g = two_cliques_graph(5)
        component = connected_k_core_containing(g, 4, 0)
        assert component == set(range(10))
        assert connected_k_core_containing(g, 5, 0) is None

    def test_connected_k_core_separate_components(self):
        # Without the bridge, the k-core component is just the seed's clique.
        k = 4
        edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
        edges += [(i + 5, j + 5) for i in range(k + 1) for j in range(i + 1, k + 1)]
        g = Graph(10, edges)
        assert connected_k_core_containing(g, 4, 0) == set(range(5))


class TestTriangles:
    def test_triangle_counts_k3(self):
        np.testing.assert_array_equal(triangle_counts(triangle_graph()), [1, 1, 1])

    def test_path_has_no_triangles(self):
        assert triangle_counts(path_graph(6)).sum() == 0

    def test_matches_networkx(self, random_graph):
        ours = triangle_counts(random_graph)
        theirs = nx.triangles(to_networkx(random_graph))
        for node in range(random_graph.num_nodes):
            assert ours[node] == theirs[node], f"node {node}"

    @given(num_nodes=st.integers(1, 30),
           pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                          max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference(self, num_nodes, pairs):
        edges = [(u % num_nodes, v % num_nodes) for u, v in pairs]
        graph = Graph(num_nodes, np.asarray(edges, dtype=np.int64)
                      .reshape(-1, 2))
        ours = triangle_counts(graph)
        assert ours.dtype == np.int64
        np.testing.assert_array_equal(ours, loop_triangle_counts(graph))

    def test_clustering_matches_networkx(self, random_graph):
        ours = local_clustering_coefficients(random_graph)
        theirs = nx.clustering(to_networkx(random_graph))
        for node in range(random_graph.num_nodes):
            np.testing.assert_allclose(ours[node], theirs[node], atol=1e-12)

    def test_clustering_bounds(self, random_graph):
        coefficients = local_clustering_coefficients(random_graph)
        assert np.all(coefficients >= 0.0)
        assert np.all(coefficients <= 1.0)


class TestTruss:
    def test_edge_support_triangle(self):
        support = edge_support(triangle_graph())
        assert all(s == 1 for s in support.values())

    def test_trussness_of_clique(self):
        # In a k-clique every edge has trussness k.
        g = two_cliques_graph(5)
        truss = trussness(g)
        clique_edges = [(u, v) for (u, v) in truss
                        if (u < 5) == (v < 5)]
        assert all(truss[e] == 5 for e in clique_edges)

    def test_bridge_has_trussness_two(self):
        g = two_cliques_graph(5)
        truss = trussness(g)
        assert truss[(4, 5)] == 2

    def test_matches_networkx_k_truss(self, random_graph):
        """Every edge of our k-truss appears in networkx's k_truss and
        vice versa (networkx uses the same definition)."""
        truss = trussness(random_graph)
        nx_graph = to_networkx(random_graph)
        for k in (3, 4):
            ours = {tuple(sorted(e)) for e, t in truss.items() if t >= k}
            theirs = {tuple(sorted(e)) for e in nx.k_truss(nx_graph, k).edges()}
            assert ours == theirs, f"k={k}"

    def test_k_truss_nodes(self):
        g = two_cliques_graph(4)
        nodes = k_truss_nodes(g, 4)
        assert nodes == set(range(8))
        assert k_truss_nodes(g, 5) == set()

    def test_max_truss_containing_query(self):
        g = two_cliques_graph(5)
        k, community = max_truss_containing(g, [0])
        assert k == 5
        assert community == set(range(5))

    def test_max_truss_spanning_bridge_falls_back(self):
        g = two_cliques_graph(5)
        k, community = max_truss_containing(g, [0, 9])
        # Only the 2-truss (whole connected graph) holds both queries.
        assert k == 2
        assert {0, 9} <= community

    def test_max_truss_empty_query_rejected(self):
        with pytest.raises(ValueError):
            max_truss_containing(triangle_graph(), [])


class TestTraversal:
    def test_bfs_order_starts_at_source(self):
        order = bfs_order(path_graph(5), 2)
        assert order[0] == 2
        assert set(order.tolist()) == set(range(5))

    def test_bfs_order_only_reachable(self):
        g = Graph(4, [(0, 1)])
        assert set(bfs_order(g, 0).tolist()) == {0, 1}

    def test_bfs_sample_respects_budget(self, random_graph):
        sample = bfs_sample(random_graph, 0, 30)
        assert len(sample) == 30
        assert len(set(sample.tolist())) == 30

    def test_bfs_sample_is_connected(self, random_graph):
        sample = bfs_sample(random_graph, 0, 40, rng=make_rng(0))
        sub = random_graph.induced_subgraph(sample)
        assert len(connected_components(sub)) == 1

    def test_bfs_sample_invalid_budget(self):
        with pytest.raises(ValueError):
            bfs_sample(triangle_graph(), 0, 0)

    def test_bfs_distances(self):
        distances = bfs_distances(path_graph(5), [0])
        np.testing.assert_allclose(distances, [0, 1, 2, 3, 4])

    def test_multi_source_distances(self):
        distances = bfs_distances(path_graph(5), [0, 4])
        np.testing.assert_allclose(distances, [0, 1, 2, 1, 0])

    def test_unreachable_is_inf(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, [0])[2] == np.inf

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        components = connected_components(g)
        assert sorted(len(c) for c in components) == [1, 2, 2]
        assert components[0] in ({0, 1}, {2, 3})

    def test_component_of(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert component_of(g, 4) == {4}
        assert component_of(g, 0) == {0, 1}

    def test_diameter_estimate_path(self):
        assert graph_diameter_estimate(path_graph(6)) == 5.0

    def test_diameter_single_node(self):
        assert graph_diameter_estimate(Graph(1, [])) == 0.0
