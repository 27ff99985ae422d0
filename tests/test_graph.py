"""Tests for the Graph container: construction, accessors, communities and
induced subgraphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, from_edge_list, from_networkx, to_networkx

from helpers import triangle_graph, two_cliques_graph


class TestConstruction:
    def test_basic_counts(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_self_loops_removed(self):
        g = Graph(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_duplicate_and_reversed_edges_merged(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_edges_canonical_orientation(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert np.all(g.edges[:, 0] < g.edges[:, 1])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_no_edges_graph(self):
        g = Graph(5, [])
        assert g.num_edges == 0
        assert g.degrees().sum() == 0

    def test_attribute_shape_validated(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)], attributes=np.zeros((2, 4)))

    def test_community_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)], communities=[[0, 9]])


def unique_rows_canonical(edges: np.ndarray) -> np.ndarray:
    """The ``np.unique(axis=0)`` canonicalisation ``Graph`` used before
    it deduplicated on the scalar key ``u * n + v`` — kept as the
    reference the key version must match byte for byte."""
    if edges.size == 0:
        return np.zeros((0, 2), dtype=edges.dtype)
    low = np.minimum(edges[:, 0], edges[:, 1])
    high = np.maximum(edges[:, 0], edges[:, 1])
    keep = low != high
    canonical = np.stack([low[keep], high[keep]], axis=1)
    if canonical.size == 0:
        return np.zeros((0, 2), dtype=edges.dtype)
    return np.unique(canonical, axis=0)


class TestCanonicalizeEdges:
    @given(num_nodes=st.integers(1, 60), data=st.data(),
           dtype=st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=150, deadline=None)
    def test_matches_unique_rows_reference(self, num_nodes, data, dtype):
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, num_nodes - 1),
                      st.integers(0, num_nodes - 1)), max_size=80))
        edges = np.asarray(pairs, dtype=dtype).reshape(-1, 2)
        ours = Graph._canonicalize_edges(edges, num_nodes)
        reference = unique_rows_canonical(edges)
        assert ours.dtype == reference.dtype == edges.dtype
        assert ours.shape == reference.shape
        assert ours.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("edges", [
        np.zeros((0, 2)),                              # empty
        np.array([[3, 3], [0, 0], [5, 5]]),            # all self-loops
        np.array([[4, 1], [1, 4], [1, 4], [0, 2], [2, 0]]),  # duplicates
    ], ids=["empty", "self_loops", "duplicates"])
    def test_edge_cases(self, edges, dtype):
        edges = edges.astype(dtype)
        ours = Graph._canonicalize_edges(edges, 6)
        reference = unique_rows_canonical(edges)
        assert ours.dtype == reference.dtype == np.dtype(dtype)
        assert ours.shape == reference.shape
        assert ours.tobytes() == reference.tobytes()

    def test_large_ids_do_not_overflow_int32_keys(self):
        n = 70_000                      # n * n overflows int32
        edges = np.array([[n - 1, n - 2], [1, n - 1], [n - 2, n - 1]],
                         dtype=np.int32)
        ours = Graph._canonicalize_edges(edges, n)
        assert ours.tobytes() == unique_rows_canonical(edges).tobytes()


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph(4, [(0, 3), (0, 1), (0, 2)])
        np.testing.assert_array_equal(g.neighbors(0), [1, 2, 3])

    def test_degrees(self):
        g = triangle_graph()
        np.testing.assert_array_equal(g.degrees(), [2, 2, 2])

    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_directed_edges_both_orientations(self):
        g = Graph(3, [(0, 1), (1, 2)])
        src, dst = g.directed_edges()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs
        assert len(pairs) == 4

    def test_adjacency_symmetric(self):
        g = two_cliques_graph()
        adj = g.adjacency.toarray()
        np.testing.assert_array_equal(adj, adj.T)


class TestCommunities:
    def test_membership_lookup(self):
        g = two_cliques_graph(4)
        assert g.communities_of(0) == [0]
        assert g.communities_of(5) == [1]

    def test_overlapping_communities(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], communities=[[0, 1, 2], [2, 3]])
        assert g.communities_of(2) == [0, 1]
        assert g.ground_truth_community(2) == {0, 1, 2, 3}

    def test_ground_truth_union(self):
        g = two_cliques_graph(3)
        assert g.ground_truth_community(1) == {0, 1, 2}

    def test_node_without_community(self):
        g = Graph(3, [(0, 1)], communities=[[0, 1]])
        assert g.communities_of(2) == []
        assert g.ground_truth_community(2) == set()

    def test_nodes_with_ground_truth(self):
        g = Graph(4, [(0, 1)], communities=[[1, 3]])
        np.testing.assert_array_equal(g.nodes_with_ground_truth(), [1, 3])

    def test_empty_community_skipped(self):
        g = Graph(3, [(0, 1)], communities=[[], [0]])
        assert g.num_communities == 1


class TestInducedSubgraph:
    def test_preserves_internal_edges(self):
        g = two_cliques_graph(4)  # nodes 0-3 and 4-7
        sub = g.induced_subgraph([0, 1, 2, 3])
        assert sub.num_nodes == 4
        assert sub.num_edges == 6  # K4

    def test_drops_external_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.induced_subgraph([0, 1, 3])
        assert sub.num_edges == 1  # only (0, 1) survives

    def test_parent_nodes_recorded(self):
        g = two_cliques_graph(3)
        sub = g.induced_subgraph([4, 2, 0])
        np.testing.assert_array_equal(sub.parent_nodes, [4, 2, 0])

    def test_nested_induction_tracks_original_ids(self):
        g = two_cliques_graph(4)
        sub = g.induced_subgraph([4, 5, 6, 7])
        subsub = sub.induced_subgraph([1, 2])
        np.testing.assert_array_equal(subsub.parent_nodes, [5, 6])

    def test_communities_restricted_and_relabelled(self):
        g = two_cliques_graph(3)  # communities {0,1,2} and {3,4,5}
        sub = g.induced_subgraph([1, 2, 3])
        community_sets = {frozenset(c) for c in sub.communities}
        assert frozenset({0, 1}) in community_sets  # {1,2} relabelled
        assert frozenset({2}) in community_sets     # {3} relabelled

    def test_attributes_sliced(self):
        attrs = np.arange(12.0).reshape(4, 3)
        g = Graph(4, [(0, 1)], attributes=attrs)
        sub = g.induced_subgraph([2, 0])
        np.testing.assert_allclose(sub.attributes, attrs[[2, 0]])

    def test_duplicate_nodes_deduplicated(self):
        g = triangle_graph()
        sub = g.induced_subgraph([0, 0, 1])
        assert sub.num_nodes == 2

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            triangle_graph().induced_subgraph([])


class TestConversions:
    def test_from_edge_list(self):
        g = from_edge_list([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_networkx_roundtrip(self):
        g = two_cliques_graph(4)
        back = from_networkx(to_networkx(g))
        assert back.num_nodes == g.num_nodes
        assert back.num_edges == g.num_edges
        # Community structure survives the roundtrip.
        assert back.num_communities == g.num_communities

    def test_to_networkx_attaches_communities(self):
        g = two_cliques_graph(3)
        nx_graph = to_networkx(g)
        assert nx_graph.nodes[0]["community"] == [0]
