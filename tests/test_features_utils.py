"""Tests for the feature pipeline and utility modules."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph import (
    Graph,
    feature_dimension,
    node_feature_matrix,
    structural_features,
)
from repro.nn.backend import precision
from repro.utils import StopwatchRegistry, Timer, derive_rng, make_rng, spawn_rngs

from helpers import triangle_graph, two_cliques_graph


class TestStructuralFeatures:
    def test_shape(self):
        g = two_cliques_graph(4)
        features = structural_features(g)
        assert features.shape == (8, 2)

    def test_core_channel_normalised(self):
        g = two_cliques_graph(5)
        features = structural_features(g, normalize=True)
        assert features[:, 0].max() == 1.0

    def test_unnormalised_cores(self):
        g = triangle_graph()
        features = structural_features(g, normalize=False)
        np.testing.assert_allclose(features[:, 0], [2, 2, 2])

    def test_clustering_channel(self):
        g = triangle_graph()
        features = structural_features(g)
        np.testing.assert_allclose(features[:, 1], [1.0, 1.0, 1.0])

    def test_graph_without_edges(self):
        g = Graph(4, [])
        features = structural_features(g)
        np.testing.assert_allclose(features, 0.0)

    def test_follow_the_graph_dtype_not_the_ambient_policy(self):
        # A task's features are computed lazily, whatever policy is
        # active at the time; every call must give the graph's bits.
        with precision("float64"):
            g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            reference = structural_features(g)
        with precision("float32"):
            assert structural_features(g).tobytes() == reference.tobytes()


class TestNodeFeatureMatrix:
    def test_attributes_plus_structural(self):
        g = Graph(3, [(0, 1), (1, 2)], attributes=np.eye(3))
        features = node_feature_matrix(g)
        assert features.shape == (3, 5)

    def test_structural_only(self):
        g = two_cliques_graph(3)
        features = node_feature_matrix(g, use_attributes=False)
        assert features.shape == (6, 2)

    def test_attributes_only(self):
        g = Graph(3, [(0, 1)], attributes=np.eye(3))
        features = node_feature_matrix(g, use_structural=False)
        assert features.shape == (3, 3)

    def test_fallback_constant_channel(self):
        g = two_cliques_graph(3)  # no attributes
        features = node_feature_matrix(g, use_attributes=True,
                                       use_structural=False)
        assert features.shape == (6, 1)
        np.testing.assert_allclose(features, 1.0)

    def test_dimension_helper_consistent(self):
        g = Graph(3, [(0, 1)], attributes=np.eye(3))
        for kwargs in ({}, {"use_attributes": False},
                       {"use_structural": False},
                       {"use_attributes": False, "use_structural": False}):
            assert (feature_dimension(g, **kwargs)
                    == node_feature_matrix(g, **kwargs).shape[1])


class TestRNG:
    def test_make_rng_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_spawn_rngs_independent(self):
        streams = spawn_rngs(7, 3)
        values = [s.random(4) for s in streams]
        assert not np.allclose(values[0], values[1])
        assert not np.allclose(values[1], values[2])

    def test_spawn_deterministic(self):
        a = [s.random(3) for s in spawn_rngs(1, 2)]
        b = [s.random(3) for s in spawn_rngs(1, 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_derive_rng_keys_differ(self):
        root = make_rng(0)
        a = derive_rng(root, 1)
        root2 = make_rng(0)
        b = derive_rng(root2, 2)
        assert not np.allclose(a.random(4), b.random(4))


class TestTiming:
    def test_timer_measures(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005

    def test_registry_accumulates(self):
        registry = StopwatchRegistry()
        for _ in range(3):
            with registry.measure("work"):
                time.sleep(0.002)
        assert registry.count("work") == 3
        assert registry.total("work") >= 0.004
        assert registry.labels() == ["work"]

    def test_registry_measures_through_exceptions(self):
        registry = StopwatchRegistry()
        with pytest.raises(RuntimeError):
            with registry.measure("fail"):
                raise RuntimeError("boom")
        assert registry.count("fail") == 1

    def test_unknown_label_zero(self):
        registry = StopwatchRegistry()
        assert registry.total("nothing") == 0.0
        assert registry.count("nothing") == 0

    def test_as_dict(self):
        registry = StopwatchRegistry()
        with registry.measure("x"):
            pass
        assert "x" in registry.as_dict()
