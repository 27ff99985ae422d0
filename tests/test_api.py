"""Tests for the ``repro.api`` surface: registry, bundles, engine."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    CommunitySearchEngine,
    MethodRegistry,
    MethodSpec,
    ModelBundle,
    available_methods,
    create_method,
    method_factory,
    register_method,
)
from repro.api.bundle import BUNDLE_FORMAT, BUNDLE_HEADER_KEY, BUNDLE_VERSION
from repro.core import CGNP, CGNPConfig, meta_test_task, predict_memberships
from repro.core.decoders import DECODERS
from repro.core.infer import validate_queries
from repro.eval import ALL_METHOD_NAMES, CORE_METHOD_NAMES
from repro.nn.serialize import save_state
from repro.utils import make_rng


@pytest.fixture
def model(tiny_tasks):
    train, _ = tiny_tasks
    in_dim = train[0].features().shape[1]
    config = CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn", decoder="ip")
    return CGNP(in_dim, config, make_rng(3))


@pytest.fixture
def test_task(tiny_tasks):
    return tiny_tasks[1][0]


class TestMethodRegistry:
    def test_every_paper_method_resolves(self):
        """Every name used by the eval tables has a registered factory."""
        for name in set(ALL_METHOD_NAMES) | set(CORE_METHOD_NAMES):
            factory = method_factory(name)
            assert callable(factory)

    def test_available_methods_matches_paper_order(self):
        assert available_methods() == ALL_METHOD_NAMES

    def test_resolution_is_case_insensitive(self):
        a = method_factory("CGNP-IP")
        b = method_factory("cgnp-ip")
        assert a is b

    def test_create_builds_working_methods(self):
        spec = MethodSpec(name="CTC")
        method = create_method(spec)
        assert method.name == "CTC"

    def test_create_from_bare_name_with_overrides(self):
        method = create_method("Supervised", hidden_dim=8, per_task_steps=2)
        assert type(method).__name__ == "SupervisedGNN"

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown method"):
            create_method("NoSuchMethod")

    def test_duplicate_registration_rejected(self):
        registry = MethodRegistry()
        registry.register("Foo", lambda spec: spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("foo", lambda spec: spec)

    def test_canonical_name_restores_display_casing(self):
        registry = MethodRegistry()
        registry.register("CGNP-IP", lambda spec: spec)
        assert registry.canonical_name("cgnp-ip") == "CGNP-IP"

    def test_instances_are_independent(self):
        registry = MethodRegistry()
        assert "CGNP-IP" not in registry
        assert len(registry) == 0

    def test_rank_orders_names(self):
        registry = MethodRegistry()
        registry.register("Later", lambda spec: spec, rank=5)
        registry.register("Sooner", lambda spec: spec, rank=1)
        registry.register("Unranked", lambda spec: spec)
        assert registry.names() == ("Sooner", "Later", "Unranked")

    def test_spec_replace(self):
        spec = MethodSpec(name="CGNP-IP", hidden_dim=16)
        other = spec.replace(hidden_dim=32)
        assert other.hidden_dim == 32 and spec.hidden_dim == 16


class TestModelBundle:
    def test_round_trip_predictions_identical(self, model, test_task, tmp_path):
        path = str(tmp_path / "bundle.npz")
        ModelBundle.from_model(model, provenance={"dataset": "fixture"}).save(path)
        restored = ModelBundle.load(path)
        rebuilt = restored.build_model()

        queries = [e.query for e in test_task.queries]
        before = predict_memberships(model, test_task, queries)
        after = predict_memberships(rebuilt, test_task, queries)
        assert before.keys() == after.keys()
        for query in before:
            np.testing.assert_allclose(before[query], after[query])

    def test_header_metadata_round_trips(self, model, tmp_path):
        path = str(tmp_path / "bundle.npz")
        bundle = ModelBundle.from_model(model, method="CGNP-IP",
                                        provenance={"dataset": "cora"})
        bundle.save(path)
        restored = ModelBundle.load(path)
        assert not restored.is_legacy
        assert restored.method == "CGNP-IP"
        assert restored.in_dim == model.in_dim
        assert restored.config == model.config
        assert restored.feature_schema["in_dim"] == model.in_dim
        assert restored.provenance["dataset"] == "cora"
        assert restored.version == BUNDLE_VERSION
        assert "CGNP-IP" in restored.describe()

    def test_legacy_weight_only_fallback(self, model, tmp_path):
        path = str(tmp_path / "legacy.npz")
        save_state(model.state_dict(), path)
        bundle = ModelBundle.load(path)
        assert bundle.is_legacy
        with pytest.raises(ValueError, match="legacy checkpoint"):
            bundle.build_model()
        rebuilt = bundle.build_model(config=model.config, in_dim=model.in_dim)
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(rebuilt.state_dict()[name], value)

    def test_foreign_format_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        header = json.dumps({"format": "someone-elses-format", "version": 1})
        save_state({BUNDLE_HEADER_KEY: np.asarray(header)}, path)
        with pytest.raises(ValueError, match="unrecognised bundle format"):
            ModelBundle.load(path)

    def test_newer_version_rejected(self, model, tmp_path):
        path = str(tmp_path / "future.npz")
        header = json.dumps({"format": BUNDLE_FORMAT,
                             "version": BUNDLE_VERSION + 1})
        save_state({BUNDLE_HEADER_KEY: np.asarray(header)}, path)
        with pytest.raises(ValueError, match="newer than"):
            ModelBundle.load(path)

    def test_reserved_state_key_rejected(self, model, tmp_path):
        bundle = ModelBundle.from_model(model)
        bundle.state[BUNDLE_HEADER_KEY] = np.zeros(1)
        with pytest.raises(ValueError, match="reserved key"):
            bundle.save(str(tmp_path / "clash.npz"))

    def test_config_payload_ignores_unknown_fields(self, model, tmp_path):
        """Bundles written by newer code with extra config keys still load."""
        path = str(tmp_path / "forward.npz")
        bundle = ModelBundle.from_model(model)
        header = bundle.header()
        header["config"]["a_future_knob"] = 42
        payload = dict(bundle.state)
        payload[BUNDLE_HEADER_KEY] = np.asarray(json.dumps(header))
        save_state(payload, path)
        restored = ModelBundle.load(path)
        assert restored.config == model.config

    @pytest.mark.parametrize("recorded", ["threaded", "numba"])
    def test_backend_header_is_provenance_only(self, model, test_task,
                                               tmp_path, recorded):
        """Bundles written under a since-removed backend name still load
        and answer bitwise like the bundle they were copied from."""
        bundle = ModelBundle.from_model(model)
        original_path = str(tmp_path / "original.npz")
        bundle.save(original_path)
        header = bundle.header()
        header["backend"] = recorded
        payload = dict(bundle.state)
        payload[BUNDLE_HEADER_KEY] = np.asarray(json.dumps(header))
        path = str(tmp_path / f"{recorded}.npz")
        save_state(payload, path)

        restored = ModelBundle.load(path)
        assert restored.backend == recorded
        queries = [e.query for e in test_task.queries]
        expected = predict_memberships(
            ModelBundle.load(original_path).build_model(), test_task, queries)
        got = predict_memberships(restored.build_model(), test_task, queries)
        assert got.keys() == expected.keys()
        for query in expected:
            np.testing.assert_array_equal(got[query], expected[query])


class TestCommunitySearchEngine:
    def test_from_bundle_serves_queries(self, model, test_task, tmp_path):
        path = str(tmp_path / "bundle.npz")
        ModelBundle.from_model(model).save(path)
        engine = CommunitySearchEngine.from_bundle(path).attach(test_task)
        query = test_task.queries[0].query
        members = engine.query(query)
        assert query in members.tolist()

    def test_batch_query_returns_mapping(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        queries = [e.query for e in test_task.queries[:3]]
        result = engine.query(queries)
        assert sorted(result) == sorted(queries)
        for query, members in result.items():
            assert query in members.tolist()

    def test_context_encoded_once_per_task(self, model, test_task):
        """32 queries, several batches — exactly one context encoding."""
        engine = CommunitySearchEngine(model).attach(test_task)
        n = test_task.graph.num_nodes
        batch = [int(q) for q in np.arange(32) % n]
        engine.query(batch)
        engine.query(batch[:5])
        engine.predict_proba(batch[0])
        stats = engine.stats()
        assert stats.contexts_encoded == 1
        assert stats.context_cache_misses == 1
        assert stats.context_cache_hits >= 3
        assert stats.queries_served == 32 + 5 + 1

    def test_batched_path_matches_per_query_loop(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        n = test_task.graph.num_nodes
        batch = [int(q) for q in np.arange(32) % n]
        matrix = engine.predict_proba(batch)
        assert matrix.shape == (32, n)
        for row, query in zip(matrix, batch):
            np.testing.assert_allclose(
                row, model.predict_proba(test_task, query), atol=1e-10)

    def test_lru_eviction(self, model, tiny_tasks):
        _, (task_a, task_b) = tiny_tasks
        engine = CommunitySearchEngine(model, max_cached_contexts=1)
        engine.attach(task_a)
        engine.attach(task_b)
        engine.attach(task_a)  # must re-encode: evicted by task_b
        stats = engine.stats()
        assert stats.contexts_encoded == 3
        assert stats.contexts_evicted == 2

    def test_refresh_forces_reencode(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        engine.attach(test_task, refresh=True)
        assert engine.stats().contexts_encoded == 2

    def test_query_without_attach_raises(self, model):
        engine = CommunitySearchEngine(model)
        with pytest.raises(RuntimeError, match="no task attached"):
            engine.query(0)

    def test_attach_rejects_non_task(self, model, test_task):
        engine = CommunitySearchEngine(model)
        with pytest.raises(TypeError, match="repro.tasks.Task"):
            engine.attach(test_task.graph)

    def test_attach_rejects_feature_dim_mismatch(self, test_task):
        wrong_dim = test_task.features().shape[1] + 3
        config = CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn")
        mismatched = CGNP(wrong_dim, config, make_rng(1))
        engine = CommunitySearchEngine(mismatched)
        with pytest.raises(ValueError, match="-dim node features"):
            engine.attach(test_task)

    def test_out_of_range_query_raises_value_error(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        with pytest.raises(ValueError, match="out of range"):
            engine.query(test_task.graph.num_nodes + 5)

    def test_threshold_per_call(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        query = test_task.queries[0].query
        permissive = engine.query(query, threshold=0.0)
        strict = engine.query(query, threshold=1.0)
        assert len(permissive) == test_task.graph.num_nodes
        assert strict.tolist() == [query]

    def test_detach_clears_active(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        engine.detach()
        assert engine.active_task is None
        with pytest.raises(RuntimeError):
            engine.query(0)

    def test_stats_snapshot_is_isolated(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        snapshot = engine.stats()
        snapshot.queries_served = 999
        assert engine.stats().queries_served == 0
        data = engine.stats().as_dict()
        assert "queries_per_second" in data
        engine.reset_stats()
        assert engine.stats().contexts_encoded == 0


class TestPredictProbaMany:
    @pytest.mark.parametrize("decoder", ["ip", "mlp", "gnn"])
    def test_bitwise_identical_to_per_batch_calls(self, decoder, tiny_tasks):
        """The coalescing primitive shares the context transform but keeps
        per-batch BLAS shapes, so each answer is bitwise-equal to its own
        predict_proba call — the contract the serve gateway builds on."""
        train, (task, _) = tiny_tasks
        in_dim = train[0].features().shape[1]
        model = CGNP(in_dim, CGNPConfig(hidden_dim=8, num_layers=2,
                                        conv="gcn", decoder=decoder),
                     make_rng(11))
        engine = CommunitySearchEngine(model).attach(task)
        batches = [[0, 1, 2], [3], [4, 5, 6, 7]]
        coalesced = engine.predict_proba_many(batches)
        for nodes, matrix in zip(batches, coalesced):
            np.testing.assert_array_equal(matrix,
                                          engine.predict_proba(nodes))

    def test_counts_one_decode_call(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        engine.predict_proba_many([[0, 1], [2], [3, 4]])
        stats = engine.stats()
        assert stats.decode_calls == 1
        assert stats.batches_served == 3
        assert stats.queries_served == 5

    def test_empty_input_returns_empty(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        assert engine.predict_proba_many([]) == []
        assert engine.stats().decode_calls == 0

    def test_validates_every_batch_before_decoding(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        with pytest.raises(ValueError, match="out of range"):
            engine.predict_proba_many([[0], [test_task.graph.num_nodes]])
        assert engine.stats().queries_served == 0


def _decoder_model(tiny_tasks, decoder):
    train, _ = tiny_tasks
    in_dim = train[0].features().shape[1]
    return CGNP(in_dim, CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                                   decoder=decoder), make_rng(11))


class TestEngineTransformOnce:
    @pytest.mark.parametrize("decoder", ["mlp", "gnn"])
    def test_transform_runs_once_per_encoded_context(self, decoder,
                                                     tiny_tasks,
                                                     monkeypatch):
        """The decoder transform is paid when a context is encoded, never
        on a cache-hit read."""
        _, (task, other) = tiny_tasks
        model = _decoder_model(tiny_tasks, decoder)
        transform = model.decoder.transform
        calls = []

        def spy(context, graph):
            calls.append(graph)
            return transform(context, graph)

        monkeypatch.setattr(model.decoder, "transform", spy)
        engine = CommunitySearchEngine(model).attach(task)
        assert len(calls) == 1
        for node in range(20):
            engine.predict_proba([node % task.graph.num_nodes])
        engine.predict_proba_many([[0, 1], [2]])
        assert len(calls) == 1
        engine.attach_many([task, other])
        engine.predict_proba([0], other)
        assert calls == [task.graph, other.graph]
        assert engine.stats().contexts_encoded == 2

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_full_storage_answers_equal_a_direct_decode(self, decoder,
                                                        tiny_tasks):
        """Caching ``T`` changes no bit of a full-storage answer."""
        from repro.nn import no_grad

        _, (task, other) = tiny_tasks
        model = _decoder_model(tiny_tasks, decoder)
        engine = CommunitySearchEngine(model).attach(task)
        engine.attach_many([other])
        nodes = [0, 3, 5]
        for served in (task, other):
            with no_grad():
                expected = model.query_logits_batch(
                    model.context(served), nodes,
                    served.graph).sigmoid().data
            got = engine.predict_proba(nodes, served)
            assert got.tobytes() == expected.tobytes()
            assert engine.predict_proba_many([nodes], served)[0].tobytes() \
                == expected.tobytes()


class TestEngineStatsTimers:
    def test_query_timestamps_and_wall_seconds(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        before = engine.stats()
        assert before.first_query_at is None
        assert before.wall_seconds == 0.0
        engine.predict_proba([0])
        engine.predict_proba([1])
        stats = engine.stats()
        assert stats.first_query_at is not None
        assert stats.last_query_at >= stats.first_query_at
        assert stats.wall_seconds == pytest.approx(
            stats.last_query_at - stats.first_query_at)

    def test_as_dict_round_trips_through_json(self, model, test_task):
        engine = CommunitySearchEngine(model).attach(test_task)
        engine.predict_proba(np.arange(4))   # numpy-typed query input
        data = json.loads(json.dumps(engine.stats().as_dict()))
        assert data["queries_served"] == 4
        assert data["decode_calls"] == 1
        assert isinstance(data["wall_seconds"], float)
        assert isinstance(data["queries_per_second"], float)


class TestEngineThreadSafety:
    def test_concurrent_callers_lose_no_counts(self, model, tiny_tasks):
        """The documented contract: public methods serialise under one
        lock, so hammering one engine from several threads corrupts
        neither the context LRU nor the stats counters."""
        import threading

        _, (task_a, task_b) = tiny_tasks
        engine = CommunitySearchEngine(model, max_cached_contexts=1)
        rounds, errors = 12, []

        def hammer(task, nodes):
            try:
                for _ in range(rounds):
                    engine.attach(task)
                    engine.predict_proba(nodes, task)
                    engine.predict_proba_many([nodes, nodes], task=task)
                    engine.stats()
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(task, [0, 1, 2]))
                   for task in (task_a, task_b, task_a, task_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        stats = engine.stats()
        assert stats.queries_served == 4 * rounds * (3 + 6)
        assert stats.batches_served == 4 * rounds * (1 + 2)
        assert stats.decode_calls == 4 * rounds * 2


class TestBatchedDecoders:
    @pytest.mark.parametrize("decoder", ["ip", "mlp", "gnn"])
    def test_batch_matches_loop(self, decoder, tiny_tasks):
        """query_logits_batch rows equal per-query query_logits calls."""
        train, (task, _) = tiny_tasks
        in_dim = train[0].features().shape[1]
        config = CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                            decoder=decoder)
        model = CGNP(in_dim, config, make_rng(11))
        model.eval()
        context = model.context(task)
        queries = np.arange(min(8, task.graph.num_nodes))
        batched = model.query_logits_batch(context, queries, task.graph).data
        for row, query in zip(batched, queries.tolist()):
            single = model.query_logits(context, query, task.graph).data
            np.testing.assert_allclose(row, single, atol=1e-10)


class TestInferHardening:
    def test_validate_queries_bounds(self, test_task):
        graph = test_task.graph
        with pytest.raises(ValueError, match="out of range"):
            validate_queries(graph, [0, graph.num_nodes])
        with pytest.raises(ValueError, match="out of range"):
            validate_queries(graph, [-1])
        with pytest.raises(ValueError, match="must be integers"):
            validate_queries(graph, ["node-7b"])

    def test_predict_memberships_threshold_per_call(self, model, test_task):
        query = test_task.queries[0].query
        permissive = predict_memberships(model, test_task, [query],
                                         threshold=0.0)
        strict = predict_memberships(model, test_task, [query], threshold=1.0)
        assert len(permissive[query]) == test_task.graph.num_nodes
        assert strict[query].tolist() == [query]

    def test_predict_memberships_empty(self, model, test_task):
        assert predict_memberships(model, test_task, []) == {}

    def test_meta_test_does_not_mutate_task(self, model, test_task):
        before = [e.membership.copy() for e in test_task.queries]
        predictions = meta_test_task(model, test_task, threshold=0.3)
        for prediction in predictions:
            prediction.ground_truth[:] = False
            prediction.probabilities[:] = -1.0
        for example, original in zip(test_task.queries, before):
            np.testing.assert_array_equal(example.membership, original)


# ----------------------------------------------------------------------
# Streaming deltas through the engine (PR 9)
# ----------------------------------------------------------------------
def _chain_task(n: int = 48, dim: int = 6, seed: int = 11):
    """A path graph plus a manual 1-shot task whose labelled nodes all
    sit in the first few positions — deltas at the far end provably miss
    the support's k-hop neighbourhood."""
    from repro.graph import Graph
    from repro.tasks import QueryExample, Task

    rng = make_rng(seed)
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    graph = Graph(n, edges, attributes=rng.standard_normal((n, dim)))

    def example(query, positives, negatives):
        membership = np.zeros(n, dtype=bool)
        membership[query] = True
        membership[positives] = True
        return QueryExample(query=query, positives=np.array(positives),
                            negatives=np.array(negatives),
                            membership=membership)

    support = [example(2, [1, 3], [5, 6])]
    queries = [example(1, [0, 2], [6, 7])]
    return Task(graph, support, queries, name="chain",
                use_attributes=True, use_structural=False)


def _chain_model(task, seed: int = 3, decoder: str = "ip"):
    in_dim = task.features().shape[1]
    return CGNP(in_dim, CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                                   decoder=decoder), make_rng(seed))


class TestEngineStreamingDeltas:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_far_delta_keeps_context_and_answers(self, decoder):
        """A delta outside the support's k-hop frontier repairs the
        operators but keeps the cached context: answers stay bitwise the
        pre-delta answers (the documented coherence mode) and no
        re-encode happens.  The GNN decoder's message passing reads the
        graph too; its transformed context is cached with the encode, so
        it answers wholly pre-delta as well."""
        from repro.graph import GraphDelta

        task = _chain_task()
        engine = CommunitySearchEngine(_chain_model(task, decoder=decoder))
        engine.attach(task)
        nodes = [0, 1, 2]
        before = engine.predict_proba(nodes)
        report = engine.apply_delta(GraphDelta(add_edges=[[40, 44]]), task)
        assert report.ops_repaired == 1
        stats = engine.stats()
        assert stats.deltas_applied == 1
        assert stats.rows_repaired > 0
        assert stats.contexts_dirtied == 0
        after = engine.predict_proba(nodes)
        np.testing.assert_array_equal(before, after)
        assert engine.stats().contexts_encoded == 1     # never re-encoded

    def test_near_delta_dirties_context_and_reencodes(self):
        """A delta inside the support's frontier pops the cached context;
        the next answer is bitwise the answer of a cold engine attached
        to an identical post-delta task."""
        from repro.graph import Graph, GraphDelta
        from repro.tasks import Task

        task = _chain_task()
        model = _chain_model(task)
        engine = CommunitySearchEngine(model)
        engine.attach(task)
        engine.predict_proba([0])
        report = engine.apply_delta(GraphDelta(add_edges=[[2, 5]]), task)
        assert report.ops_repaired == 1
        stats = engine.stats()
        assert stats.contexts_dirtied == 1
        answer = engine.predict_proba([0, 1])
        assert engine.stats().contexts_encoded == 2     # re-encoded once

        reference_graph = Graph(task.graph.num_nodes, task.graph.edges,
                                attributes=np.asarray(task.graph.attributes))
        reference = CommunitySearchEngine(model)
        reference_task = Task(reference_graph, task.support, task.queries,
                              use_attributes=True, use_structural=False)
        reference.attach(reference_task)
        np.testing.assert_array_equal(answer,
                                      reference.predict_proba([0, 1]))

    def test_repair_false_always_dirties(self):
        from repro.graph import GraphDelta

        task = _chain_task()
        engine = CommunitySearchEngine(_chain_model(task))
        engine.attach(task)
        engine.predict_proba([0])
        engine.apply_delta(GraphDelta(add_edges=[[40, 44]]), task,
                           repair=False)
        stats = engine.stats()
        assert stats.contexts_dirtied == 1
        assert stats.rows_repaired == 0

    def test_evicted_context_does_not_serve_torn_state(self):
        """Regression: a same-graph task whose context was LRU-evicted
        before the delta must still have its feature caches invalidated
        — its next encode must combine *post-delta* features with
        *post-delta* operators, never a torn mixture."""
        from repro.graph import Graph, GraphDelta
        from repro.tasks import Task

        task = _chain_task()
        model = _chain_model(task)
        # A second task on the SAME graph object.
        sibling = Task(task.graph, task.support, task.queries,
                       name="sibling", use_attributes=True,
                       use_structural=False)
        engine = CommunitySearchEngine(model, max_cached_contexts=1)
        engine.attach(task)
        engine.attach(sibling)          # evicts task's context (LRU=1)
        engine.apply_delta(GraphDelta(
            add_edges=[[2, 5]],
            update_attributes=(np.array([1]),
                               np.ones((1, task.graph.num_attributes)))),
            sibling)
        answer = engine.predict_proba([0], task)

        reference_graph = Graph(task.graph.num_nodes, task.graph.edges,
                                attributes=np.asarray(task.graph.attributes))
        reference = CommunitySearchEngine(model)
        reference.attach(Task(reference_graph, task.support, task.queries,
                              use_attributes=True, use_structural=False))
        np.testing.assert_array_equal(answer, reference.predict_proba([0]))

    @pytest.mark.parametrize("storage", ["int8", "float16"])
    def test_compact_context_storage_reencodes_fresh(self, storage):
        """Regression: dirtied contexts re-encode correctly under the
        compact context-cache widths, matching a cold compact engine."""
        from repro.graph import Graph, GraphDelta
        from repro.tasks import Task

        task = _chain_task()
        model = _chain_model(task)
        engine = CommunitySearchEngine(model, context_storage=storage)
        engine.attach(task)
        engine.predict_proba([0])
        engine.apply_delta(GraphDelta(add_edges=[[2, 5]]), task)
        assert engine.stats().contexts_dirtied == 1
        answer = engine.predict_proba([0, 1])

        reference_graph = Graph(task.graph.num_nodes, task.graph.edges,
                                attributes=np.asarray(task.graph.attributes))
        reference = CommunitySearchEngine(model, context_storage=storage)
        reference.attach(Task(reference_graph, task.support, task.queries,
                              use_attributes=True, use_structural=False))
        np.testing.assert_array_equal(answer,
                                      reference.predict_proba([0, 1]))

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_readers_never_see_torn_answers(self, decoder):
        """The thread-safety contract extended to writes: four reader
        threads hammer predict_proba while a writer streams deltas.
        With every decoder each observed answer must be bitwise one of
        the D+1 snapshot answers — pre- or post- some delta, never a
        mixture."""
        import threading
        import time

        from repro.graph import Graph, GraphDelta
        from repro.tasks import Task

        task = _chain_task()
        model = _chain_model(task, decoder=decoder)
        n = task.graph.num_nodes
        deltas = [GraphDelta(add_edges=[[2, 6]]),
                  GraphDelta(add_edges=[[40, 44]]),
                  GraphDelta(remove_edges=[[2, 6]]),
                  GraphDelta(add_edges=[[1, 44]]),
                  GraphDelta(update_attributes=(
                      np.array([2]), np.ones((1, 6)))),
                  GraphDelta(add_edges=[[3, 30]])]

        # Reference answers for every delta depth, from cold engines on
        # reconstructed graphs.
        nodes = [0, 1, 2]
        # np.array (not asarray): Graph.__init__ adopts a matching-dtype
        # buffer without copying, and the attribute delta below patches it
        # in place — an aliased scratch graph would corrupt the live task.
        scratch = Graph(n, task.graph.edges,
                        attributes=np.array(task.graph.attributes))
        snapshots = []
        for depth in range(len(deltas) + 1):
            ref_graph = Graph(n, scratch.edges,
                              attributes=np.array(scratch.attributes))
            ref = CommunitySearchEngine(model)
            ref.attach(Task(ref_graph, task.support, task.queries,
                            use_attributes=True, use_structural=False))
            snapshots.append(ref.predict_proba(nodes))
            if depth < len(deltas):
                scratch.apply_delta(deltas[depth])

        engine = CommunitySearchEngine(model)
        engine.attach(task)
        engine.predict_proba(nodes)
        seen, errors = [], []
        done = threading.Event()

        def reader():
            try:
                answers = []
                while not done.is_set():
                    answers.append(engine.predict_proba(nodes, task))
                answers.append(engine.predict_proba(nodes, task))
                seen.append(answers)
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            try:
                for delta in deltas:
                    engine.apply_delta(delta, task)
                    time.sleep(0.005)
            finally:
                done.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join()
        for thread in threads:
            thread.join()

        assert errors == []
        assert engine.stats().deltas_applied == len(deltas)
        matched = 0
        for answers in seen:
            for answer in answers:
                assert any(np.array_equal(answer, snap)
                           for snap in snapshots), \
                    "observed an answer matching no pre/post-delta snapshot"
                matched += 1
        assert matched > 0
        # The final answers must reflect the final graph, not a stale
        # context: the last delta dirtied the support frontier.
        np.testing.assert_array_equal(seen[0][-1], snapshots[-1])
