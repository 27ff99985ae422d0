"""Tests for repro.meta: meta-features, MethodSelector, engine auto routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CommunitySearchEngine
from repro.baselines.base import CommunitySearchMethod, threshold_prediction
from repro.core import CGNP, CGNPConfig
from repro.eval import evaluate_method
from repro.eval.store import ResultsStore, RunRecord
from repro.graph import GraphDelta
from repro.meta import (META_FEATURE_NAMES, MethodSelector, feature_vector,
                        task_meta_features)
from repro.meta.selector import (SELECTOR_FORMAT, SELECTOR_HEADER_KEY,
                                 SELECTOR_VERSION)
from repro.serve import ServeStats
from repro.tasks import TaskSampler
from repro.tasks.scenarios import SCENARIOS
from repro.tasks.task import TaskSet
from repro.utils import make_rng


class OracleMethod(CommunitySearchMethod):
    """Returns each query's exact ground-truth community (F1 = 1)."""

    name = "Oracle"

    def meta_fit(self, train_tasks, valid_tasks=None, rng=None):
        pass

    def predict_task(self, task):
        return [threshold_prediction(example.membership.astype(float),
                                     example.query, example.membership)
                for example in task.queries]


class NoiseMethod(CommunitySearchMethod):
    """Predicts nothing beyond the query node itself (F1 near 0)."""

    name = "Noise"

    def meta_fit(self, train_tasks, valid_tasks=None, rng=None):
        pass

    def predict_task(self, task):
        n = task.graph.num_nodes
        return [threshold_prediction(np.zeros(n), example.query,
                                     example.membership)
                for example in task.queries]


def _rigged_records(num_per_method=4):
    """A store-shaped corpus where Oracle always beats Noise."""
    records = []
    rng = np.random.default_rng(5)
    for i in range(num_per_method):
        features = {"log_num_nodes": 4.0 + 0.1 * rng.standard_normal(),
                    "density": 0.05 + 0.005 * rng.standard_normal(),
                    "num_shots": 2.0,
                    "scenario_sgsc": 1.0}
        for method, f1 in (("Oracle", 0.95), ("Noise", 0.10)):
            records.append(RunRecord(
                method=method, scenario="sgsc", dataset="cora",
                task=f"test-{i}", metrics={"f1": f1},
                meta_features=dict(features)))
    return records


class TestMetaFeatures:
    def test_exact_key_set(self, tiny_tasks):
        features = task_meta_features(tiny_tasks[1][0], scenario="sgsc")
        assert list(features) == META_FEATURE_NAMES

    def test_scenario_one_hot(self, tiny_tasks):
        task = tiny_tasks[1][0]
        features = task_meta_features(task, scenario="mgod")
        onehot = [features[f"scenario_{name}"] for name in SCENARIOS]
        assert sum(onehot) == 1.0
        assert features["scenario_mgod"] == 1.0

    def test_unknown_scenario_all_zero(self, tiny_tasks):
        features = task_meta_features(tiny_tasks[1][0], scenario="martian")
        assert all(features[f"scenario_{name}"] == 0.0 for name in SCENARIOS)

    def test_deterministic(self, tiny_tasks):
        task = tiny_tasks[1][0]
        assert task_meta_features(task, "sgsc") == \
            task_meta_features(task, "sgsc")

    def test_plausible_ranges(self, tiny_tasks):
        task = tiny_tasks[1][0]
        features = task_meta_features(task, "sgsc")
        assert features["log_num_nodes"] > 0
        assert 0.0 < features["density"] <= 1.0
        assert 0.0 <= features["clustering_proxy"] <= 1.0
        assert features["num_shots"] == task.num_shots
        assert 0.0 <= features["label_balance"] <= 1.0

    def test_feature_vector_projection(self):
        vector = feature_vector({"density": 0.5, "unknown_future_key": 9.0})
        assert vector.shape == (len(META_FEATURE_NAMES),)
        assert vector[META_FEATURE_NAMES.index("density")] == 0.5
        assert vector.sum() == 0.5          # missing keys read 0, unknown dropped


class TestSelectorFit:
    def test_learns_rigged_preference(self):
        selector = MethodSelector(hidden_dim=8)
        selector.fit(_rigged_records(), epochs=200, rng=make_rng(0))
        assert selector.methods == ["Noise", "Oracle"]
        features = _rigged_records(1)[0].meta_features
        assert selector.select(features) == "Oracle"
        scores = selector.scores(features)
        assert scores["Oracle"] > scores["Noise"]

    def test_candidate_filtering_case_insensitive(self):
        selector = MethodSelector(hidden_dim=8)
        selector.fit(_rigged_records(), epochs=50, rng=make_rng(0))
        features = _rigged_records(1)[0].meta_features
        assert selector.select(features, candidates=["oracle"]) == "Oracle"
        assert selector.select(features, candidates=["noise"]) == "Noise"

    def test_skips_aggregates_and_featureless_records(self):
        usable = _rigged_records()
        noise = [RunRecord(method="X", task="*", metrics={"f1": 1.0},
                           meta_features={"density": 1.0}),
                 RunRecord(method="X", task="t", metrics={"f1": 1.0}),
                 RunRecord(method="X", task="t", metrics={},
                           meta_features={"density": 1.0})]
        selector = MethodSelector(hidden_dim=8)
        selector.fit(usable + noise, epochs=10, rng=make_rng(0))
        assert "X" not in selector.methods
        assert selector.train_records == len(usable)

    def test_too_few_records_raises(self):
        with pytest.raises(ValueError, match="at least 4"):
            MethodSelector().fit(_rigged_records(1), min_records=4)

    def test_fit_is_deterministic_given_rng(self):
        features = _rigged_records(1)[0].meta_features
        scores = [MethodSelector(hidden_dim=8)
                  .fit(_rigged_records(), epochs=50, rng=make_rng(3))
                  .scores(features) for _ in range(2)]
        assert scores[0] == scores[1]


class TestSelectorAbstain:
    def test_untrained_abstains(self):
        selector = MethodSelector()
        assert selector.select({"density": 0.1}) is None
        assert selector.scores({"density": 0.1}) == {}

    def test_out_of_distribution_abstains(self):
        selector = MethodSelector(hidden_dim=8, abstain_z=3.0)
        selector.fit(_rigged_records(), epochs=20, rng=make_rng(0))
        features = _rigged_records(1)[0].meta_features
        assert selector.select(features) is not None
        alien = dict(features, log_num_nodes=1e6)
        assert selector.select(alien) is None

    def test_unknown_candidates_abstain(self):
        selector = MethodSelector(hidden_dim=8)
        selector.fit(_rigged_records(), epochs=20, rng=make_rng(0))
        features = _rigged_records(1)[0].meta_features
        assert selector.select(features, candidates=["CGNP-IP"]) is None


class TestSelectorPersistence:
    def fitted(self):
        return MethodSelector(hidden_dim=8, abstain_z=4.5).fit(
            _rigged_records(), epochs=100, rng=make_rng(0))

    def test_round_trip_identical_scores(self, tmp_path):
        selector = self.fitted()
        path = str(tmp_path / "selector.npz")
        assert selector.save(path) == path
        restored = MethodSelector.load(path)
        assert restored.methods == selector.methods
        assert restored.abstain_z == selector.abstain_z
        assert restored.train_records == selector.train_records
        features = _rigged_records(1)[0].meta_features
        assert restored.scores(features) == \
            pytest.approx(selector.scores(features))
        assert restored.select(features) == selector.select(features)

    def test_untrained_save_raises(self, tmp_path):
        with pytest.raises(ValueError, match="untrained"):
            MethodSelector().save(str(tmp_path / "nope.npz"))

    def test_foreign_npz_rejected(self, tmp_path):
        from repro.nn.serialize import save_state
        path = str(tmp_path / "foreign.npz")
        save_state({"weights": np.zeros(3)}, path)
        with pytest.raises(ValueError, match="not a method-selector"):
            MethodSelector.load(path)

    def test_newer_version_rejected(self, tmp_path):
        import json
        from repro.nn.serialize import load_state, save_state
        path = str(tmp_path / "selector.npz")
        self.fitted().save(path)
        state = load_state(path)
        header = json.loads(str(state[SELECTOR_HEADER_KEY]))
        assert header["format"] == SELECTOR_FORMAT
        header["version"] = SELECTOR_VERSION + 1
        state[SELECTOR_HEADER_KEY] = np.asarray(json.dumps(header))
        save_state(state, path)
        with pytest.raises(ValueError, match="newer"):
            MethodSelector.load(path)


class TestEngineAuto:
    """The engine-level ``method="auto"`` contract."""

    def make_engine(self, tiny_tasks):
        train, _ = tiny_tasks
        in_dim = train[0].features().shape[1]
        config = CGNPConfig(hidden_dim=8, num_layers=2, conv="gcn",
                            decoder="ip")
        return CommunitySearchEngine(CGNP(in_dim, config, make_rng(3)))

    def test_no_selector_falls_back_to_native(self, tiny_tasks):
        engine = self.make_engine(tiny_tasks)
        task = tiny_tasks[1][0]
        predictions = engine.answer_task(task, method="auto")
        assert len(predictions) == len(task.queries)
        stats = engine.stats()
        assert stats.auto_fallbacks == 1 and stats.auto_selections == 0
        assert stats.method_picks == {engine.native_method: 1}

    def test_explicit_method_routes_without_selector(self, tiny_tasks):
        engine = self.make_engine(tiny_tasks)
        engine.configure_auto(method_pool={"Oracle": OracleMethod()})
        task = tiny_tasks[1][0]
        predictions = engine.answer_task(task, method="oracle")
        for prediction, example in zip(predictions, task.queries):
            assert np.array_equal(prediction.members,
                                  np.flatnonzero(example.membership))
        assert engine.stats().method_picks == {"Oracle": 1}
        assert engine.stats().auto_selections == 0

    def test_unknown_method_raises_with_menu(self, tiny_tasks):
        engine = self.make_engine(tiny_tasks)
        engine.configure_auto(method_pool={"Oracle": OracleMethod()})
        with pytest.raises(ValueError, match="Oracle"):
            engine.answer_task(tiny_tasks[1][0], method="NoSuchMethod")

    def test_configure_auto_rejects_wrong_shapes(self, tiny_tasks):
        engine = self.make_engine(tiny_tasks)
        with pytest.raises(TypeError, match="select"):
            engine.configure_auto(selector=object())
        with pytest.raises(TypeError, match="predict_task"):
            engine.configure_auto(method_pool={"bad": object()})

    def test_end_to_end_auto_picks_known_best(self, tiny_tasks, tmp_path):
        """The ISSUE's e2e: log runs -> train selector -> auto picks best.

        Oracle and Noise are evaluated on the same rigged task set with a
        results store attached; a selector fitted from those logs must
        route ``method="auto"`` tasks to Oracle, and the pick must flow
        through EngineStats into the Prometheus text.
        """
        train, test = tiny_tasks
        tasks = TaskSet(name="sgsc-fixture", train=train, valid=[],
                        test=test)
        store = ResultsStore(tmp_path / "runs.jsonl")
        oracle, noise = OracleMethod(), NoiseMethod()
        for method in (oracle, noise):
            evaluate_method(method, tasks, make_rng(0), store=store)

        selector = MethodSelector(hidden_dim=8)
        selector.fit(store.records(), epochs=200, rng=make_rng(0))
        # Persist + reload: serving must work from the saved artifact.
        selector = MethodSelector.load(
            selector.save(str(tmp_path / "selector.npz")))

        engine = self.make_engine(tiny_tasks).configure_auto(
            selector=selector,
            method_pool={"Oracle": oracle, "Noise": noise})
        for task in test:
            predictions = engine.answer_task(task, method="auto",
                                             scenario="sgsc")
            for prediction, example in zip(predictions, task.queries):
                assert np.array_equal(prediction.members,
                                      np.flatnonzero(example.membership))

        stats = engine.stats()
        assert stats.auto_selections == len(test)
        assert stats.auto_fallbacks == 0
        assert stats.method_picks == {"Oracle": len(test)}
        assert stats.auto_select_seconds > 0.0

        text = ServeStats().with_engine(stats).metrics_text()
        assert f'repro_engine_method_picks_total{{method="Oracle"}} '\
            f'{len(test)}' in text
        assert f"repro_engine_auto_selections_total {len(test)}" in text

    def test_abstaining_selector_falls_back_and_logs(self, tiny_tasks,
                                                     caplog):
        import logging

        class Abstainer:
            def select(self, features, candidates=None):
                return None

        engine = self.make_engine(tiny_tasks)
        engine.configure_auto(selector=Abstainer(),
                              method_pool={"Oracle": OracleMethod()})
        task = tiny_tasks[1][0]
        with caplog.at_level(logging.INFO, logger="repro.api.engine"):
            predictions = engine.answer_task(task, method="auto")
        assert len(predictions) == len(task.queries)
        stats = engine.stats()
        assert stats.auto_fallbacks == 1
        assert stats.method_picks == {engine.native_method: 1}
        assert any("abstained" in message for message in caplog.messages)

    def test_meta_features_follow_a_delta(self, small_community_graph,
                                          tiny_tasks):
        # The auto path must route on the post-delta graph, not on
        # meta-features cached before the delta.
        class Recorder:
            def __init__(self):
                self.seen = []

            def select(self, features, candidates=None):
                self.seen.append(dict(features))
                return None

        sampler = TaskSampler(small_community_graph, subgraph_nodes=40,
                              num_support=2, num_query=2)
        task = sampler.sample_task(make_rng(4))
        recorder = Recorder()
        engine = self.make_engine(tiny_tasks).configure_auto(
            selector=recorder)
        engine.answer_task(task, method="auto")
        graph = task.graph
        present = {tuple(edge) for edge in graph.edges.tolist()}
        absent = [(u, v) for u in range(graph.num_nodes)
                  for v in range(u + 1, graph.num_nodes)
                  if (u, v) not in present][:3]
        engine.apply_delta(GraphDelta(add_edges=np.array(absent)), task=task)
        engine.answer_task(task, method="auto")
        assert recorder.seen[1]["log_num_edges"] == \
            task_meta_features(task)["log_num_edges"]
        assert recorder.seen[1]["log_num_edges"] > \
            recorder.seen[0]["log_num_edges"]

    def test_stats_snapshot_isolated_from_live_counters(self, tiny_tasks):
        engine = self.make_engine(tiny_tasks)
        task = tiny_tasks[1][0]
        engine.answer_task(task, method="auto")
        snapshot = engine.stats()
        snapshot.method_picks["Injected"] = 99
        assert "Injected" not in engine.stats().method_picks
