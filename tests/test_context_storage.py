"""Mixed-width context storage: parity, capacity and cache accounting.

The serving claim under test: storing cached contexts at float16 or
int8 (per-row symmetric scales) multiplies how many task sessions fit
in a fixed cache RAM budget while leaving the *served answers*
indistinguishable — identical membership sets at the default 0.5
threshold, hence exactly-zero F1 and decision-AUC gaps, for every
decoder.  Decodes under compacted storage run the final inner products
with a float64 accumulator so decode rounding never stacks on
quantisation error.

Also pinned here: the storage policy plumbing (default and scoped
override), the ``_StoredContext`` byte accounting that
feeds the ``context_cache_bytes`` gauge and
``contexts_bytes_evicted`` counter, and the gateway round-trip.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import CommunitySearchEngine
from repro.api.engine import _StoredContext
from repro.core import CGNP, CGNPConfig
from repro.eval.metrics import binary_metrics
from repro.graph import attributed_community_graph
from repro.nn.backend import (SUPPORTED_CONTEXT_STORAGE, context_storage,
                              default_context_storage,
                              resolve_context_storage)
from repro.nn.tensor import Tensor
from repro.serve import ServeGateway, ServeStats
from repro.tasks import TaskSampler
from repro.utils import make_rng

COMPACT = ("float32", "float16", "int8")


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with tie-averaged ranks (no sklearn dependency)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    for value in np.unique(scores):
        mask = scores == value
        if np.sum(mask) > 1:
            ranks[mask] = np.mean(ranks[mask])
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2)
                 / (n_pos * n_neg))


@pytest.fixture(scope="module")
def fixture_tasks():
    graph = attributed_community_graph(
        num_nodes=110, num_communities=3, avg_degree=6.0, mixing=0.15,
        num_attributes=12, rng=make_rng(5))
    sampler = TaskSampler(graph, subgraph_nodes=55, num_support=2,
                          num_query=3, num_positive=3, num_negative=6)
    return sampler.sample_tasks(4, make_rng(17))


def build_model(tasks, decoder="ip", conv="gcn"):
    dim = tasks[0].features().shape[1]
    return CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2, conv=conv,
                                decoder=decoder), make_rng(0))


class TestStoragePolicy:
    def test_supported_values(self):
        assert SUPPORTED_CONTEXT_STORAGE == ("full", "float32", "float16",
                                             "int8")
        for value in SUPPORTED_CONTEXT_STORAGE:
            assert resolve_context_storage(value) == value

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="context storage"):
            resolve_context_storage("float8")

    def test_default_and_scoped_override(self):
        assert default_context_storage() == "full"
        assert resolve_context_storage() == "full"
        with context_storage("int8"):
            assert resolve_context_storage() == "int8"
            with context_storage("float16"):
                assert resolve_context_storage() == "float16"
            assert resolve_context_storage() == "int8"
        assert resolve_context_storage() == "full"

    def test_engine_inherits_ambient_policy(self, fixture_tasks):
        model = build_model(fixture_tasks)
        with context_storage("float16"):
            engine = CommunitySearchEngine(model)
        assert engine.context_storage == "float16"
        assert CommunitySearchEngine(model).context_storage == "full"


class TestStoredContext:
    def test_full_is_zero_copy(self):
        data = np.arange(12.0).reshape(3, 4)
        stored = _StoredContext(Tensor(data), "full")
        assert stored.payload is data
        assert stored.tensor().data is data
        assert stored.nbytes == data.nbytes

    @pytest.mark.parametrize("storage", ["float32", "float16"])
    def test_float_downcast_roundtrip(self, storage):
        data = make_rng(0).normal(size=(5, 4))
        stored = _StoredContext(Tensor(data), storage)
        assert stored.payload.dtype == np.dtype(storage)
        back = stored.tensor().data
        assert back.dtype == data.dtype
        np.testing.assert_allclose(back, data,
                                   rtol=1e-3 if storage == "float16" else 1e-7)

    def test_int8_per_row_scales(self):
        data = np.array([[1.0, -2.0, 0.5],
                         [100.0, 50.0, -100.0],
                         [0.0, 0.0, 0.0]])          # zero row: scale guard
        stored = _StoredContext(Tensor(data), "int8")
        assert stored.payload.dtype == np.int8
        assert stored.scale.dtype == np.float32
        # Row maxima land exactly on ±127.
        assert stored.payload[0, 1] == -127
        assert stored.payload[1, 0] == 127
        np.testing.assert_array_equal(stored.payload[2], 0)
        back = stored.tensor().data
        assert back.dtype == data.dtype
        np.testing.assert_allclose(back, data, rtol=1e-2, atol=1e-8)
        np.testing.assert_array_equal(back[2], 0.0)

    def test_compaction_ratios(self):
        data = make_rng(1).normal(size=(64, 32))     # float64 compute
        full = _StoredContext(Tensor(data), "full").nbytes
        f16 = _StoredContext(Tensor(data), "float16").nbytes
        i8 = _StoredContext(Tensor(data), "int8").nbytes
        assert full == 4 * f16
        # int8 payload is 1/8th; per-row float32 scales add 4/width bytes.
        assert i8 == full // 8 + 64 * 4
        assert full >= 2 * i8                        # ≥2x capacity bar


class TestServingParity:
    @pytest.mark.parametrize("decoder", ["ip", "mlp", "gnn"])
    @pytest.mark.parametrize("storage", COMPACT)
    def test_zero_parity_gap(self, fixture_tasks, decoder, storage):
        """Membership sets identical ⇒ F1 and decision-AUC gaps exactly 0.

        The repo evaluates communities on *membership masks*
        (:func:`binary_metrics`), so that is the basis pinned at a zero
        gap.  Rank-AUC over the raw probabilities is deliberately NOT
        pinned to 0.0: an untrained fixture produces near-tied scores
        whose ordering under a ≤1e-3 quantisation perturbation is
        statistically meaningless — probabilities are instead bounded
        directly.
        """
        model = build_model(fixture_tasks, decoder=decoder)
        task = fixture_tasks[0]
        nodes = [int(example.query) for example in task.queries]
        reference = CommunitySearchEngine(model).attach(task) \
            .predict_proba(nodes)
        compact = CommunitySearchEngine(model, context_storage=storage) \
            .attach(task).predict_proba(nodes)
        # Identical membership sets at the default threshold, and
        # probabilities within quantisation tolerance of full storage.
        np.testing.assert_array_equal(compact >= 0.5, reference >= 0.5)
        tolerance = {"float32": 1e-4, "float16": 1e-2, "int8": 1e-2}[storage]
        assert np.max(np.abs(compact - reference)) <= tolerance
        # Decision-level metrics: F1 and AUC gaps are exactly 0.0.
        for row, (ref_row, example) in enumerate(
                zip(reference, task.queries)):
            truth = np.asarray(example.membership, dtype=bool)
            ref_members = ref_row >= 0.5
            got_members = compact[row] >= 0.5
            assert (binary_metrics(got_members, truth).f1
                    == binary_metrics(ref_members, truth).f1)
            assert (rank_auc(got_members, truth)
                    == rank_auc(ref_members, truth))

    @pytest.mark.parametrize("storage", COMPACT)
    def test_gateway_roundtrip(self, fixture_tasks, storage):
        # The micro-batching gateway decodes through the same stored
        # context: coalesced answers must be bitwise equal to direct
        # engine calls under every storage width.
        model = build_model(fixture_tasks)
        task = fixture_tasks[0]
        engine = CommunitySearchEngine(model, context_storage=storage) \
            .attach(task)
        direct = engine.predict_proba_many([[0, 3], [7]])

        async def scenario():
            gateway = ServeGateway(engine)      # manual mode: flush()
            first = asyncio.ensure_future(gateway.submit([0, 3]))
            second = asyncio.ensure_future(gateway.submit([7]))
            await asyncio.sleep(0)
            gateway.flush()
            return await first, await second

        got = asyncio.run(scenario())
        np.testing.assert_array_equal(got[0], direct[0])
        np.testing.assert_array_equal(got[1], direct[1])

    def test_query_membership_includes_query(self, fixture_tasks):
        model = build_model(fixture_tasks)
        engine = CommunitySearchEngine(model, context_storage="int8") \
            .attach(fixture_tasks[0])
        members = engine.query(0)
        assert 0 in members


class TestCacheAccounting:
    def test_bytes_gauge_tracks_inserts_and_detach(self, fixture_tasks):
        model = build_model(fixture_tasks)
        engine = CommunitySearchEngine(model, context_storage="int8")
        assert engine.stats().context_cache_bytes == 0
        engine.attach(fixture_tasks[0])
        first = engine.stats().context_cache_bytes
        assert first > 0
        engine.attach(fixture_tasks[1])
        assert engine.stats().context_cache_bytes > first
        engine.detach(fixture_tasks[1])
        assert engine.stats().context_cache_bytes == first
        engine.detach(fixture_tasks[0])
        assert engine.stats().context_cache_bytes == 0

    def test_bytes_gauge_survives_reset_stats(self, fixture_tasks):
        """``reset_stats`` zeroes counters, not the resident-bytes gauge:
        through attach, reset, evict and detach the gauge always equals
        the true sum over the LRU, and reads 0 once it is empty."""
        model = build_model(fixture_tasks)
        engine = CommunitySearchEngine(model, max_cached_contexts=2,
                                       context_storage="int8")

        def check():
            resident = sum(stored.nbytes
                           for stored in engine._contexts.values())
            assert engine.stats().context_cache_bytes == resident
            return resident

        engine.attach(fixture_tasks[0])
        engine.attach(fixture_tasks[1])
        before = check()
        assert before > 0
        engine.reset_stats()
        assert check() == before
        engine.attach(fixture_tasks[2])         # evicts task 0
        assert engine.stats().contexts_evicted == 1
        check()
        for task in fixture_tasks:
            engine.detach(task)
        assert check() == 0

    def test_eviction_counts_bytes(self, fixture_tasks):
        model = build_model(fixture_tasks)
        engine = CommunitySearchEngine(model, max_cached_contexts=2,
                                       context_storage="float16")
        engine.attach_many(fixture_tasks)
        stats = engine.stats()
        assert stats.contexts_evicted == len(fixture_tasks) - 2
        assert stats.contexts_bytes_evicted > 0
        resident = sum(stored.nbytes
                       for stored in engine._contexts.values())
        assert stats.context_cache_bytes == resident
        assert stats.context_storage == "float16"

    def test_refresh_replaces_without_eviction_counters(self, fixture_tasks):
        model = build_model(fixture_tasks)
        engine = CommunitySearchEngine(model, context_storage="int8")
        engine.attach(fixture_tasks[0])
        before = engine.stats()
        engine.attach(fixture_tasks[0], refresh=True)
        after = engine.stats()
        assert after.context_cache_bytes == before.context_cache_bytes
        assert after.contexts_evicted == 0
        assert after.contexts_bytes_evicted == 0

    def test_capacity_multiplier_at_fixed_ram(self, fixture_tasks):
        # The tentpole capacity claim, in miniature: at a fixed byte
        # budget, int8 storage holds ≥2x (here 4-8x) the sessions full
        # storage does.
        model = build_model(fixture_tasks)
        full = CommunitySearchEngine(model).attach(fixture_tasks[0])
        compact = CommunitySearchEngine(model, context_storage="int8") \
            .attach(fixture_tasks[0])
        per_full = full.stats().context_cache_bytes
        per_compact = compact.stats().context_cache_bytes
        assert per_full >= 2 * per_compact

    def test_as_dict_and_metrics_text(self, fixture_tasks):
        model = build_model(fixture_tasks)
        engine = CommunitySearchEngine(model, context_storage="float16")
        engine.attach(fixture_tasks[0])
        data = engine.stats().as_dict()
        assert data["context_cache_bytes"] > 0
        assert data["contexts_bytes_evicted"] == 0
        assert data["context_storage"] == "float16"
        text = ServeStats().with_engine(engine.stats()).metrics_text()
        assert ("repro_engine_context_cache_bytes "
                f"{data['context_cache_bytes']}") in text
        assert "repro_engine_contexts_bytes_evicted_total 0" in text
        assert 'repro_engine_context_storage_info{storage="float16"} 1' in text
