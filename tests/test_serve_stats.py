"""Tests for ``repro.serve.stats``: histograms, ServeStats, Prometheus text."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from repro.api.engine import EngineStats, metric
from repro.serve import (BATCH_SIZE_BUCKETS, LATENCY_BUCKETS, Histogram,
                         ServeStats, batch_size_histogram, latency_histogram)


#: One ``name="value"`` label pair; a value may hold escaped characters.
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)",?')


def unescape(text: str, quote: bool) -> str:
    """Undo the text format's escapes: ``\\\\`` and ``\\n`` always,
    ``\\"`` only in label values (``quote=True``)."""
    table = {"\\": "\\", "n": "\n", **({'"': '"'} if quote else {})}
    return re.sub(r"\\(.)", lambda match: table[match.group(1)], text)


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram([])

    def test_observe_counts_and_moments(self):
        hist = Histogram([1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.total == pytest.approx(560.5)
        assert hist.mean == pytest.approx(112.1)
        assert hist.min_observed == 0.5
        assert hist.max_observed == 500.0
        assert hist.counts == [1, 2, 1, 1]   # trailing +Inf bucket

    def test_bucket_bounds_are_le_inclusive(self):
        """Prometheus ``le`` semantics: a value ON a bound joins that bucket."""
        hist = Histogram([1.0, 2.0])
        hist.observe(1.0)
        hist.observe(2.0)
        assert hist.counts == [1, 1, 0]

    def test_single_value_reported_at_every_quantile(self):
        hist = latency_histogram()
        hist.observe(0.0123)
        for q in (0, 1, 50, 95, 99, 100):
            assert hist.percentile(q) == pytest.approx(0.0123)

    def test_percentile_monotone_in_q(self):
        rng = np.random.default_rng(0)
        hist = latency_histogram()
        for value in rng.exponential(0.01, size=500):
            hist.observe(value)
        quantiles = [hist.percentile(q) for q in range(0, 101, 5)]
        assert all(b >= a for a, b in zip(quantiles, quantiles[1:]))

    def test_percentile_tracks_exact_percentile(self):
        """Interpolated estimates stay within a bucket of the exact value."""
        rng = np.random.default_rng(1)
        values = rng.exponential(0.02, size=2000)
        hist = latency_histogram()
        for value in values:
            hist.observe(value)
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            estimate = hist.percentile(q)
            # Geometric buckets with factor 1.5: the estimate lives in the
            # same bucket as the exact quantile, so at most 50% off.
            assert estimate == pytest.approx(exact, rel=0.5)

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            latency_histogram().percentile(101)

    def test_empty_histogram(self):
        hist = latency_histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0.0

    def test_overflow_bucket_reports_observed_max(self):
        hist = Histogram([1.0])
        hist.observe(123.0)
        assert hist.percentile(99) == 123.0

    def test_copy_is_isolated(self):
        """Stats snapshots deep-copy their histograms."""
        hist = latency_histogram()
        hist.observe(0.5)
        clone = copy.deepcopy(hist)
        clone.observe(5.0)
        assert hist.count == 1 and clone.count == 2

    def test_as_dict_buckets_cumulative(self):
        hist = batch_size_histogram()
        for value in (1, 3, 3, 9, 10_000):
            hist.observe(value)
        data = hist.as_dict()
        cumulative = list(data["buckets"].values())
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert data["buckets"]["+Inf"] == data["count"] == 5
        json.dumps(data)

    def test_default_bucket_layouts(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-5)
        assert len(LATENCY_BUCKETS) == 43
        assert BATCH_SIZE_BUCKETS[0] == 1.0


class TestServeStats:
    def make_stats(self) -> ServeStats:
        stats = ServeStats(submitted=10, completed=7, rejected=1, cancelled=1,
                           failed=1, busy_ticks=3, empty_ticks=2,
                           queue_depth_high_water=4)
        for value in (0.001, 0.002, 0.04):
            stats.queue_wait.observe(value)
            stats.request_latency.observe(value * 2)
        stats.tick_batch_requests.observe(3)
        return stats

    def test_as_dict_round_trips_through_json(self):
        stats = self.make_stats()
        # numpy scalars sneaking into counters must not break json.dumps.
        stats.queries_served = np.int64(42)
        stats.decode_seconds = np.float64(0.5)
        data = json.loads(json.dumps(stats.as_dict()))
        assert data["queries_served"] == 42
        assert data["submitted"] == 10
        assert data["request_latency"]["count"] == 3

    def test_with_engine_merges_and_isolates(self):
        stats = self.make_stats()
        engine_stats = EngineStats(queries_served=99, decode_calls=3,
                                   backend="numpy")
        merged = stats.with_engine(engine_stats)
        assert merged.queries_served == 99
        assert merged.decode_calls == 3
        assert merged.backend == "numpy"
        assert merged.submitted == 10
        # Histograms are copies: mutating the snapshot leaves the live
        # stats untouched.
        merged.queue_wait.observe(9.0)
        assert stats.queue_wait.count == 3

    def test_inherits_engine_derived_metrics(self):
        stats = ServeStats(queries_served=10, decode_seconds=2.0)
        assert stats.queries_per_second == pytest.approx(5.0)


class TestMetricsText:
    """``metrics_text`` must parse as Prometheus text exposition format."""

    def parse(self, text: str):
        """Minimal Prometheus text-format parser: returns (types, helps,
        samples) with HELP text and label values unescaped."""
        assert text.endswith("\n")
        types, helps, samples = {}, {}, []
        for line in text.splitlines():
            assert line == line.strip() and line
            if line.startswith("# HELP "):
                name, help_text = line[len("# HELP "):].split(" ", 1)
                helps[name] = unescape(help_text, quote=False)
                continue
            if line.startswith("# TYPE "):
                name, kind = line[len("# TYPE "):].split(" ")
                assert kind in ("counter", "gauge", "histogram")
                types[name] = kind
                continue
            assert not line.startswith("#")
            name = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
            rest, labels = line[len(name):], {}
            if rest.startswith("{"):
                pos = 1
                while rest[pos] != "}":
                    pair = LABEL_PAIR.match(rest, pos)
                    assert pair, f"malformed labels in {line!r}"
                    labels[pair.group(1)] = unescape(pair.group(2),
                                                     quote=True)
                    pos = pair.end()
                rest = rest[pos + 1:]
            assert rest.startswith(" ") and " " not in rest[1:]
            samples.append((name, labels, float(rest[1:])))
        return types, helps, samples

    def sample_stats(self) -> ServeStats:
        stats = ServeStats(submitted=5, completed=4, rejected=1,
                           busy_ticks=2, empty_ticks=1,
                           queue_depth_high_water=2,
                           queries_served=8, batches_served=4,
                           decode_calls=2, decode_seconds=0.01,
                           backend="numpy")
        for value in (0.001, 0.003, 0.2):
            stats.queue_wait.observe(value)
            stats.request_latency.observe(value)
        stats.tick_batch_requests.observe(2)
        stats.tick_batch_requests.observe(2)
        return stats

    def test_every_sample_is_declared(self):
        types, helps, samples = self.parse(self.sample_stats().metrics_text())
        assert types.keys() == helps.keys()
        for name, _labels, _value in samples:
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[:-len(suffix)] in types:
                    base = name[:-len(suffix)]
            assert base in types, f"undeclared metric {name}"
            if base != name:
                assert types[base] == "histogram"

    def test_counters_follow_naming_convention(self):
        types, _helps, _samples = self.parse(
            self.sample_stats().metrics_text())
        for name, kind in types.items():
            if kind == "counter":
                assert name.endswith("_total"), name

    def test_histogram_buckets_cumulative_and_consistent(self):
        types, _helps, samples = self.parse(self.sample_stats().metrics_text())
        histograms = [name for name, kind in types.items()
                      if kind == "histogram"]
        assert "repro_serve_request_latency_seconds" in histograms
        for name in histograms:
            buckets = [(labels["le"], value) for metric, labels, value
                       in samples if metric == f"{name}_bucket"]
            count = next(value for metric, _labels, value in samples
                         if metric == f"{name}_count")
            assert buckets[-1][0] == "+Inf"
            assert buckets[-1][1] == count
            values = [value for _le, value in buckets]
            assert all(b >= a for a, b in zip(values, values[1:]))
            bounds = [float(le) for le, _value in buckets[:-1]]
            assert bounds == sorted(bounds)

    def test_outcome_labels_and_backend_info(self):
        _types, _helps, samples = self.parse(self.sample_stats().metrics_text())
        outcomes = {labels["outcome"]: value for name, labels, value in samples
                    if name == "repro_serve_requests_total"}
        assert outcomes == {"completed": 4.0, "rejected": 1.0,
                            "cancelled": 0.0, "failed": 0.0}
        backend = [labels for name, labels, _value in samples
                   if name == "repro_engine_backend_info"]
        assert backend == [{"backend": "numpy"}]

    def test_label_values_round_trip_escapes(self):
        stats = self.sample_stats()
        awkward = ['CGNP "v2"\nx', "back\\slash", "plain"]
        stats.method_picks = {name: i + 1 for i, name in enumerate(awkward)}
        text = stats.metrics_text()
        _types, _helps, samples = self.parse(text)
        picks = {labels["method"]: value for name, labels, value in samples
                 if name == "repro_engine_method_picks_total"}
        assert picks == {name: float(i + 1) for i, name in enumerate(awkward)}
        assert 'method="CGNP \\"v2\\"\\nx"' in text
        assert 'method="back\\\\slash"' in text

    def test_help_text_round_trips_escapes(self):
        @dataclasses.dataclass
        class OddStats(ServeStats):
            odd: int = metric("gauge", "demo_odd", 'Two\nlines, a \\ and "q".')

        _types, helps, _samples = self.parse(OddStats(odd=1).metrics_text())
        assert helps["demo_odd"] == 'Two\nlines, a \\ and "q".'


def populated_stats() -> ServeStats:
    """A snapshot with every field non-zero and two method picks."""
    stats = ServeStats(
        queries_served=8, batches_served=4, decode_calls=2,
        contexts_encoded=3, context_cache_hits=5, context_cache_misses=3,
        contexts_evicted=1, context_cache_bytes=3840,
        contexts_bytes_evicted=1920, context_seconds=0.25,
        decode_seconds=0.01, first_query_at=100.0, last_query_at=102.5,
        backend="numpy", context_storage="int8",
        graph_resident_bytes=65536, shard_count=2, deltas_applied=6,
        rows_repaired=40, contexts_dirtied=2, auto_selections=3,
        auto_fallbacks=1, auto_select_seconds=0.002,
        method_picks={"CGNP": 3, "CTC": 1}, submitted=12, completed=7,
        rejected=2, cancelled=1, failed=1, busy_ticks=3, empty_ticks=2,
        queue_depth_high_water=4)
    for value in (0.001, 0.003, 0.2):
        stats.queue_wait.observe(value)
        stats.request_latency.observe(2 * value)
    stats.tick_batch_requests.observe(2)
    stats.tick_batch_requests.observe(5)
    return stats


class TestExpositionSpec:
    """The exposition of :func:`populated_stats` as the compatibility
    spec: family names, types, HELP text and sample values are pinned to
    what the hand-written renderer produced before metrics were declared
    on the stats fields.  Only line order may change."""

    FAMILIES = {
        "repro_serve_requests_total": (
            "counter", "Requests by final outcome."),
        "repro_serve_requests_submitted_total": (
            "counter", "Requests accepted into the gateway queue."),
        "repro_serve_ticks_total": ("counter", "Flush ticks by kind."),
        "repro_serve_queue_depth_high_water": (
            "gauge", "Deepest the bounded request queue has been."),
        "repro_serve_queue_wait_seconds": (
            "histogram", "Submit-to-flush wait inside the queue."),
        "repro_serve_request_latency_seconds": (
            "histogram", "Submit-to-answer latency of completed requests."),
        "repro_serve_tick_batch_requests": (
            "histogram", "Requests coalesced per busy tick."),
        "repro_engine_queries_served_total": (
            "counter", "Individual query nodes answered by the engine."),
        "repro_engine_batches_served_total": (
            "counter", "Logical request batches answered by the engine."),
        "repro_engine_decode_calls_total": (
            "counter", "Decoder passes (one per coalesced tick group)."),
        "repro_engine_decode_seconds_total": (
            "counter", "Wall-clock seconds inside the decoder."),
        "repro_engine_contexts_encoded_total": (
            "counter", "Task contexts encoded (cache misses that did work)."),
        "repro_engine_context_seconds_total": (
            "counter", "Wall-clock seconds encoding task contexts (encoder "
                       "plus the decoder's context transform)."),
        "repro_engine_context_cache_hits_total": (
            "counter", "Context LRU hits."),
        "repro_engine_context_cache_misses_total": (
            "counter", "Context LRU misses."),
        "repro_engine_contexts_evicted_total": (
            "counter", "Context LRU evictions."),
        "repro_engine_context_cache_bytes": (
            "gauge", "Resident bytes of the context LRU (payloads + scales)."),
        "repro_engine_contexts_bytes_evicted_total": (
            "counter", "Cumulative bytes reclaimed by context LRU eviction."),
        "repro_engine_deltas_applied_total": (
            "counter", "Graph deltas applied through the engine."),
        "repro_engine_rows_repaired_total": (
            "counter", "Operator rows rewritten in place by delta repair."),
        "repro_engine_contexts_dirtied_total": (
            "counter", "Cached task contexts invalidated for lazy "
                       "re-encoding by a delta's dirty frontier."),
        "repro_engine_auto_selections_total": (
            "counter",
            'Tasks routed by the meta-method selector (method="auto").'),
        "repro_engine_auto_fallbacks_total": (
            "counter", "auto tasks served by the native model because the "
                       "selector abstained or none is configured."),
        "repro_engine_auto_select_seconds_total": (
            "counter", "Wall-clock seconds extracting meta-features and "
                       "scoring candidates on the auto path."),
        "repro_engine_method_picks_total": (
            "counter", "Tasks answered per method via answer_task."),
        "repro_engine_graph_resident_bytes": (
            "gauge", "Estimated anonymous-RAM bytes of the active task "
                     "graph (operators + feature working set)."),
        "repro_engine_shard_count": (
            "gauge", "Row shards of the active task graph (1 = dense, "
                     "0 = no task attached)."),
        "repro_engine_backend_info": (
            "gauge", "Active array backend (value is always 1)."),
        "repro_engine_context_storage_info": (
            "gauge", "Context cache storage width (value is always 1)."),
    }

    #: Every sorted sample line except the histogram ``_bucket`` series.
    SAMPLES = [
        'repro_engine_auto_fallbacks_total 1',
        'repro_engine_auto_select_seconds_total 0.002',
        'repro_engine_auto_selections_total 3',
        'repro_engine_backend_info{backend="numpy"} 1',
        'repro_engine_batches_served_total 4',
        'repro_engine_context_cache_bytes 3840',
        'repro_engine_context_cache_hits_total 5',
        'repro_engine_context_cache_misses_total 3',
        'repro_engine_context_seconds_total 0.25',
        'repro_engine_context_storage_info{storage="int8"} 1',
        'repro_engine_contexts_bytes_evicted_total 1920',
        'repro_engine_contexts_dirtied_total 2',
        'repro_engine_contexts_encoded_total 3',
        'repro_engine_contexts_evicted_total 1',
        'repro_engine_decode_calls_total 2',
        'repro_engine_decode_seconds_total 0.01',
        'repro_engine_deltas_applied_total 6',
        'repro_engine_graph_resident_bytes 65536',
        'repro_engine_method_picks_total{method="CGNP"} 3',
        'repro_engine_method_picks_total{method="CTC"} 1',
        'repro_engine_queries_served_total 8',
        'repro_engine_rows_repaired_total 40',
        'repro_engine_shard_count 2',
        'repro_serve_queue_depth_high_water 4',
        'repro_serve_queue_wait_seconds_count 3',
        'repro_serve_queue_wait_seconds_sum 0.204',
        'repro_serve_request_latency_seconds_count 3',
        'repro_serve_request_latency_seconds_sum 0.408',
        'repro_serve_requests_submitted_total 12',
        'repro_serve_requests_total{outcome="cancelled"} 1',
        'repro_serve_requests_total{outcome="completed"} 7',
        'repro_serve_requests_total{outcome="failed"} 1',
        'repro_serve_requests_total{outcome="rejected"} 2',
        'repro_serve_tick_batch_requests_count 2',
        'repro_serve_tick_batch_requests_sum 7',
        'repro_serve_ticks_total{kind="busy"} 3',
        'repro_serve_ticks_total{kind="empty"} 2',
    ]

    #: sha256 of the whole sorted exposition, ``_bucket`` series included.
    SORTED_SHA256 = ("b660ab7b5dc111d0abf4dbc44e10ae2b"
                     "557921c835e5cbc90bd2138b53071917")

    AS_DICT_KEYS = {
        "auto_fallbacks", "auto_select_seconds", "auto_selections",
        "backend", "batches_served", "busy_ticks", "cancelled", "completed",
        "context_cache_bytes", "context_cache_hits", "context_cache_misses",
        "context_seconds", "context_storage", "contexts_bytes_evicted",
        "contexts_dirtied", "contexts_encoded", "contexts_evicted",
        "decode_calls", "decode_seconds", "deltas_applied", "empty_ticks",
        "failed", "first_query_at", "graph_resident_bytes",
        "last_query_at", "method_picks", "queries_per_second",
        "queries_served", "queue_depth_high_water", "queue_wait",
        "rejected", "request_latency", "rows_repaired", "shard_count",
        "submitted", "tick_batch_requests", "ticks", "wall_seconds",
    }

    #: Stats fields deliberately left out of the exposition.
    NOT_EXPORTED = {"first_query_at", "last_query_at"}

    def test_family_table(self):
        lines = populated_stats().metrics_text().splitlines()
        helps = dict(line[len("# HELP "):].split(" ", 1) for line in lines
                     if line.startswith("# HELP "))
        types = dict(line[len("# TYPE "):].split(" ") for line in lines
                     if line.startswith("# TYPE "))
        assert len(self.FAMILIES) == 29
        assert {name: (types[name], helps[name]) for name in types} \
            == self.FAMILIES

    def test_sorted_samples(self):
        lines = sorted(populated_stats().metrics_text().splitlines())
        assert [line for line in lines if not line.startswith("#")
                and "_bucket{" not in line] == self.SAMPLES
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.SORTED_SHA256

    def test_as_dict_keys_and_values(self):
        data = json.loads(json.dumps(populated_stats().as_dict()))
        assert set(data) == self.AS_DICT_KEYS
        assert data["ticks"] == 5 and data["busy_ticks"] == 3
        assert data["method_picks"] == {"CGNP": 3, "CTC": 1}
        assert data["wall_seconds"] == pytest.approx(2.5)
        assert data["queries_per_second"] == pytest.approx(800.0)
        assert data["queue_wait"]["count"] == 3

    def test_every_field_is_exported_or_listed(self):
        for field in dataclasses.fields(ServeStats):
            assert ("metric" in field.metadata) \
                != (field.name in self.NOT_EXPORTED), field.name
