"""Tests for the experiment harness: profiles, the method factory and
smoke-scale runs of each experiment builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import MethodSpec, create_method
from repro.eval import (
    ALL_METHOD_NAMES,
    PAPER_REFERENCE_F1,
    PROFILES,
    ExperimentProfile,
    build_methods,
    run_ablation,
    run_effectiveness,
    run_groundtruth_sweep,
    run_scalability,
)

# A micro profile: the absolute minimum that still exercises every code
# path, so harness tests stay fast.
MICRO = ExperimentProfile(
    name="micro", num_train_tasks=3, num_valid_tasks=1, num_test_tasks=2,
    subgraph_nodes=50, num_query=3, dataset_scale=0.2,
    hidden_dim=8, num_layers=2, cgnp_epochs=4, pretrain_epochs=2,
    per_task_steps=6, inner_steps_train=2, inner_steps_test=3)


class TestProfiles:
    def test_registered_profiles(self):
        assert set(PROFILES) == {"smoke", "fast", "paper"}

    def test_paper_profile_matches_protocol(self):
        paper = PROFILES["paper"]
        assert paper.num_train_tasks == 100
        assert paper.num_valid_tasks == 50
        assert paper.num_test_tasks == 50
        assert paper.subgraph_nodes == 200
        assert paper.num_query == 30
        assert paper.cgnp_epochs == 200
        assert paper.hidden_dim == 128
        assert paper.num_layers == 3


class TestMethodFactory:
    @pytest.mark.parametrize("name", ALL_METHOD_NAMES)
    def test_every_method_builds(self, name):
        method = create_method(MethodSpec.from_profile(name, MICRO))
        assert method.name == name

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            create_method(MethodSpec.from_profile("GPT", MICRO))

    def test_build_methods_distinct_seeds(self):
        methods = build_methods(["CGNP-IP", "CGNP-MLP"], MICRO)
        assert [m.name for m in methods] == ["CGNP-IP", "CGNP-MLP"]

    def test_cgnp_variant_decoders(self):
        for decoder in ("ip", "mlp", "gnn"):
            method = create_method(MethodSpec.from_profile(
                f"CGNP-{decoder.upper()}", MICRO))
            assert method.model_config.decoder == decoder


class TestRegistryUnification:
    """The harness's ``build_methods`` and a direct
    ``create_method(MethodSpec.from_profile(...))`` construct the same
    thing for every paper method."""

    @pytest.mark.parametrize("name", ALL_METHOD_NAMES)
    def test_construction_paths_build_same_architecture(self, name):
        (harness,) = build_methods([name], MICRO)
        direct = create_method(MethodSpec.from_profile(name, MICRO))
        assert type(harness) is type(direct)
        assert harness.name == direct.name == name

    def test_build_methods_does_not_warn(self, recwarn):
        build_methods(["CTC"], MICRO)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestEffectiveness:
    def test_sgsc_two_methods(self):
        results = run_effectiveness("sgsc", "citeseer", MICRO, shots=(1,),
                                    method_names=("CTC", "CGNP-IP"))
        assert set(results) == {1}
        assert [r.method for r in results[1]] == ["CTC", "CGNP-IP"]
        for result in results[1]:
            assert 0.0 <= result.metrics.f1 <= 1.0

    def test_shot_sweep(self):
        results = run_effectiveness("sgsc", "citeseer", MICRO, shots=(1, 2),
                                    method_names=("CGNP-IP",))
        assert set(results) == {1, 2}

    def test_acq_skipped_without_attributes(self):
        results = run_effectiveness("sgsc", "dblp", MICRO, shots=(1,),
                                    method_names=("ACQ", "CTC"))
        names = [r.method for r in results[1]]
        assert "ACQ" not in names
        assert "CTC" in names

    def test_acq_included_with_attributes(self):
        results = run_effectiveness("sgsc", "citeseer", MICRO, shots=(1,),
                                    method_names=("ACQ",))
        assert [r.method for r in results[1]] == ["ACQ"]


class TestAblation:
    def test_layer_and_aggregator_axes(self):
        results = run_ablation("sgsc", "citeseer", MICRO,
                               convs=("gcn",), aggregators=("sum", "mean"))
        assert [r.method for r in results["layer"]] == ["CGNP-GNN[gcn]"]
        assert [r.method for r in results["aggregator"]] == [
            "CGNP-GNN[sum]", "CGNP-GNN[mean]"]


class TestScalability:
    def test_sizes_and_timing(self):
        results = run_scalability(MICRO, sizes=(50, 80),
                                  method_names=("Supervised", "CGNP-IP"))
        assert set(results) == {50, 80}
        for size_results in results.values():
            for result in size_results:
                assert result.test_time > 0


class TestGroundTruthSweep:
    def test_ratio_axis(self):
        ratios = ((0.05, 0.25), (0.20, 1.00))
        results = run_groundtruth_sweep("sgsc", "citeseer", MICRO,
                                        ratios=ratios,
                                        method_names=("CGNP-IP",))
        assert set(results) == set(ratios)


class TestPaperReference:
    def test_reference_values_in_unit_interval(self):
        for cell, methods in PAPER_REFERENCE_F1.items():
            for method, f1 in methods.items():
                assert 0.0 < f1 <= 1.0, (cell, method)

    def test_reference_covers_all_scenarios(self):
        scenarios = {key[1] for key in PAPER_REFERENCE_F1}
        assert scenarios == {"sgsc", "sgdc", "mgod", "mgdd"}
