"""Experiment harness: regenerate every table and figure of the paper.

Each experiment builder mirrors one artifact of section VII:

========  ===========================================================
id        paper artifact
========  ===========================================================
table2    Table II  — SGSC & SGDC effectiveness (4 datasets, 1/5-shot)
table3    Table III — MGOD (Facebook) & MGDD (Cite2Cora)
table4    Table IV  — ablation over GNN layer and commutative op
fig3      Fig. 3    — total test / meta-train time per method
fig4      Fig. 4    — scalability in the task-graph size (DBLP)
fig5      Fig. 5    — F1 vs ground-truth volume (1-shot)
========  ===========================================================

Experiments run at a named :class:`ExperimentProfile` scale.  ``paper``
matches the publication protocol (100/50/50 tasks, 200-node subgraphs,
200 epochs); ``fast`` and ``smoke`` shrink task counts and training
budgets so the whole suite executes on CPU in minutes — relative method
ordering, which is what the reproduction checks, is preserved.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.registry import MethodSpec, create_method
from ..baselines import CommunitySearchMethod
from ..tasks import ScenarioConfig, TaskSet, make_scenario
from ..utils import make_rng
from .evaluator import EvaluationResult, evaluate_method
from .store import ResultsStore

__all__ = [
    "ExperimentProfile",
    "PROFILES",
    "build_methods",
    "ALL_METHOD_NAMES",
    "run_effectiveness",
    "run_ablation",
    "run_scalability",
    "run_groundtruth_sweep",
    "PAPER_REFERENCE_F1",
]


@dataclasses.dataclass(frozen=True)
class ExperimentProfile:
    """Scale knobs shared by all experiments."""

    name: str
    num_train_tasks: int
    num_valid_tasks: int
    num_test_tasks: int
    subgraph_nodes: int
    num_query: int              # held-out queries per task
    dataset_scale: float        # node-count scale of the synthetic datasets
    hidden_dim: int
    num_layers: int
    cgnp_epochs: int
    pretrain_epochs: int        # FeatTrans / meta baselines outer epochs
    per_task_steps: int         # Supervised / AQD-GNN from-scratch steps
    inner_steps_train: int
    inner_steps_test: int


PROFILES: Dict[str, ExperimentProfile] = {
    # CI-speed: minutes for the full bench suite.
    "smoke": ExperimentProfile(
        name="smoke", num_train_tasks=6, num_valid_tasks=2, num_test_tasks=3,
        subgraph_nodes=60, num_query=5, dataset_scale=0.25,
        hidden_dim=32, num_layers=2, cgnp_epochs=25, pretrain_epochs=6,
        per_task_steps=40, inner_steps_train=5, inner_steps_test=10),
    # Default bench scale: clearer separations, still CPU-friendly.
    "fast": ExperimentProfile(
        name="fast", num_train_tasks=16, num_valid_tasks=4, num_test_tasks=8,
        subgraph_nodes=100, num_query=8, dataset_scale=0.5,
        hidden_dim=64, num_layers=2, cgnp_epochs=60, pretrain_epochs=12,
        per_task_steps=80, inner_steps_train=8, inner_steps_test=15),
    # The publication protocol.
    "paper": ExperimentProfile(
        name="paper", num_train_tasks=100, num_valid_tasks=50, num_test_tasks=50,
        subgraph_nodes=200, num_query=30, dataset_scale=1.0,
        hidden_dim=128, num_layers=3, cgnp_epochs=200, pretrain_epochs=200,
        per_task_steps=200, inner_steps_train=10, inner_steps_test=20),
}

#: Every method name of the paper's comparison (Table II column order).
#: Each resolves through :mod:`repro.api.registry`, which orders
#: ``available_methods()`` identically — a tier-1 test pins the two lists
#: to each other.
ALL_METHOD_NAMES = (
    "ATC", "ACQ", "CTC",
    "MAML", "Reptile", "FeatTrans", "GPN", "Supervised", "ICS-GNN", "AQD-GNN",
    "CGNP-IP", "CGNP-MLP", "CGNP-GNN",
)

#: Lean roster used by the fast benches (graph algos + one per family).
CORE_METHOD_NAMES = (
    "CTC", "MAML", "Reptile", "FeatTrans", "GPN", "Supervised",
    "ICS-GNN", "AQD-GNN", "CGNP-IP", "CGNP-MLP", "CGNP-GNN",
)


def _build(name: str, profile: ExperimentProfile, seed: int = 0,
           conv: str = "gat", aggregator: str = "sum") -> CommunitySearchMethod:
    """Registry-backed construction used throughout this module."""
    return create_method(MethodSpec.from_profile(
        name, profile, seed=seed, conv=conv, aggregator=aggregator))


def build_methods(names: Sequence[str], profile: ExperimentProfile,
                  seed: int = 0) -> List[CommunitySearchMethod]:
    return [_build(name, profile, seed=seed + i)
            for i, name in enumerate(names)]


def _experiment_tags(experiment: str, profile: ExperimentProfile,
                     tags: Optional[Dict[str, str]]) -> Dict[str, str]:
    """Default record tags: experiment id + profile, caller tags win."""
    merged = {"experiment": experiment, "profile": profile.name}
    merged.update(tags or {})
    return merged


def _scenario_config(profile: ExperimentProfile, seed: int,
                     positive_fraction: Optional[float] = None,
                     negative_fraction: Optional[float] = None,
                     subgraph_nodes: Optional[int] = None) -> ScenarioConfig:
    return ScenarioConfig(
        num_train_tasks=profile.num_train_tasks,
        num_valid_tasks=profile.num_valid_tasks,
        num_test_tasks=profile.num_test_tasks,
        subgraph_nodes=subgraph_nodes or profile.subgraph_nodes,
        num_query=profile.num_query,
        positive_fraction=positive_fraction,
        negative_fraction=negative_fraction,
        seed=seed,
    )


def run_effectiveness(scenario: str, dataset: str, profile: ExperimentProfile,
                      shots: Sequence[int] = (1, 5),
                      method_names: Sequence[str] = CORE_METHOD_NAMES,
                      seed: int = 0,
                      store: Optional[ResultsStore] = None,
                      tags: Optional[Dict[str, str]] = None
                      ) -> Dict[int, List[EvaluationResult]]:
    """Tables II/III: metrics per method per shot count.

    ``scenario`` ∈ {sgsc, sgdc, mgod, mgdd}; for mgdd pass
    ``dataset="cite2cora"``.  ``store=`` logs every evaluation
    (per-task + aggregate records) for ``repro results`` and selector
    training.
    """
    config = _scenario_config(profile, seed)
    config.num_support = max(shots)
    # The ego networks degenerate below ~half scale (circles of 2-3 alters
    # in a 20-node graph), so MGOD keeps a floor on the dataset scale.
    scale = profile.dataset_scale if scenario != "mgod" \
        else max(profile.dataset_scale, 0.6)
    tasks = make_scenario(scenario, dataset, config, scale=scale)
    tags = _experiment_tags("effectiveness", profile, tags)

    results: Dict[int, List[EvaluationResult]] = {}
    rng = make_rng(seed + 1)
    for shot in shots:
        shot_results = []
        for name in method_names:
            if name == "ACQ" and tasks.test[0].graph.attributes is None:
                continue  # ACQ cannot run without attributes (paper, §VII-B)
            method = _build(name, profile, seed=seed)
            child = np.random.default_rng(rng.integers(0, 2 ** 31 - 1))
            shot_results.append(evaluate_method(
                method, tasks, child, num_shots=shot, store=store,
                scenario=scenario, dataset=dataset, seed=seed, tags=tags))
        results[shot] = shot_results
    return results


def run_ablation(scenario: str, dataset: str, profile: ExperimentProfile,
                 convs: Sequence[str] = ("gcn", "gat", "sage"),
                 aggregators: Sequence[str] = ("attention", "sum", "mean"),
                 seed: int = 0,
                 store: Optional[ResultsStore] = None,
                 tags: Optional[Dict[str, str]] = None
                 ) -> Dict[str, List[EvaluationResult]]:
    """Table IV: CGNP-GNN varying the encoder conv (⊕ fixed to mean) and
    the commutative op (conv fixed to GAT)."""
    config = _scenario_config(profile, seed)
    tasks = make_scenario(scenario, dataset, config, scale=profile.dataset_scale)
    rng = make_rng(seed + 1)
    tags = _experiment_tags("ablation", profile, tags)

    layer_results = []
    for conv in convs:
        method = _build("cgnp-gnn", profile, seed=seed,
                        conv=conv, aggregator="mean")
        method.name = f"CGNP-GNN[{conv}]"
        child = np.random.default_rng(rng.integers(0, 2 ** 31 - 1))
        layer_results.append(evaluate_method(
            method, tasks, child, store=store, scenario=scenario,
            dataset=dataset, seed=seed, tags=tags))

    agg_results = []
    for aggregator in aggregators:
        method = _build("cgnp-gnn", profile, seed=seed,
                        conv="gat", aggregator=aggregator)
        method.name = f"CGNP-GNN[{aggregator}]"
        child = np.random.default_rng(rng.integers(0, 2 ** 31 - 1))
        agg_results.append(evaluate_method(
            method, tasks, child, store=store, scenario=scenario,
            dataset=dataset, seed=seed, tags=tags))

    return {"layer": layer_results, "aggregator": agg_results}


def run_scalability(profile: ExperimentProfile,
                    sizes: Sequence[int] = (200, 1000, 5000, 10000),
                    method_names: Sequence[str] = ("MAML", "FeatTrans",
                                                   "Supervised", "CGNP-IP"),
                    dataset: str = "dblp", seed: int = 0,
                    store: Optional[ResultsStore] = None,
                    tags: Optional[Dict[str, str]] = None
                    ) -> Dict[int, List[EvaluationResult]]:
    """Fig. 4: train/test wall-clock as the task-graph size grows."""
    results: Dict[int, List[EvaluationResult]] = {}
    tags = _experiment_tags("scalability", profile, tags)
    for size in sizes:
        config = _scenario_config(profile, seed, subgraph_nodes=size)
        # Fewer tasks at the largest sizes keeps the sweep tractable.
        config.num_train_tasks = max(2, profile.num_train_tasks // 4)
        config.num_valid_tasks = 1
        config.num_test_tasks = max(1, profile.num_test_tasks // 4)
        tasks = make_scenario("sgsc", dataset, config, scale=profile.dataset_scale)
        rng = make_rng(seed + size)
        size_results = []
        for name in method_names:
            method = _build(name, profile, seed=seed)
            child = np.random.default_rng(rng.integers(0, 2 ** 31 - 1))
            size_results.append(evaluate_method(
                method, tasks, child, store=store, scenario="sgsc",
                dataset=dataset, seed=seed,
                tags={**tags, "subgraph_nodes": str(size)}))
        results[size] = size_results
    return results


def run_groundtruth_sweep(scenario: str, dataset: str, profile: ExperimentProfile,
                          ratios: Sequence[Tuple[float, float]] = (
                              (0.02, 0.10), (0.05, 0.25), (0.10, 0.50),
                              (0.15, 0.75), (0.20, 1.00)),
                          method_names: Sequence[str] = ("Supervised", "FeatTrans",
                                                         "GPN", "CGNP-IP"),
                          seed: int = 0,
                          store: Optional[ResultsStore] = None,
                          tags: Optional[Dict[str, str]] = None
                          ) -> Dict[Tuple[float, float], List[EvaluationResult]]:
    """Fig. 5: 1-shot F1 as the per-query label volume grows."""
    results: Dict[Tuple[float, float], List[EvaluationResult]] = {}
    tags = _experiment_tags("groundtruth", profile, tags)
    for pos_frac, neg_frac in ratios:
        config = _scenario_config(profile, seed, positive_fraction=pos_frac,
                                  negative_fraction=neg_frac)
        config.num_support = 1
        tasks = make_scenario(scenario, dataset, config, scale=profile.dataset_scale)
        rng = make_rng(seed + int(pos_frac * 1000))
        ratio_results = []
        for name in method_names:
            method = _build(name, profile, seed=seed)
            child = np.random.default_rng(rng.integers(0, 2 ** 31 - 1))
            ratio_results.append(evaluate_method(
                method, tasks, child, num_shots=1, store=store,
                scenario=scenario, dataset=dataset, seed=seed,
                tags={**tags, "labels": f"{pos_frac}/{neg_frac}"}))
        results[(pos_frac, neg_frac)] = ratio_results
    return results


#: Key F1 cells of Tables II/III (paper values, arXiv 2201.00288) for
#: side-by-side reporting in the bench output.  Layout:
#: {(dataset, scenario, shots): {method: f1}}.
PAPER_REFERENCE_F1: Dict[Tuple[str, str, int], Dict[str, float]] = {
    ("citeseer", "sgsc", 1): {"CGNP-IP": 0.6734, "CGNP-MLP": 0.6523,
                              "CGNP-GNN": 0.6878, "Supervised": 0.5293,
                              "Reptile": 0.5495, "AQD-GNN": 0.5079,
                              "GPN": 0.1332, "CTC": 0.0440, "ATC": 0.1856},
    ("citeseer", "sgsc", 5): {"CGNP-IP": 0.6855, "CGNP-MLP": 0.6723,
                              "CGNP-GNN": 0.6914, "Supervised": 0.5646,
                              "AQD-GNN": 0.6270},
    ("citeseer", "sgdc", 1): {"CGNP-IP": 0.6327, "CGNP-GNN": 0.6446,
                              "Supervised": 0.5198, "GPN": 0.5302},
    ("citeseer", "sgdc", 5): {"CGNP-MLP": 0.6466, "Supervised": 0.5795},
    ("arxiv", "sgsc", 1): {"CGNP-IP": 0.5966, "CGNP-GNN": 0.6032,
                           "AQD-GNN": 0.4901, "ICS-GNN": 0.3019},
    ("arxiv", "sgdc", 5): {"CGNP-IP": 0.6306, "CGNP-GNN": 0.6229,
                           "GPN": 0.5397},
    ("reddit", "sgdc", 1): {"CGNP-GNN": 0.9235, "CGNP-MLP": 0.8915,
                            "GPN": 0.8024, "AQD-GNN": 0.7673},
    ("reddit", "sgdc", 5): {"CGNP-GNN": 0.9238, "CGNP-MLP": 0.9218,
                            "AQD-GNN": 0.8672},
    ("dblp", "sgsc", 1): {"ICS-GNN": 0.4044, "CGNP-IP": 0.3507,
                          "CGNP-MLP": 0.3499, "ATC": 0.2919},
    ("dblp", "sgdc", 5): {"CGNP-MLP": 0.4851, "CGNP-IP": 0.4725,
                          "AQD-GNN": 0.4192},
    ("facebook", "mgod", 1): {"ICS-GNN": 0.5659, "CGNP-MLP": 0.4781,
                              "CGNP-IP": 0.4733, "CTC": 0.4710},
    ("facebook", "mgod", 5): {"CGNP-GNN": 0.5678, "ICS-GNN": 0.5704,
                              "CGNP-MLP": 0.5372},
    ("cite2cora", "mgdd", 1): {"CGNP-GNN": 0.6623, "CGNP-MLP": 0.6537,
                               "CGNP-IP": 0.6525, "AQD-GNN": 0.5343,
                               "Supervised": 0.4711},
    ("cite2cora", "mgdd", 5): {"CGNP-IP": 0.6601, "CGNP-MLP": 0.6548,
                               "Supervised": 0.5729},
}
