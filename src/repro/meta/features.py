"""Cheap per-task meta-features for method selection.

The ADGym recipe: describe each task with a handful of statistics that
are **orders of magnitude cheaper than running any method on it**, and
let a predictor trained on logged evaluation runs map those statistics
to an expected score per method.  Everything here is O(nodes + edges)
or bounded-sample work — extraction must stay well under the per-query
decode budget, because the engine's ``method="auto"`` path pays it on
the serving hot path (once per task, cached).

The feature vector layout is **part of the selector artifact contract**:
:data:`META_FEATURE_NAMES` is persisted in the artifact header and
validated at load, so reordering or renaming a feature is a format
change, not a refactor.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List

import numpy as np

from ..tasks.scenarios import SCENARIOS
from ..tasks.task import Task

__all__ = ["META_FEATURE_NAMES", "task_meta_features", "feature_vector"]

#: Nodes sampled (deterministically) for the clustering proxy.
_CLUSTERING_SAMPLE = 32
#: Neighbour cap per sampled node — keeps the proxy O(1) per node even
#: on hub-heavy graphs.
_NEIGHBOR_CAP = 10

#: Neighbour-position pairs ``(i, j)``, ``i < j < _NEIGHBOR_CAP``: the
#: wedges of a capped neighbour list of length ``k`` are the pairs with
#: ``j < k``.
_PAIR_I, _PAIR_J = np.triu_indices(_NEIGHBOR_CAP, 1)
#: Wedges of a capped neighbour list, by its length ``k``: ``k(k-1)/2``.
_WEDGES = np.array([k * (k - 1) // 2 for k in range(_NEIGHBOR_CAP + 1)])

#: Canonical feature ordering (scenario one-hot last).  Persisted in the
#: selector artifact; extend only by appending.
META_FEATURE_NAMES: List[str] = [
    "log_num_nodes",
    "log_num_edges",
    "density",
    "degree_mean",
    "degree_std",
    "degree_max_ratio",
    "clustering_proxy",
    "num_shots",
    "label_balance",
    "log_num_attributes",
] + [f"scenario_{name}" for name in SCENARIOS]


@functools.lru_cache(maxsize=64)
def _sample_nodes(n: int) -> np.ndarray:
    """The clustering proxy's evenly spaced sample of ``n`` nodes."""
    sample = np.unique(np.linspace(0, n - 1, num=min(_CLUSTERING_SAMPLE, n),
                                   dtype=np.int64))
    sample.flags.writeable = False
    return sample


def _clustering_proxy(graph, degrees: np.ndarray) -> float:
    """Sampled local clustering coefficient (deterministic).

    Evenly spaced sample nodes, capped neighbour lists, closed-wedge
    counting via a ``has_edge`` probe per neighbour pair — a stable
    proxy for transitivity at a fixed cost, not an exact coefficient.
    ``degrees`` is ``graph.degrees()``.
    """
    n = graph.num_nodes
    if n < 3:
        return 0.0
    sample = _sample_nodes(n)
    caps = np.minimum(degrees[sample], _NEIGHBOR_CAP)
    wedges = int(_WEDGES[caps].sum())
    if not wedges:
        return 0.0
    indptr = graph.adjacency.indptr
    indices = graph.adjacency.indices
    # Every wedge of every sampled node at once: node s, positions
    # (i, j) of its capped neighbour list, kept where j < cap(s).
    starts = indptr[sample][:, None]
    valid = _PAIR_J < caps[:, None]
    keys = (np.multiply(indices[(starts + _PAIR_I)[valid]], n,
                        dtype=np.int64)
            + indices[(starts + _PAIR_J)[valid]])
    # One has_edge probe for every pair: CSR rows are sorted, so the
    # flattened (row, column) keys are globally sorted and a single
    # searchsorted resolves all pairs.
    edge_keys = (np.arange(0, n * n, n, dtype=np.int64).repeat(degrees)
                 + indices)
    pos = np.minimum(edge_keys.searchsorted(keys), len(edge_keys) - 1)
    return int(np.count_nonzero(edge_keys[pos] == keys)) / wedges


def task_meta_features(task: Task, scenario: str = "") -> Dict[str, float]:
    """Extract the meta-feature dict of one task.

    Parameters
    ----------
    task:
        The community-search task to describe.
    scenario:
        Scenario identifier (one of :data:`~repro.tasks.scenarios.SCENARIOS`),
        encoded one-hot; an empty or unknown scenario yields all zeros,
        which is how records logged without scenario information train
        and predict.

    Returns a dict with exactly the keys of :data:`META_FEATURE_NAMES`.
    """
    graph = task.graph
    n = max(graph.num_nodes, 1)
    m = graph.num_edges
    degrees = graph.degrees()
    # ``degrees.mean()`` and ``degrees.std()`` spelled as the reductions
    # numpy runs for them (float64 pairwise sums), without the two
    # ``_methods`` wrappers the per-task auto path pays.
    degree_mean = float(np.add.reduce(degrees, dtype=np.float64)) / n
    deviation = degrees - degree_mean
    degree_std = math.sqrt(float(np.add.reduce(deviation * deviation)) / n)
    degree_max = float(degrees.max())

    positives = sum(len(example.positives) + 1 for example in task.support)
    negatives = sum(len(example.negatives) for example in task.support)
    labelled = positives + negatives

    features: Dict[str, float] = {
        "log_num_nodes": float(np.log1p(n)),
        "log_num_edges": float(np.log1p(m)),
        "density": 2.0 * m / (n * (n - 1)) if n > 1 else 0.0,
        "degree_mean": degree_mean,
        "degree_std": degree_std,
        "degree_max_ratio": degree_max / n,
        "clustering_proxy": _clustering_proxy(graph, degrees),
        "num_shots": float(task.num_shots),
        "label_balance": positives / labelled if labelled else 0.0,
        "log_num_attributes": float(np.log1p(graph.num_attributes)),
    }
    scenario = scenario.lower()
    for name in SCENARIOS:
        features[f"scenario_{name}"] = 1.0 if name == scenario else 0.0
    return features


def feature_vector(features: Dict[str, float]) -> np.ndarray:
    """Project a feature dict onto the canonical ordering.

    Missing features read as 0.0 and unknown keys are ignored — the
    forward-read lenience that lets a selector built against today's
    :data:`META_FEATURE_NAMES` consume records logged by other versions.
    """
    return np.array([float(features.get(name, 0.0))
                     for name in META_FEATURE_NAMES], dtype=np.float64)
