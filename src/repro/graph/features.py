"""Node feature assembly.

The paper's input encoding (section VI, Eq. 13):

* the binary ground-truth/query identifier ``I_l(v)`` (added per query by
  the models, not here);
* the one-hot attribute vector ``A(v)`` when the dataset has attributes
  (Cora, Citeseer, Facebook);
* auxiliary structural features — the core number and the local clustering
  coefficient — always appended; they are the *only* features for the
  attribute-free datasets (Arxiv, DBLP, Reddit).

Feature matrices are computed once per task graph and cached on the task.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algorithms import core_numbers, local_clustering_coefficients
from .graph import Graph

__all__ = ["structural_features", "node_feature_matrix", "feature_dimension"]


def structural_features(graph: Graph, normalize: bool = True) -> np.ndarray:
    """``(n, 2)`` matrix of [core number, local clustering coefficient].

    Core numbers are scaled to [0, 1] by the graph's maximum so that feature
    magnitudes are comparable across task graphs of different densities.
    Features adopt the graph's own element dtype (the precision policy it
    was materialised under), not the ambient policy at call time, so a
    task's feature precision is a stable property of the task.
    """
    dtype = graph.adjacency.dtype
    cores = core_numbers(graph).astype(dtype)
    if normalize and cores.max(initial=0.0) > 0:
        cores = cores / cores.max()
    clustering = local_clustering_coefficients(graph, dtype)
    return np.stack([cores, clustering], axis=1)


def node_feature_matrix(graph: Graph, use_attributes: bool = True,
                        use_structural: bool = True) -> np.ndarray:
    """Assemble the per-node input features ``A(v) ‖ [core#, lcc]``.

    Parameters
    ----------
    graph:
        The task graph.
    use_attributes:
        Include the dataset attribute matrix when present.
    use_structural:
        Include core number and local clustering coefficient channels.
    """
    blocks = []
    if use_attributes and graph.attributes is not None:
        blocks.append(graph.attributes)
    if use_structural:
        blocks.append(structural_features(graph))
    if not blocks:
        # Degenerate configuration: fall back to a constant channel so the
        # GNN still has an input signal beyond the query indicator.
        blocks.append(np.ones((graph.num_nodes, 1), dtype=graph.adjacency.dtype))
    return np.concatenate(blocks, axis=1)


def feature_dimension(graph: Graph, use_attributes: bool = True,
                      use_structural: bool = True) -> int:
    """Dimensionality :func:`node_feature_matrix` will produce for ``graph``."""
    dim = 0
    if use_attributes and graph.attributes is not None:
        dim += graph.attributes.shape[1]
    if use_structural:
        dim += 2
    return dim if dim > 0 else 1
