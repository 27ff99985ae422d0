"""Random graph generators with planted community ground truth.

These generators are the synthetic substitutes for the paper's public
datasets (the scale table in :mod:`repro.datasets.synthetic` lists
them).  The key model is a degree-corrected planted partition: nodes
are divided into communities, edges are sampled densely inside
communities and sparsely between them, and node degrees follow a
heavy-tailed distribution so the synthetic graphs share the skew of real
social/citation networks.  Attributes, when requested, are one-hot keyword
bags whose active entries are biased toward community-specific vocabulary,
reproducing the attribute-community correlation that CS models exploit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.backend import resolve_dtype
from .graph import Graph

__all__ = [
    "planted_partition_graph",
    "attributed_community_graph",
    "ego_network",
    "community_sizes",
]


def community_sizes(num_nodes: int, num_communities: int,
                    rng: np.random.Generator, skew: float = 0.3) -> np.ndarray:
    """Split ``num_nodes`` into ``num_communities`` sizes (each ≥ 2).

    ``skew`` controls size dispersion via a Dirichlet prior: 0 gives nearly
    equal communities, larger values give a heavier size tail (like DBLP's
    venue communities).
    """
    if num_communities <= 0:
        raise ValueError("need at least one community")
    if num_nodes < 2 * num_communities:
        raise ValueError(
            f"{num_nodes} nodes cannot host {num_communities} communities of size >= 2"
        )
    concentration = 1.0 / max(skew, 1e-6)
    weights = rng.dirichlet(np.full(num_communities, concentration))
    sizes = np.maximum(2, np.round(weights * num_nodes).astype(np.int64))
    # Fix rounding drift while respecting the minimum size.
    while sizes.sum() > num_nodes:
        candidates = np.flatnonzero(sizes > 2)
        sizes[rng.choice(candidates)] -= 1
    while sizes.sum() < num_nodes:
        sizes[rng.integers(num_communities)] += 1
    return sizes


def _sample_block_edges(nodes_a: np.ndarray, nodes_b: Optional[np.ndarray],
                        probability: float, rng: np.random.Generator,
                        degree_weight_a: Optional[np.ndarray] = None,
                        degree_weight_b: Optional[np.ndarray] = None) -> np.ndarray:
    """Sample edges of an (intra or inter) block with expected density
    ``probability`` without materialising the full pair grid.

    Draws ``Binomial(num_pairs, p)`` edges and places them at weighted
    random endpoints (the degree-correction), de-duplicating afterwards.
    """
    if nodes_b is None:
        size_a = len(nodes_a)
        num_pairs = size_a * (size_a - 1) // 2
    else:
        num_pairs = len(nodes_a) * len(nodes_b)
    if num_pairs == 0 or probability <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    count = rng.binomial(num_pairs, min(probability, 1.0))
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    # Oversample to compensate for duplicate-pair removal.
    draw = int(count * 1.3) + 4
    pa = None
    if degree_weight_a is not None:
        pa = degree_weight_a / degree_weight_a.sum()
    left = rng.choice(nodes_a, size=draw, p=pa)
    if nodes_b is None:
        pb = pa
        right = rng.choice(nodes_a, size=draw, p=pb)
    else:
        pb = None
        if degree_weight_b is not None:
            pb = degree_weight_b / degree_weight_b.sum()
        right = rng.choice(nodes_b, size=draw, p=pb)
    pairs = np.stack([np.minimum(left, right), np.maximum(left, right)], axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.unique(pairs, axis=0)
    if len(pairs) > count:
        keep = rng.choice(len(pairs), size=count, replace=False)
        pairs = pairs[keep]
    return pairs


def planted_partition_graph(num_nodes: int, num_communities: int,
                            avg_degree: float, mixing: float,
                            rng: np.random.Generator,
                            size_skew: float = 0.3,
                            degree_exponent: float = 1.5,
                            name: str = "planted") -> Graph:
    """Degree-corrected planted-partition graph.

    Parameters
    ----------
    num_nodes, num_communities:
        Graph size and number of planted (disjoint) communities.
    avg_degree:
        Target mean degree.
    mixing:
        Fraction of edge endpoints that leave the community (the LFR ``mu``
        parameter).  Small values → well-separated communities.
    rng:
        Seeded generator.
    size_skew:
        Community size dispersion (see :func:`community_sizes`).
    degree_exponent:
        Pareto tail exponent of the per-node degree propensities.
    name:
        Graph name.
    """
    if not 0.0 <= mixing < 1.0:
        raise ValueError(f"mixing must be in [0, 1), got {mixing}")
    sizes = community_sizes(num_nodes, num_communities, rng, skew=size_skew)
    boundaries = np.concatenate([[0], np.cumsum(sizes)])
    communities = [np.arange(boundaries[i], boundaries[i + 1])
                   for i in range(num_communities)]

    # Heavy-tailed degree propensities (degree correction).
    propensity = rng.pareto(degree_exponent, size=num_nodes) + 1.0

    target_edges = avg_degree * num_nodes / 2.0
    intra_edges_target = target_edges * (1.0 - mixing)
    inter_edges_target = target_edges * mixing

    edge_blocks: List[np.ndarray] = []
    # Intra-community edges, allocated proportionally to the pair counts.
    # Sampling probabilities stay double regardless of the precision
    # policy: np.random's normalisation check needs full-width sums.
    pair_counts = np.array([s * (s - 1) // 2 for s in sizes], dtype=float)
    total_pairs = pair_counts.sum()
    for members, pairs in zip(communities, pair_counts):
        if pairs == 0:
            continue
        share = intra_edges_target * pairs / total_pairs
        probability = min(1.0, share / pairs)
        block = _sample_block_edges(members, None, probability, rng,
                                    degree_weight_a=propensity[members])
        edge_blocks.append(block)

    # Inter-community background, sampled globally.
    cross_pairs = num_nodes * (num_nodes - 1) // 2 - total_pairs
    if cross_pairs > 0 and inter_edges_target > 0:
        probability = min(1.0, inter_edges_target / cross_pairs)
        # Sample from the full graph then drop intra pairs.
        community_of = np.zeros(num_nodes, dtype=np.int64)
        for index, members in enumerate(communities):
            community_of[members] = index
        all_nodes = np.arange(num_nodes)
        raw = _sample_block_edges(
            all_nodes, all_nodes,
            probability * cross_pairs / max(cross_pairs, 1),
            rng, degree_weight_a=propensity, degree_weight_b=propensity)
        if raw.size:
            cross = raw[community_of[raw[:, 0]] != community_of[raw[:, 1]]]
            edge_blocks.append(cross)

    edges = (np.concatenate(edge_blocks, axis=0)
             if edge_blocks else np.zeros((0, 2), dtype=np.int64))
    return Graph(num_nodes=num_nodes, edges=edges,
                 communities=[list(c) for c in communities], name=name)


def _community_attributes(num_nodes: int, communities: Sequence[Sequence[int]],
                          num_attributes: int, attrs_per_node: int,
                          signal: float, rng: np.random.Generator) -> np.ndarray:
    """One-hot attribute bags correlated with community membership.

    Each community owns a private slice of the vocabulary; a node draws each
    of its ``attrs_per_node`` active attributes from its community's slice
    with probability ``signal`` and uniformly otherwise.
    """
    attributes = np.zeros((num_nodes, num_attributes), dtype=resolve_dtype())
    num_communities = max(len(communities), 1)
    slice_width = max(num_attributes // num_communities, 1)
    community_of = {}
    for index, members in enumerate(communities):
        for node in members:
            community_of[int(node)] = index
    for node in range(num_nodes):
        community = community_of.get(node, rng.integers(num_communities))
        low = (community * slice_width) % num_attributes
        high = min(low + slice_width, num_attributes)
        for _ in range(attrs_per_node):
            if rng.random() < signal and high > low:
                attribute = rng.integers(low, high)
            else:
                attribute = rng.integers(num_attributes)
            attributes[node, attribute] = 1.0
    return attributes


def attributed_community_graph(num_nodes: int, num_communities: int,
                               avg_degree: float, mixing: float,
                               num_attributes: int, rng: np.random.Generator,
                               attrs_per_node: int = 6,
                               attribute_signal: float = 0.8,
                               size_skew: float = 0.3,
                               name: str = "attributed") -> Graph:
    """Planted-partition graph plus community-correlated one-hot attributes.

    This is the stand-in for Cora/Citeseer (keyword bags) and the individual
    Facebook ego networks (profile features).
    """
    base = planted_partition_graph(num_nodes, num_communities, avg_degree,
                                   mixing, rng, size_skew=size_skew, name=name)
    attributes = _community_attributes(
        num_nodes, [sorted(c) for c in base.communities],
        num_attributes, attrs_per_node, attribute_signal, rng)
    return Graph(num_nodes=num_nodes, edges=base.edges, attributes=attributes,
                 communities=[sorted(c) for c in base.communities], name=name)


def ego_network(num_nodes: int, num_circles: int, num_attributes: int,
                rng: np.random.Generator, overlap: float = 0.15,
                avg_degree: float = 10.0, name: str = "ego") -> Graph:
    """A Facebook-style ego network with overlapping friendship circles.

    Node 0 is the ego and connects to every other node.  The remaining
    nodes form ``num_circles`` base circles; a fraction ``overlap`` of the
    nodes additionally join a second circle, producing the overlapping
    ground truth typical of the SNAP Facebook data.
    """
    if num_nodes < num_circles + 2:
        raise ValueError("ego network too small for the requested circles")
    alters = np.arange(1, num_nodes)
    sizes = community_sizes(len(alters), num_circles, rng, skew=0.4)
    boundaries = np.concatenate([[0], np.cumsum(sizes)])
    circles = [list(alters[boundaries[i]:boundaries[i + 1]])
               for i in range(num_circles)]

    # Overlap: some alters join a second circle.
    for node in alters:
        if rng.random() < overlap:
            extra = int(rng.integers(num_circles))
            if int(node) not in circles[extra]:
                circles[extra].append(int(node))

    # Edges: ego to all alters, dense inside circles, sparse background.
    edge_list = [(0, int(v)) for v in alters]
    alter_degree = max(avg_degree - 1.0, 1.0)  # budget excluding the ego edge
    target_alter_edges = alter_degree * len(alters) / 2.0
    pair_total = sum(len(c) * (len(c) - 1) // 2 for c in circles)
    for circle in circles:
        members = np.asarray(sorted(set(circle)), dtype=np.int64)
        pairs = len(members) * (len(members) - 1) // 2
        if pairs == 0:
            continue
        share = 0.85 * target_alter_edges * pairs / max(pair_total, 1)
        probability = min(1.0, share / pairs)
        block = _sample_block_edges(members, None, probability, rng)
        edge_list.extend((int(u), int(v)) for u, v in block)
    # Sparse background noise among alters.
    noise = _sample_block_edges(alters, alters,
                                0.3 * target_alter_edges / max(len(alters) ** 2 / 2, 1),
                                rng)
    edge_list.extend((int(u), int(v)) for u, v in noise)

    attributes = _community_attributes(num_nodes, circles, num_attributes,
                                       attrs_per_node=4, signal=0.75, rng=rng)
    return Graph(num_nodes=num_nodes, edges=np.asarray(edge_list),
                 attributes=attributes, communities=circles, name=name)
