"""Synthetic stand-ins for the paper's six evaluation datasets.

The paper (Table I) evaluates on Cora, Citeseer, Arxiv, DBLP, Reddit (five
single graphs) and Facebook (ten ego networks).  This environment has no
network access, so each dataset is replaced by a seeded generator that
mirrors its Table I profile — node/edge counts (scaled down for the three
largest graphs), number of ground-truth communities, and attribute
dimensionality — using the degree-corrected planted-partition and ego-net
models from :mod:`repro.graph.generators`.

Scale-down note: experiments only ever operate on
200-node BFS-sampled task subgraphs, so what matters is the *local*
structure, which the generators preserve.  Default scales:

============  ==========  ==========  =======  ============  ==========
dataset       paper |V|   ours |V|    attrs    paper |C|     ours |C|
============  ==========  ==========  =======  ============  ==========
cora          2,708       2,708       1,433    7             7
citeseer      3,327       3,327       3,703    6             6
arxiv         199,343     20,000      N/A      40            40
dblp          317,080     24,000      N/A      500 (of 5k)   500
reddit        232,965     16,000      N/A      50            50
facebook      10 egos     10 egos     42-576   7-46/ego      same
============  ==========  ==========  =======  ============  ==========

DBLP keeps 500 of the paper's 5,000 communities to retain a mean community
size comparable to the original (the paper samples 200-node subgraphs, so
communities must be locally visible).  All sizes are overridable through
:class:`DatasetSpec`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

import numpy as np

from ..graph import Graph, attributed_community_graph, ego_network, planted_partition_graph
from ..utils import make_rng

__all__ = [
    "DatasetSpec",
    "SingleGraphDataset",
    "MultiGraphDataset",
    "build_cora",
    "build_citeseer",
    "build_arxiv",
    "build_dblp",
    "build_reddit",
    "build_facebook",
]


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Parameters of a synthetic single-graph dataset."""

    name: str
    num_nodes: int
    num_communities: int
    avg_degree: float
    mixing: float
    num_attributes: int = 0  # 0 → structural features only
    size_skew: float = 0.3
    attribute_signal: float = 0.8
    attrs_per_node: int = 6


@dataclasses.dataclass
class SingleGraphDataset:
    """A single large data graph 𝒢 with ground-truth communities."""

    name: str
    graph: Graph

    @property
    def profile(self) -> Dict[str, int]:
        return {
            "nodes": self.graph.num_nodes,
            "edges": self.graph.num_edges,
            "attributes": self.graph.num_attributes,
            "communities": self.graph.num_communities,
        }


@dataclasses.dataclass
class MultiGraphDataset:
    """A collection of independent graphs (the Facebook ego networks)."""

    name: str
    graphs: List[Graph]

    @property
    def profile(self) -> List[Dict[str, int]]:
        return [
            {
                "nodes": g.num_nodes,
                "edges": g.num_edges,
                "attributes": g.num_attributes,
                "communities": g.num_communities,
            }
            for g in self.graphs
        ]


def _build_from_spec(spec: DatasetSpec, seed: int) -> SingleGraphDataset:
    rng = make_rng(seed)
    if spec.num_attributes > 0:
        graph = attributed_community_graph(
            num_nodes=spec.num_nodes,
            num_communities=spec.num_communities,
            avg_degree=spec.avg_degree,
            mixing=spec.mixing,
            num_attributes=spec.num_attributes,
            rng=rng,
            attrs_per_node=spec.attrs_per_node,
            attribute_signal=spec.attribute_signal,
            size_skew=spec.size_skew,
            name=spec.name,
        )
    else:
        graph = planted_partition_graph(
            num_nodes=spec.num_nodes,
            num_communities=spec.num_communities,
            avg_degree=spec.avg_degree,
            mixing=spec.mixing,
            rng=rng,
            size_skew=spec.size_skew,
            name=spec.name,
        )
    return SingleGraphDataset(name=spec.name, graph=graph)


# ----------------------------------------------------------------------
# Named builders, one per paper dataset
# ----------------------------------------------------------------------
CORA_SPEC = DatasetSpec(name="cora", num_nodes=2708, num_communities=7,
                        avg_degree=4.0, mixing=0.18, num_attributes=1433,
                        attrs_per_node=8)
CITESEER_SPEC = DatasetSpec(name="citeseer", num_nodes=3327, num_communities=6,
                            avg_degree=2.8, mixing=0.2, num_attributes=3703,
                            attrs_per_node=8)
ARXIV_SPEC = DatasetSpec(name="arxiv", num_nodes=20000, num_communities=40,
                         avg_degree=11.7, mixing=0.22)
DBLP_SPEC = DatasetSpec(name="dblp", num_nodes=24000, num_communities=500,
                        avg_degree=6.6, mixing=0.15, size_skew=0.5)
REDDIT_SPEC = DatasetSpec(name="reddit", num_nodes=16000, num_communities=50,
                          avg_degree=49.0, mixing=0.25)


def build_cora(seed: int = 7, scale: float = 1.0) -> SingleGraphDataset:
    """Cora stand-in: 2,708 nodes, 7 topics, 1,433 keyword attributes."""
    return _build_from_spec(_scaled(CORA_SPEC, scale), seed)


def build_citeseer(seed: int = 11, scale: float = 1.0) -> SingleGraphDataset:
    """Citeseer stand-in: 3,327 nodes, 6 topics, 3,703 keyword attributes."""
    return _build_from_spec(_scaled(CITESEER_SPEC, scale), seed)


def build_arxiv(seed: int = 13, scale: float = 1.0) -> SingleGraphDataset:
    """OGB-Arxiv stand-in (scaled): 40 subject-area communities, no attrs."""
    return _build_from_spec(_scaled(ARXIV_SPEC, scale), seed)


def build_dblp(seed: int = 17, scale: float = 1.0) -> SingleGraphDataset:
    """SNAP-DBLP stand-in (scaled): many small venue communities, no attrs."""
    return _build_from_spec(_scaled(DBLP_SPEC, scale), seed)


def build_reddit(seed: int = 19, scale: float = 1.0) -> SingleGraphDataset:
    """Reddit stand-in (heavily scaled): dense graph, 50 communities."""
    return _build_from_spec(_scaled(REDDIT_SPEC, scale), seed)


# Facebook ego-network profiles from Table I: (num_nodes, attrs, circles).
FACEBOOK_EGO_PROFILES = [
    (348, 224, 24),
    (1046, 576, 9),
    (228, 162, 14),
    (160, 105, 7),
    (171, 63, 14),
    (67, 48, 13),
    (793, 319, 17),
    (756, 480, 46),
    (548, 262, 32),
    (60, 42, 17),
]


def build_facebook(seed: int = 23, scale: float = 1.0) -> MultiGraphDataset:
    """Ten Facebook-style ego networks with overlapping circles.

    Profiles (size, attribute dim, circle count) follow Table I.  Circle
    counts are capped so each circle can hold at least 2 alters.
    """
    rng = make_rng(seed)
    graphs = []
    for index, (num_nodes, num_attrs, num_circles) in enumerate(FACEBOOK_EGO_PROFILES):
        n = max(int(num_nodes * scale), 20)
        circles = min(num_circles, max((n - 1) // 3, 2))
        child = np.random.default_rng(rng.integers(0, 2 ** 31 - 1))
        graphs.append(ego_network(
            num_nodes=n,
            num_circles=circles,
            num_attributes=max(int(num_attrs * min(scale, 1.0)), 16),
            rng=child,
            name=f"facebook-ego-{index}",
        ))
    return MultiGraphDataset(name="facebook", graphs=graphs)


def _scaled(spec: DatasetSpec, scale: float) -> DatasetSpec:
    """Scale node count (and proportionally communities) of a spec.

    Attribute dimensionality is preserved — models depend on it; community
    count shrinks with the node count so communities stay locally visible
    in 200-node task subgraphs.
    """
    if scale == 1.0:
        return spec
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    num_nodes = max(int(spec.num_nodes * scale), 50)
    num_communities = max(int(spec.num_communities * min(scale * 2.0, 1.0)), 2)
    num_communities = min(num_communities, num_nodes // 4)
    return dataclasses.replace(spec, num_nodes=num_nodes,
                               num_communities=max(num_communities, 2))
