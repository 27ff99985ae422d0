"""``repro.gnn`` — graph convolutions and K-layer encoders."""

from .conv import (CONV_TYPES, GATConv, GCNConv, GraphLike, GraphOps,
                   GraphShardOps, SAGEConv, graph_ops, graph_shard_ops)
from .encoder import (DEFAULTS, GNNEncoder, GNNNodeClassifier, SupportInput,
                      layer0_features, make_query_features,
                      support_indicators)

__all__ = [
    "GCNConv",
    "GATConv",
    "SAGEConv",
    "GraphOps",
    "GraphShardOps",
    "GraphLike",
    "graph_ops",
    "graph_shard_ops",
    "CONV_TYPES",
    "GNNEncoder",
    "GNNNodeClassifier",
    "make_query_features",
    "support_indicators",
    "layer0_features",
    "SupportInput",
    "DEFAULTS",
]
