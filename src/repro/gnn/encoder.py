"""K-layer GNN encoders.

Two encoder flavours back the whole reproduction:

* :class:`GNNEncoder` — the plain stack used by CGNP's φ and ρ-GNN: takes a
  node feature matrix and a graph, returns ``(n, hidden)`` embeddings.
* :class:`GNNNodeClassifier` — encoder plus a scalar output head and
  sigmoid, the "simple GNN approach" of section IV that all naive
  baselines (Supervised, FeatTrans, MAML, Reptile, ICS-GNN, AQD-GNN)
  build on: input features are ``[I_q(v) ‖ A(v) ‖ structural]`` and the
  output is the membership probability of every node w.r.t. the query.

Paper defaults: 3 layers, 128 hidden units, dropout 0.2, GAT convolution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn import functional as F
from ..nn.backend import (fused_inference_enabled, get_backend, resolve_dtype,
                          resolve_index_dtype)
from ..nn.layers import Dropout
from ..nn.module import Module, ModuleList
from ..nn.tensor import Tensor, is_grad_enabled
from .conv import (CONV_TYPES, GATConv, GCNConv, GraphLike, SAGEConv,
                   graph_ops, graph_shard_ops)

__all__ = ["GNNEncoder", "GNNNodeClassifier", "make_query_features",
           "make_support_features", "DEFAULTS"]

DEFAULTS = {"num_layers": 3, "hidden_dim": 128, "dropout": 0.2, "conv": "gat"}


def _streaming_activation(data: np.ndarray, act: Optional[str]) -> np.ndarray:
    """The encoder activations as raw-array formulas.

    Exactly the expressions :func:`repro.nn.functional.relu` /
    :func:`~repro.nn.functional.elu` (``alpha = 1``) evaluate on tensor
    data, so the shard-streaming forward stays bitwise-identical to the
    dense one.
    """
    if act is None:
        return data
    if act == "relu":
        return np.maximum(data, 0.0)
    if act == "elu":
        exp_part = np.exp(np.minimum(data, 0.0)) - 1.0
        return np.where(data > 0, data, exp_part)
    raise ValueError(f"unknown activation {act!r}")


def make_query_features(features: np.ndarray, query: int,
                        positives: Optional[np.ndarray] = None) -> np.ndarray:
    """Prefix the query/ground-truth indicator channel to node features.

    Implements Eq. 13: ``h⁰_v = [I_l(v) ‖ A(v)]`` where the indicator is 1
    for the query node and (when given) its known positive samples.
    """
    indicator = np.zeros((features.shape[0], 1), dtype=features.dtype)
    indicator[int(query), 0] = 1.0
    if positives is not None and len(positives) > 0:
        indicator[np.asarray(positives, dtype=resolve_index_dtype()), 0] = 1.0
    return np.concatenate([indicator, features], axis=1)


def make_support_features(features: np.ndarray, examples: Sequence,
                          mark_positives: bool = True) -> np.ndarray:
    """Stacked indicator-prefixed inputs for ``k`` support views of one graph.

    Returns a ``(k * n, 1 + d)`` matrix: row block ``i`` is
    :func:`make_query_features` for ``examples[i]``, matching the node
    layout of ``GraphBatch.replicate(graph, k)`` — so one batched
    encoder forward covers every support pair at once (Eq. 13 for the
    whole support set).
    """
    if not examples:
        raise ValueError("make_support_features needs at least one example")
    n = features.shape[0]
    k = len(examples)
    indicator = np.zeros((k * n, 1), dtype=features.dtype)
    for i, example in enumerate(examples):
        base = i * n
        indicator[base + int(example.query), 0] = 1.0
        positives = example.positives if mark_positives else None
        if positives is not None and len(positives) > 0:
            indicator[base + np.asarray(positives, dtype=resolve_index_dtype()), 0] = 1.0
    return np.concatenate([indicator, np.tile(features, (k, 1))], axis=1)


class GNNEncoder(Module):
    """Stack of graph convolutions with ReLU/ELU activations and dropout.

    Parameters
    ----------
    in_dim:
        Input feature dimensionality (including the indicator channel when
        the caller prepends one).
    hidden_dim:
        Width of every layer (paper: 128).
    num_layers:
        Number of convolutions (paper: 3).
    conv:
        One of ``"gcn"``, ``"gat"``, ``"sage"``.
    dropout:
        Dropout probability between layers (paper: 0.2).
    rng:
        Generator for weight init and dropout masks.
    activate_final:
        Whether the last layer output is passed through the activation
        (CGNP leaves the final embedding linear).
    """

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int,
                 conv: str, dropout: float, rng: np.random.Generator,
                 activate_final: bool = False, num_heads: int = 1):
        super().__init__()
        if num_layers < 1:
            raise ValueError("encoder needs at least one layer")
        conv = conv.lower()
        if conv not in CONV_TYPES:
            raise ValueError(f"unknown conv {conv!r}; choose from {sorted(CONV_TYPES)}")
        self.conv_name = conv
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.activate_final = activate_final
        conv_cls = CONV_TYPES[conv]
        layers: List[Module] = []
        for index in range(num_layers):
            d_in = in_dim if index == 0 else hidden_dim
            if conv == "gat":
                layers.append(conv_cls(d_in, hidden_dim, rng, num_heads=num_heads))
            else:
                layers.append(conv_cls(d_in, hidden_dim, rng))
        self.convs = ModuleList(layers)
        self.dropouts = ModuleList([Dropout(dropout, rng) for _ in range(num_layers)])

    def _activation(self, x: Tensor) -> Tensor:
        # ELU after attention layers (GAT convention), ReLU otherwise.
        return F.elu(x) if self.conv_name == "gat" else F.relu(x)

    def _fused_active(self) -> bool:
        """Whether the fused inference kernels may dispatch right now.

        All three conditions are required: the policy switch is on
        (``REPRO_FUSED`` / ``fused_inference``), the module is in eval
        mode (dropout is identity, so skipping it is exact), and no
        gradient tape is recording (the fused kernels have no VJPs).
        Training numerics can therefore never change under this flag.
        """
        return (fused_inference_enabled() and not self.training
                and not is_grad_enabled())

    def forward(self, features: Tensor, graph: GraphLike) -> Tensor:
        # Operators are fetched at the activations' own width, so a
        # float32 forward message-passes over float32 adjacencies.
        ops = graph_ops(graph, features.dtype)
        return self._run_layers(features, ops, self.num_layers)

    def encode_hidden(self, features: Tensor, graph: GraphLike):
        """All but the final convolution, plus the graph operators.

        Returns ``(hidden, ops)``.  The fused serving path of
        :meth:`repro.core.model.CGNP.context_concat` uses this to stop
        one layer short, aggregate the (cheaper) penultimate activations
        across support replicas, and fold the final layer with the ⊕
        reduction.
        """
        ops = graph_ops(graph, features.dtype)
        return self._run_layers(features, ops, self.num_layers - 1), ops

    def _run_layers(self, x: Tensor, ops, count: int) -> Tensor:
        """The first ``count`` convolutions, fused when inference allows.

        The fused path hands each layer its activation name so bias +
        activation ride inside the layer kernel; dropout is skipped
        outright (identity in eval mode).  The unfused path is the exact
        pre-existing training forward.
        """
        last = self.num_layers - 1
        fused = self._fused_active()
        act_name = "elu" if self.conv_name == "gat" else "relu"
        for index in range(count):
            conv = self.convs[index]
            wants_act = index < last or self.activate_final
            if fused:
                x = conv.fused_forward(x, ops,
                                       act_name if wants_act else None)
            else:
                x = conv(x, ops)
                if wants_act:
                    x = self._activation(x)
                    x = self.dropouts[index](x)
        return x

    # ------------------------------------------------------------------
    # Shard-streaming inference
    # ------------------------------------------------------------------
    def encode_sharded(self, graph, fill, *, replicas: int = 1,
                       dtype=None) -> np.ndarray:
        """Inference-only forward over a
        :class:`~repro.graph.shard.ShardedGraph`, one row shard at a time.

        ``fill(buffer)`` must populate the ``(replicas * n, in_dim)``
        layer-0 input (row block ``v`` is support view ``v``, matching
        :func:`make_support_features` / ``GraphBatch.replicate`` layout).
        The input and every layer activation live in the graph's buffer
        arena — memmap-backed when the graph has a ``memmap_dir`` — so
        anonymous memory holds only one shard's working set at a time:
        the dense ``matmul`` against the layer weights always runs
        full-matrix (identical BLAS shapes to the dense forward — this
        is what makes the result *bitwise* equal, because BLAS reductions
        depend on the row count), while the sparse/edge message passing
        streams per ``(replica, shard)`` with halo gathers.

        Returns the final ``(replicas * n, hidden_dim)`` activation — a
        **reused arena buffer**: copy out anything that must survive the
        next encode.  Raises if called in training mode or under a
        gradient tape; never uses the fused-fold approximation, so the
        output matches the unfused dense forward bitwise.
        """
        if self.training or is_grad_enabled():
            raise RuntimeError(
                "encode_sharded is inference-only: call model.eval() and "
                "run outside any gradient tape")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        resolved = resolve_dtype(dtype)
        shard_ops = graph_shard_ops(graph, resolved)
        n = graph.num_nodes
        rows = int(replicas) * n
        x = graph.buffer("enc.x", (rows, self.in_dim), resolved)
        fill(x)
        last = self.num_layers - 1
        act_name = "elu" if self.conv_name == "gat" else "relu"
        for index in range(self.num_layers):
            conv = self.convs[index]
            act = act_name if (index < last or self.activate_final) else None
            # Ping-pong between two arena activations; a layer never
            # writes the buffer it reads.
            out = graph.buffer(f"enc.h{index % 2}", (rows, self.hidden_dim),
                               resolved)
            self._stream_conv(conv, x, out, graph, shard_ops, replicas, n,
                              act)
            x = out
        return x

    def _stream_conv(self, conv, x, out, graph, shard_ops, replicas: int,
                     n: int, act: Optional[str]) -> None:
        if isinstance(conv, GCNConv):
            self._stream_gcn(conv, x, out, shard_ops, replicas, n, act)
        elif isinstance(conv, SAGEConv):
            self._stream_sage(conv, x, out, graph, shard_ops, replicas, n,
                              act)
        elif isinstance(conv, GATConv):
            self._stream_gat(conv, x, out, shard_ops, replicas, n, act)
        else:  # pragma: no cover - new conv types must opt in explicitly
            raise TypeError(
                f"no shard-streaming rule for {type(conv).__name__}")

    @staticmethod
    def _stream_gcn(conv, x, out, shard_ops, replicas: int, n: int,
                    act: Optional[str]) -> None:
        """``spmm(norm, x @ W) + b`` streamed per (replica, shard)."""
        xp = get_backend()
        xw = xp.matmul(x, conv.weight.data)  # full-matrix: bitwise anchor
        bias = None if conv.bias is None else conv.bias.data
        for v in range(replicas):
            base = v * n
            for ops in shard_ops:
                block = xp.spmm(ops.norm_adj, xw[base + ops.halo])
                if bias is not None:
                    block = block + bias
                block = _streaming_activation(block, act)
                out[base + ops.row_start:base + ops.row_stop] = block
        del xw

    @staticmethod
    def _stream_sage(conv, x, out, graph, shard_ops, replicas: int, n: int,
                     act: Optional[str]) -> None:
        """Mean-aggregate per shard, then mix with full-matrix matmuls."""
        xp = get_backend()
        rows = replicas * n
        width = int(x.shape[1])
        # The neighbour means keep the *input* width, so they get their
        # own arena buffer rather than living in anonymous memory.
        means = graph.buffer("enc.sage.nm", (rows, width), x.dtype)
        for v in range(replicas):
            base = v * n
            for ops in shard_ops:
                means[base + ops.row_start:base + ops.row_stop] = (
                    xp.spmm(ops.row_norm_adj, x[base + ops.halo]))
        mixed = (xp.matmul(x, conv.weight_self.data)
                 + xp.matmul(means, conv.weight_neigh.data))
        if conv.bias is not None:
            mixed = mixed + conv.bias.data
        out[:] = _streaming_activation(mixed, act)

    @staticmethod
    def _stream_gat(conv, x, out, shard_ops, replicas: int, n: int,
                    act: Optional[str]) -> None:
        """Attention with full-matrix projections/scores and a per
        (replica, shard) edge path.

        Shard edge lists are destination-owned subsequences of the global
        directed-edge order, so each destination's softmax and
        scatter-add accumulate in exactly the dense order.
        """
        xp = get_backend()
        heads, scores_src, scores_dst = [], [], []
        for head in range(conv.num_heads):
            h = xp.matmul(x, conv.weight.data[head])
            heads.append(h)
            scores_src.append((h * conv.attn_src.data[head]).sum(axis=1))
            scores_dst.append((h * conv.attn_dst.data[head]).sum(axis=1))
        bias = None if conv.bias is None else conv.bias.data
        slope = conv.negative_slope
        for v in range(replicas):
            base = v * n
            for ops in shard_ops:
                lo, hi = ops.row_start, ops.row_stop
                src_ids = base + ops.edge_src
                dst_local = ops.edge_dst_local
                dst_ids = base + lo + dst_local
                block = None
                for head in range(conv.num_heads):
                    raw = scores_src[head][src_ids] + scores_dst[head][dst_ids]
                    logits = np.where(raw > 0, raw, slope * raw)
                    alpha = xp.segment_softmax(logits, dst_local,
                                               ops.num_rows)
                    messages = (xp.gather_rows(heads[head], src_ids)
                                * alpha.reshape(-1, 1))
                    head_block = xp.scatter_add_rows(messages, dst_local,
                                                     ops.num_rows)
                    block = head_block if block is None else block + head_block
                if conv.num_heads > 1:
                    block = block * (1.0 / conv.num_heads)
                if bias is not None:
                    block = block + bias
                out[base + lo:base + hi] = _streaming_activation(block, act)


class GNNNodeClassifier(Module):
    """Query-conditioned binary node classifier (section IV's base GNN).

    ``forward`` returns per-node logits; ``predict_proba`` applies the
    sigmoid.  The final hidden layer maps to a single unit, as in the
    paper ("the 1-dimensional node representation h^K is activated by a
    sigmoid").
    """

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int,
                 conv: str, dropout: float, rng: np.random.Generator,
                 num_heads: int = 1):
        super().__init__()
        self.encoder = GNNEncoder(in_dim, hidden_dim, max(num_layers - 1, 1),
                                  conv, dropout, rng,
                                  activate_final=True, num_heads=num_heads)
        conv_cls = CONV_TYPES[conv.lower()]
        if conv.lower() == "gat":
            self.head = conv_cls(hidden_dim, 1, rng, num_heads=num_heads)
        else:
            self.head = conv_cls(hidden_dim, 1, rng)

    def forward(self, features: Tensor, graph: GraphLike) -> Tensor:
        hidden = self.encoder(features, graph)
        logits = self.head(hidden, graph_ops(graph, hidden.dtype))
        return logits.reshape(-1)

    def predict_proba(self, features: Tensor, graph: GraphLike) -> np.ndarray:
        """Membership probability of every node (no autograd)."""
        from ..nn.tensor import no_grad

        with no_grad():
            logits = self.forward(features, graph)
        return logits.sigmoid().data
