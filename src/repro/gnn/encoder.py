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

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..nn import functional as F
from ..nn.backend import (fused_inference_enabled, get_backend, resolve_dtype,
                          resolve_index_dtype)
from ..nn.layers import Dropout
from ..nn.module import Module, ModuleList
from ..nn.tensor import Tensor, is_grad_enabled
from .conv import (CONV_TYPES, GATConv, GCNConv, GraphLike, LayerInput,
                   SAGEConv, graph_ops, graph_shard_ops)

__all__ = ["GNNEncoder", "GNNNodeClassifier", "make_query_features",
           "support_indicators", "layer0_features", "SupportInput",
           "SPARSE_DENSITY", "DEFAULTS"]

DEFAULTS = {"num_layers": 3, "hidden_dim": 128, "dropout": 0.2, "conv": "gat"}

#: Largest fraction of non-zero entries at which :func:`layer0_features`
#: keeps a feature matrix as CSR.  A CSR product costs per non-zero, a
#: BLAS one per entry.  Single-threaded on a 2-vCPU host, over widths
#: 512-1433 and 16-128 output columns, CSR ran 2-20x faster at 1-5 %
#: density, 1-2.2x at 10 % and 0.5-1.1x at 20 %.
SPARSE_DENSITY = 0.1

#: A feature matrix as layer 0 stores it: CSR or dense.
Layer0Features = Union[np.ndarray, sp.csr_matrix]


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


def layer0_features(features: np.ndarray, dtype=None) -> Layer0Features:
    """``features`` at ``dtype`` in the storage its layer-0 product is
    fastest for: CSR when at most :data:`SPARSE_DENSITY` of the entries
    are non-zero (bag-of-words attributes), the dense matrix itself
    otherwise — uncopied when it already has the width, so a memmap
    stays file-backed.
    """
    resolved = resolve_dtype(dtype)
    if np.count_nonzero(features) > SPARSE_DENSITY * features.size:
        return features.astype(resolved, copy=False)
    return get_backend().to_operator(sp.csr_matrix(features), dtype=resolved)


def support_indicators(examples: Sequence, num_nodes: int) -> np.ndarray:
    """``(k, n)`` boolean mask whose row ``v`` is Eq. 13's identifier
    ``I_l`` of ``examples[v]``: its query node and known positives."""
    mask = np.zeros((len(examples), num_nodes), dtype=bool)
    for view, example in enumerate(examples):
        mask[view, int(example.query)] = True
        if len(example.positives) > 0:
            mask[view, np.asarray(example.positives,
                                  dtype=resolve_index_dtype())] = True
    return mask


class SupportInput:
    """CGNP's layer-0 input ``[I_l ‖ A]`` (Eq. 13) for every support view,
    held factored: each graph's features once plus its views' indicators.

    ``blocks`` holds one ``(features, indicators)`` pair per task graph:
    the graph's ``(n, d)`` features in their :func:`layer0_features`
    storage (CSR or dense) and the ``(k, n)`` :func:`support_indicators`
    mask of its ``k`` views.  The rows it stands for are block-major,
    then view-major — row ``v·n + i`` of a block is node ``i`` of view
    ``v``, the node layout of ``GraphBatch.replicate`` and of CGNP's
    collated batches — but the ``(k·n, 1 + d)`` tile is never built:
    :meth:`project` multiplies each graph's features once and shares the
    product across its views.
    """

    def __init__(self, blocks: Sequence[Tuple[Layer0Features, np.ndarray]]):
        self.blocks = list(blocks)
        if not self.blocks or any(ind.shape[0] == 0 for _, ind in self.blocks):
            raise ValueError("SupportInput needs at least one support view")

    @property
    def dtype(self) -> np.dtype:
        return self.blocks[0][0].dtype

    @property
    def shape(self) -> Tuple[int, int]:
        rows = sum(indicators.size for _, indicators in self.blocks)
        return rows, 1 + int(self.blocks[0][0].shape[1])

    def astype(self, dtype) -> "SupportInput":
        """The same input with every feature block at ``dtype`` (copied
        only where the width differs)."""
        target = resolve_dtype(dtype)
        return SupportInput([(features.astype(target, copy=False), indicators)
                             for features, indicators in self.blocks])

    def project(self, weight: Tensor) -> Tensor:
        """``[I_l ‖ A] @ weight``, differentiable in ``weight``.

        Per graph, ``A @ weight[1:]`` is one product over the features —
        sparse over the non-zeros when they are CSR, BLAS when dense —
        shared by the graph's views, and each view adds ``weight[0]`` on
        its indicator rows.  The backward is ``Aᵀ·Σ_v G_v`` into
        ``weight[1:]`` and the indicator rows' gradient sum into
        ``weight[0]``.  Shard streaming calls this on the whole feature
        matrix too, so both paths get the same bits (a BLAS product's
        bits depend on its row count).
        """
        w = weight.data
        out = np.empty((self.shape[0], w.shape[1]), dtype=w.dtype)
        starts, marked, row = [], [], 0
        for features, indicators in self.blocks:
            k, n = indicators.shape
            out[row:row + k * n].reshape(k, n, -1)[:] = _product(features,
                                                                 w[1:])
            starts.append(row)
            marked.append(row + np.flatnonzero(indicators))
            row += k * n
        marked = np.concatenate(marked)
        out[marked] += w[0]

        def backward(grad: np.ndarray) -> None:
            view_sums = [
                grad[start:start + ind.size].reshape(ind.shape + (-1,)).sum(
                    axis=0)
                for start, (_, ind) in zip(starts, self.blocks)]
            full = np.empty_like(w)
            full[1:] = _product(self._stacked_features().T,
                                np.concatenate(view_sums))
            full[0] = grad[marked].sum(axis=0)
            Tensor._accumulate(weight, full)

        return Tensor._make(out, (weight,), backward)

    def _stacked_features(self) -> Layer0Features:
        """Every graph's features stacked by rows, so the backward's
        ``Aᵀ·G`` is one product for the whole batch."""
        features = [f for f, _ in self.blocks]
        if len(features) == 1:
            return features[0]
        if any(sp.issparse(f) for f in features):
            return sp.vstack(features, format="csr")
        return np.concatenate(features)


def _product(features, dense: np.ndarray) -> np.ndarray:
    """``features @ dense`` through the backend: spmm when ``features``
    is sparse, matmul when dense."""
    xp = get_backend()
    if sp.issparse(features):
        return xp.spmm(features, dense)
    return xp.matmul(features, dense)


class GNNEncoder(Module):
    """Stack of graph convolutions with ReLU/ELU activations and dropout.

    Parameters
    ----------
    in_dim:
        Input feature dimensionality (including the indicator channel when
        the caller prepends one).  The input itself may be a dense
        :class:`Tensor` or a :class:`SupportInput`; the first convolution
        projects either (:func:`~repro.gnn.conv.project`).
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

        All three conditions are required: the policy is on (it is
        unless a ``fused_inference(False)`` scope is open), the module is
        in eval mode (dropout is identity, so skipping it is exact), and no
        gradient tape is recording (the fused kernels have no VJPs).
        Training numerics can therefore never change under this flag.
        """
        return (fused_inference_enabled() and not self.training
                and not is_grad_enabled())

    def forward(self, features: LayerInput, graph: GraphLike) -> Tensor:
        # Operators are fetched at the activations' own width, so a
        # float32 forward message-passes over float32 adjacencies.
        ops = graph_ops(graph, features.dtype)
        return self._run_layers(features, ops, self.num_layers)

    def encode_hidden(self, features: LayerInput, graph: GraphLike):
        """All but the final convolution, plus the graph operators.

        Returns ``(hidden, ops)``.  The fused serving path of
        :meth:`repro.core.model.CGNP.context_concat` uses this to stop
        one layer short, aggregate the (cheaper) penultimate activations
        across support replicas, and fold the final layer with the ⊕
        reduction.  A one-layer encoder returns ``features`` itself,
        which may be a :class:`SupportInput`.
        """
        ops = graph_ops(graph, features.dtype)
        return self._run_layers(features, ops, self.num_layers - 1), ops

    def _run_layers(self, x: LayerInput, ops, count: int) -> LayerInput:
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
    def encode_sharded(self, graph, support: SupportInput, *,
                       dtype=None) -> np.ndarray:
        """Inference-only forward over a
        :class:`~repro.graph.shard.ShardedGraph`, one row shard at a time.

        ``support`` is the layer-0 input of every support view of
        ``graph`` (row block ``v`` is view ``v``, the
        ``GraphBatch.replicate`` layout).  Layer 0 projects it exactly as
        the dense forward does: the features once, over the whole matrix
        (a dense memmap stays file-backed).  Every layer activation lives
        in the graph's buffer arena — memmap-backed when the graph has a
        ``memmap_dir``.  The dense ``matmul`` against the weights always
        runs full-matrix
        (identical BLAS shapes to the dense forward — this is what makes
        the result *bitwise* equal, because BLAS reductions depend on the
        row count), while the sparse/edge message passing streams per
        ``(replica, shard)`` with halo gathers.

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
        xp = get_backend()
        resolved = resolve_dtype(dtype)
        shard_ops = graph_shard_ops(graph, resolved)
        n = graph.num_nodes
        rows = int(support.shape[0])
        replicas = rows // n

        def project(weight: np.ndarray) -> np.ndarray:
            return support.project(Tensor(weight)).data

        last = self.num_layers - 1
        act_name = "elu" if self.conv_name == "gat" else "relu"
        for index in range(self.num_layers):
            conv = self.convs[index]
            act = act_name if (index < last or self.activate_final) else None
            # Ping-pong between two arena activations; a layer never
            # writes the buffer it reads.
            out = graph.buffer(f"enc.h{index % 2}", (rows, self.hidden_dim),
                               resolved)
            self._stream_conv(conv, project, out, graph, shard_ops, replicas,
                              n, act)
            project = functools.partial(xp.matmul, out)
        return out

    def _stream_conv(self, conv, project, out, graph, shard_ops,
                     replicas: int, n: int, act: Optional[str]) -> None:
        """One convolution streamed into ``out``; ``project(w)`` is the
        layer input times ``w``, full-matrix."""
        if isinstance(conv, GCNConv):
            self._stream_gcn(conv, project, out, shard_ops, replicas, n, act)
        elif isinstance(conv, SAGEConv):
            self._stream_sage(conv, project, out, graph, shard_ops, replicas,
                              n, act)
        elif isinstance(conv, GATConv):
            self._stream_gat(conv, project, out, shard_ops, replicas, n, act)
        else:  # pragma: no cover - new conv types must opt in explicitly
            raise TypeError(
                f"no shard-streaming rule for {type(conv).__name__}")

    @staticmethod
    def _stream_gcn(conv, project, out, shard_ops, replicas: int, n: int,
                    act: Optional[str]) -> None:
        """``spmm(norm, x @ W) + b`` streamed per (replica, shard)."""
        xp = get_backend()
        xw = project(conv.weight.data)  # full-matrix: bitwise anchor
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
    def _stream_sage(conv, project, out, graph, shard_ops, replicas: int,
                     n: int, act: Optional[str]) -> None:
        """Project full-matrix, mean-aggregate the neighbour projection
        per shard, then mix."""
        xp = get_backend()
        rows = replicas * n
        neigh = project(conv.weight_neigh.data)
        means = graph.buffer("enc.sage.nm", (rows, int(neigh.shape[1])),
                             neigh.dtype)
        for v in range(replicas):
            base = v * n
            for ops in shard_ops:
                means[base + ops.row_start:base + ops.row_stop] = (
                    xp.spmm(ops.row_norm_adj, neigh[base + ops.halo]))
        del neigh
        mixed = project(conv.weight_self.data) + means
        if conv.bias is not None:
            mixed = mixed + conv.bias.data
        out[:] = _streaming_activation(mixed, act)

    @staticmethod
    def _stream_gat(conv, project, out, shard_ops, replicas: int, n: int,
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
            h = project(conv.weight.data[head])
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
