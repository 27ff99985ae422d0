"""Graph convolution layers: GCN, GAT and GraphSAGE.

The paper investigates these three as CGNP's encoder (section VII-E,
Table IV) and uses GAT by default.  Each layer follows the original
formulation:

* **GCNConv** (Kipf & Welling 2017): ``H' = D̂^{-1/2} Â D̂^{-1/2} H W``.
* **GATConv** (Velickovic et al. 2018): attention logits
  ``e_ij = LeakyReLU(a_l·Wh_i + a_r·Wh_j)`` normalised by softmax over
  each node's in-edges (self-loops included), multi-head by averaging.
* **SAGEConv** (Hamilton et al. 2017), mean aggregator:
  ``H' = [H ‖ D^{-1} A H] W``.

Graph-dependent operators (normalised adjacency + its pre-transposed
backward operator, edge lists with self-loops) are computed once per
graph — or per :class:`~repro.graph.batch.GraphBatch` — **per element
and index dtype**, and memoised through the explicit
:meth:`~repro.graph.graph.OpsCache.cached_ops` API by :func:`graph_ops`
under the ``(op, elem_dtype, index_dtype)`` key convention
(``"gnn.message_passing.float32.int32"`` and ``".float64.int64"``
variants coexist on one graph).  A block-diagonal batch adjacency normalises blockwise
(no edges cross blocks, self-loops are per node), so the same operators
drive single-graph and batched forwards without aliasing.

Every convolution starts by projecting its input through its weights
(:func:`project`).  The input is a dense activation, except at layer 0
of CGNP's encoder, where it is the Eq. 13 input ``[I_l ‖ A]`` of every
support view, held factored (:class:`~repro.gnn.encoder.SupportInput`):
the projection then multiplies each graph's features once, as CSR when
they are mostly zero.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..graph import Graph, GraphBatch, ShardedGraph, stack_csr
from ..nn import functional as F
from ..nn import init
from ..nn.backend import get_backend, resolve_dtype, resolve_index_dtype
from ..nn.module import Module, Parameter
from ..nn.sparse import normalized_adjacency, row_normalized_adjacency, spmm
from ..nn.tensor import Tensor

if TYPE_CHECKING:
    from .encoder import SupportInput

__all__ = ["GraphOps", "GraphLike", "graph_ops",
           "GraphShardOps", "graph_shard_ops", "project",
           "GCNConv", "GATConv", "SAGEConv", "CONV_TYPES"]

#: Anything the convolutions can message-pass over: a single graph or a
#: block-diagonal collation of several.
GraphLike = Union[Graph, GraphBatch]

#: What a convolution takes as input: a dense activation, or an encoder's
#: layer-0 support input.
LayerInput = Union[Tensor, "SupportInput"]

#: Cache-key *family* under which :func:`graph_ops` memoises operators;
#: the concrete key appends the element- and index-dtype names per the
#: ``(op, elem_dtype, index_dtype)`` convention (see
#: :class:`~repro.graph.graph.OpsCache`), and
#: ``invalidate_cached_ops(GRAPH_OPS_KEY)`` drops every dtype variant.
GRAPH_OPS_KEY = "gnn.message_passing"


@dataclasses.dataclass
class GraphOps:
    """Cached message-passing operators of one graph (or graph batch),
    all materialised at one element dtype (``dtype``) and one index
    dtype (``index_dtype``)."""

    norm_adj: sp.csr_matrix          # GCN: D̂^{-1/2}(A+I)D̂^{-1/2}
    norm_adj_t: sp.csr_matrix        # its backward operator (symmetric ⇒ alias)
    row_norm_adj: sp.csr_matrix      # SAGE mean aggregator: D^{-1}A
    row_norm_adj_t: sp.csr_matrix    # (D^{-1}A)ᵀ, pre-converted for backward
    edge_src: np.ndarray             # GAT: directed edges + self-loops
    edge_dst: np.ndarray
    num_nodes: int
    dtype: np.dtype
    index_dtype: np.dtype


def _build_graph_ops(graph: GraphLike, dtype: np.dtype,
                     index_dtype: np.dtype) -> GraphOps:
    if isinstance(graph, GraphBatch):
        return _compose_batch_ops(graph, dtype, index_dtype)
    src, dst = graph.directed_edges()
    loops = np.arange(graph.num_nodes, dtype=index_dtype)
    norm_adj = normalized_adjacency(graph.adjacency, dtype=dtype,
                                    index_dtype=index_dtype)
    row_norm_adj = row_normalized_adjacency(graph.adjacency, dtype=dtype,
                                            index_dtype=index_dtype)
    return GraphOps(
        norm_adj=norm_adj,
        # The symmetric normalisation is its own transpose, so the
        # backward operator aliases the forward one.
        norm_adj_t=norm_adj,
        row_norm_adj=row_norm_adj,
        row_norm_adj_t=get_backend().to_operator(
            row_norm_adj.T, dtype=dtype, index_dtype=index_dtype),
        edge_src=np.concatenate([src, loops]).astype(index_dtype, copy=False),
        edge_dst=np.concatenate([dst, loops]).astype(index_dtype, copy=False),
        num_nodes=graph.num_nodes,
        dtype=dtype,
        index_dtype=index_dtype,
    )


def _compose_batch_ops(batch: GraphBatch, dtype: np.dtype,
                       index_dtype: np.dtype) -> GraphOps:
    """Assemble a batch's operators from its members' cached operators.

    Normalisation is blockwise (no edges cross blocks, self-loops are per
    node), so the block-diagonal of the members' normalised adjacencies
    *is* the normalised block-diagonal adjacency — each member graph pays
    for degree normalisation once, ever, no matter how many collations it
    appears in (replicated support views share one member entry).  The
    same holds for the transposed backward operators (a block-diagonal
    transpose is the block-diagonal of the transposes).
    """
    member_ops = [graph_ops(g, dtype, index_dtype) for g in batch.graphs]
    # Python-int offsets keep the members' index width (int32 stays int32);
    # the stacks take the explicit width so the cache key never lies about
    # the operator it labels, whatever the ambient policy is.
    offsets = [int(offset) for offset in batch.offsets[:-1]]
    norm_adj = stack_csr([ops.norm_adj for ops in member_ops],
                         index_dtype=index_dtype)
    return GraphOps(
        norm_adj=norm_adj,
        norm_adj_t=norm_adj,
        row_norm_adj=stack_csr([ops.row_norm_adj for ops in member_ops],
                               index_dtype=index_dtype),
        row_norm_adj_t=stack_csr([ops.row_norm_adj_t for ops in member_ops],
                                 index_dtype=index_dtype),
        edge_src=np.concatenate(
            [ops.edge_src + offset for ops, offset in zip(member_ops, offsets)]),
        edge_dst=np.concatenate(
            [ops.edge_dst + offset for ops, offset in zip(member_ops, offsets)]),
        num_nodes=batch.num_nodes,
        dtype=dtype,
        index_dtype=index_dtype,
    )


def graph_ops(graph: GraphLike, dtype=None, index_dtype=None) -> GraphOps:
    """Build (or fetch the cached) :class:`GraphOps` for ``graph``.

    ``dtype`` selects the element width of the sparse operators and
    ``index_dtype`` the width of their structure/edge arrays (defaults:
    the ambient precision and index policies); each combination is
    memoised separately under the ``(op, elem_dtype, index_dtype)`` key.
    Works identically for a :class:`~repro.graph.graph.Graph` and a
    :class:`~repro.graph.batch.GraphBatch`; each instance memoises its
    own operators via :meth:`~repro.graph.graph.OpsCache.cached_ops`.
    """
    resolved = resolve_dtype(dtype)
    resolved_index = resolve_index_dtype(index_dtype)
    key = f"{GRAPH_OPS_KEY}.{resolved.name}.{resolved_index.name}"
    return graph.cached_ops(
        key, lambda g: _build_graph_ops(g, resolved, resolved_index))


def _compact_rows(matrix: sp.csr_matrix, lo: int, hi: int,
                  halo: np.ndarray, index_dtype: np.dtype) -> sp.csr_matrix:
    """Slice rows ``lo..hi`` of a CSR operator and compact its columns
    onto the shard's halo.

    ``halo`` is sorted and covers every column the sliced rows touch, and
    CSR column indices are sorted within each row, so the
    ``searchsorted`` remap keeps each row's column order exactly — an
    spmm over the compacted slice accumulates every output row in the
    same term order as the global operator (the bitwise-parity
    invariant).  Data/structure arrays are copied so the global operator
    can be freed after slicing.
    """
    indptr = matrix.indptr[lo:hi + 1].astype(np.int64)
    start, stop = int(indptr[0]), int(indptr[-1])
    data = np.array(matrix.data[start:stop])
    local = np.searchsorted(halo, matrix.indices[start:stop])
    # Assemble through attribute assignment (not the csr constructor) so
    # scipy cannot second-guess the requested index width.
    shell = sp.csr_matrix((hi - lo, int(halo.size)), dtype=matrix.dtype)
    shell.data = data
    shell.indices = local.astype(index_dtype)
    shell.indptr = (indptr - start).astype(index_dtype)
    return shell


class _ShardOperatorStore:
    """Lazy per-family backing store shared by one graph's shard ops.

    Each operator *family* (GCN's symmetric normalisation, SAGE's row
    normalisation, GAT's directed edge lists) is built for **all** shards
    in one pass on first access — the global operator is materialised
    once, sliced per shard with halo compaction, then freed — and
    families a workload never touches are never built (a GCN-only
    serving path pays for ``norm_adj`` slices only).
    """

    def __init__(self, graph: "ShardedGraph", dtype: np.dtype,
                 index_dtype: np.dtype):
        self._graph = graph
        self._dtype = dtype
        self._index_dtype = index_dtype
        self._families: dict = {}

    def family(self, name: str):
        got = self._families.get(name)
        if got is None:
            got = self._families[name] = self._build(name)
        return got

    def _build(self, name: str):
        graph = self._graph
        bounds = [graph.shard_range(i) for i in range(graph.num_shards)]
        if name == "edges":
            # Global edge order is concat(both orientations) + self-loops
            # (exactly `_build_graph_ops`); each shard keeps the
            # subsequence whose destination it owns, so per-destination
            # edge order — the order segment softmax and scatter-add
            # accumulate in — matches the dense path bitwise.
            src, dst = graph.directed_edges()
            loops = np.arange(graph.num_nodes, dtype=self._index_dtype)
            edge_src = np.concatenate([src, loops]).astype(self._index_dtype,
                                                           copy=False)
            edge_dst = np.concatenate([dst, loops]).astype(self._index_dtype,
                                                           copy=False)
            shards = []
            for lo, hi in bounds:
                mask = (edge_dst >= lo) & (edge_dst < hi)
                shards.append((edge_src[mask],
                               (edge_dst[mask] - lo).astype(self._index_dtype,
                                                            copy=False)))
            return shards
        if name == "norm_adj":
            full = normalized_adjacency(graph.adjacency, dtype=self._dtype,
                                        index_dtype=self._index_dtype)
        elif name == "row_norm_adj":
            full = row_normalized_adjacency(graph.adjacency, dtype=self._dtype,
                                            index_dtype=self._index_dtype)
        else:  # pragma: no cover - internal misuse
            raise KeyError(name)
        shards = [_compact_rows(full, lo, hi, graph.halo(i), self._index_dtype)
                  for i, (lo, hi) in enumerate(bounds)]
        return shards


@dataclasses.dataclass
class GraphShardOps:
    """Message-passing operators of one row shard of a
    :class:`~repro.graph.shard.ShardedGraph`.

    The sparse/edge operators live in a lazily-built family store shared
    by all shards of one ``(dtype, index_dtype)`` combination; accessing
    e.g. ``norm_adj`` materialises that family for every shard at once
    (one global build + slice) and leaves the other families unbuilt.

    ``norm_adj`` / ``row_norm_adj`` are halo-compacted: shape
    ``(num_rows, len(halo))``, with column ``j`` standing for global node
    ``halo[j]`` — gather ``x[halo]`` and spmm.  ``edge_src`` holds
    *global* source ids of the directed-edge subsequence whose
    destination falls in ``[row_start, row_stop)``; ``edge_dst_local`` is
    those destinations shifted to shard-local row ids.
    """

    index: int
    row_start: int
    row_stop: int
    halo: np.ndarray
    num_rows: int
    dtype: np.dtype
    index_dtype: np.dtype
    _store: _ShardOperatorStore = dataclasses.field(repr=False)

    @property
    def norm_adj(self) -> sp.csr_matrix:
        return self._store.family("norm_adj")[self.index]

    @property
    def row_norm_adj(self) -> sp.csr_matrix:
        return self._store.family("row_norm_adj")[self.index]

    @property
    def edge_src(self) -> np.ndarray:
        return self._store.family("edges")[self.index][0]

    @property
    def edge_dst_local(self) -> np.ndarray:
        return self._store.family("edges")[self.index][1]


def graph_shard_ops(graph: "ShardedGraph", dtype=None,
                    index_dtype=None) -> list:
    """Build (or fetch the cached) per-shard operator list of ``graph``.

    One :class:`GraphShardOps` per row shard, memoised under
    ``"gnn.message_passing.<elem>.<index>.shard<i>"`` — the dense
    family key plus a shard segment, so every family-prefix
    ``invalidate_cached_ops`` that drops the dense operators drops the
    shard slices with them (see
    :class:`~repro.graph.graph.OpsCache`).
    """
    if not isinstance(graph, ShardedGraph):
        raise TypeError(
            f"graph_shard_ops needs a ShardedGraph, got {type(graph).__name__}")
    resolved = resolve_dtype(dtype)
    resolved_index = resolve_index_dtype(index_dtype)
    base = f"{GRAPH_OPS_KEY}.{resolved.name}.{resolved_index.name}"
    # All shards missing from the cache share one lazily-built family
    # store; cached shards keep the store they were built with.
    store_box: list = []

    def shard_builder(i):
        def builder(g):
            if not store_box:
                store_box.append(
                    _ShardOperatorStore(g, resolved, resolved_index))
            lo, hi = g.shard_range(i)
            return GraphShardOps(index=i, row_start=lo, row_stop=hi,
                                 halo=g.halo(i), num_rows=hi - lo,
                                 dtype=resolved, index_dtype=resolved_index,
                                 _store=store_box[0])
        return builder

    return [graph.cached_ops(f"{base}.shard{i}", shard_builder(i))
            for i in range(graph.num_shards)]


def project(x: LayerInput, weight: Tensor) -> Tensor:
    """``x @ weight``: the feature projection every convolution starts with.

    ``x`` is a dense activation, or at layer 0 of CGNP's encoder the
    factored Eq. 13 input ``[I_l ‖ A]`` of every support view
    (:class:`~repro.gnn.encoder.SupportInput`), which projects each
    graph's features once and shares the product across its views.
    """
    if isinstance(x, Tensor):
        return x.matmul(weight)
    return x.project(weight)


class GCNConv(Module):
    """Graph convolution of Kipf & Welling."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros_init(out_features)) if bias else None

    def forward(self, x: LayerInput, ops: GraphOps) -> Tensor:
        out = spmm(ops.norm_adj, project(x, self.weight), ops.norm_adj_t)
        if self.bias is not None:
            out = out + self.bias
        return out

    def fused_forward(self, x: LayerInput, ops: GraphOps,
                      act: Optional[str] = None) -> Tensor:
        """Inference-only forward with bias + activation fused into the
        spmm (the epilogue runs in place on the spmm's fresh output).

        Never taped — callers must hold ``no_grad()``; the encoder's
        dispatch guarantees it.  Bitwise-identical to ``forward``
        followed by the activation.
        """
        h = project(x, self.weight)
        bias = None if self.bias is None else self.bias.data
        return Tensor(get_backend().spmm_bias_act(ops.norm_adj, h.data,
                                                  bias, act))


class GATConv(Module):
    """Graph attention convolution of Velickovic et al.

    Multi-head attention with head-averaged outputs (keeping the layer
    width equal to ``out_features`` regardless of head count, as the paper
    fixes 128 hidden units per layer).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 num_heads: int = 1, negative_slope: float = 0.2, bias: bool = True):
        super().__init__()
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.num_heads = num_heads
        self.negative_slope = negative_slope
        self.weight = Parameter(
            init.glorot_uniform((num_heads, in_features, out_features), rng))
        self.attn_src = Parameter(init.glorot_uniform((num_heads, out_features), rng))
        self.attn_dst = Parameter(init.glorot_uniform((num_heads, out_features), rng))
        self.bias = Parameter(init.zeros_init(out_features)) if bias else None

    def _combine_heads(self, x: LayerInput, ops: GraphOps) -> Tensor:
        """Everything up to (excluding) the bias: attention per head,
        messages scattered to destinations, heads averaged."""
        head_outputs = []
        for head in range(self.num_heads):
            weight = self.weight[head]           # (in, out)
            h = project(x, weight)               # (n, out)
            score_src = (h * self.attn_src[head]).sum(axis=1)   # (n,)
            score_dst = (h * self.attn_dst[head]).sum(axis=1)   # (n,)
            logits = F.leaky_relu(
                score_src.take_rows(ops.edge_src) + score_dst.take_rows(ops.edge_dst),
                self.negative_slope,
            )                                    # (E,)
            alpha = F.segment_softmax(logits, ops.edge_dst, ops.num_nodes)
            messages = h.take_rows(ops.edge_src) * alpha.reshape(-1, 1)
            head_outputs.append(F.scatter_add(messages, ops.edge_dst, ops.num_nodes))
        out = head_outputs[0]
        if self.num_heads > 1:
            for other in head_outputs[1:]:
                out = out + other
            out = out * (1.0 / self.num_heads)
        return out

    def forward(self, x: LayerInput, ops: GraphOps) -> Tensor:
        out = self._combine_heads(x, ops)
        if self.bias is not None:
            out = out + self.bias
        return out

    def fused_forward(self, x: LayerInput, ops: GraphOps,
                      act: Optional[str] = None) -> Tensor:
        """Inference-only forward with the bias + activation epilogue
        fused into one elementwise pass (the attention path itself has no
        spmm to fuse into).  Never taped; see ``GCNConv.fused_forward``.
        """
        out = self._combine_heads(x, ops)
        bias = None if self.bias is None else self.bias.data
        return Tensor(get_backend().bias_act(out.data, bias, act))


class SAGEConv(Module):
    """GraphSAGE with the mean aggregator: ``[h_v ‖ mean(h_N(v))] W``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight_self = Parameter(init.glorot_uniform((in_features, out_features), rng))
        self.weight_neigh = Parameter(init.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros_init(out_features)) if bias else None

    def _mix(self, x: LayerInput, ops: GraphOps) -> Tensor:
        """``x W_self + mean(x) W_neigh`` with the mean taken after the
        projection (``D⁻¹A (x W_neigh)``), so a support input is only
        ever projected, never aggregated."""
        neighbor_mean = spmm(ops.row_norm_adj, project(x, self.weight_neigh),
                             ops.row_norm_adj_t)
        return project(x, self.weight_self) + neighbor_mean

    def forward(self, x: LayerInput, ops: GraphOps) -> Tensor:
        out = self._mix(x, ops)
        if self.bias is not None:
            out = out + self.bias
        return out

    def fused_forward(self, x: LayerInput, ops: GraphOps,
                      act: Optional[str] = None) -> Tensor:
        """Inference-only forward with the bias + activation epilogue
        fused into one elementwise pass after the two-matmul mix.
        Never taped; see ``GCNConv.fused_forward``."""
        out = self._mix(x, ops)
        bias = None if self.bias is None else self.bias.data
        return Tensor(get_backend().bias_act(out.data, bias, act))


CONV_TYPES = {"gcn": GCNConv, "gat": GATConv, "sage": SAGEConv}
