"""CGNP decoders ρ_θ: map (query node, context H) to membership logits.

Three decoders of increasing capacity (section VI):

* **inner product** — parameter-free: ``logit(v) = ⟨H[q*], H[v]⟩``
  (Eq. 17); the angle between embeddings encodes community membership.
* **MLP** — transforms the context with a two-layer MLP (512 hidden units
  in the paper) before the inner product; nodes are transformed
  independently.
* **GNN** — transforms the context with an independent 2-layer GNN
  (allowing further message passing) before the inner product.

All three share one skeleton: a context *transform* followed by the inner
product against the query row.  :class:`Decoder` factors that out and adds
:meth:`Decoder.forward_batch`, which answers a whole batch of queries with
a single transform and one matmul.  Because the transform does not depend
on the query, :class:`~repro.api.engine.CommunitySearchEngine` runs it
once per encoded context and serves reads through
:meth:`Decoder.inner_products` alone.

All decoders return *logits*; callers apply the sigmoid.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import Graph
from ..nn.backend import resolve_index_dtype
from ..nn.layers import MLP
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..gnn.conv import GraphLike
from ..gnn.encoder import GNNEncoder

__all__ = ["Decoder", "InnerProductDecoder", "MLPDecoder", "GNNDecoder",
           "make_decoder", "DECODERS"]


class Decoder(Module):
    """Common decoder skeleton: transform the context, then inner-product.

    Subclasses override :meth:`transform`; the single-query and batched
    forward passes are shared.  Because the transform is independent of
    the query node, a batch of queries costs one transform plus one
    matmul instead of ``B`` full decoder passes.
    """

    def transform(self, context: Tensor, graph: GraphLike) -> Tensor:
        """Query-independent context transform (identity by default).

        ``graph`` may be a single task graph or a block-diagonal
        :class:`~repro.graph.GraphBatch` whose node layout matches the
        stacked ``context`` rows — the mini-batch trainer transforms the
        concatenated contexts of a whole task batch in one pass.
        """
        return context

    def forward(self, context: Tensor, query: int, graph: Graph) -> Tensor:
        """Membership logits of every node for one query: ``(n,)``."""
        transformed = self.transform(context, graph)
        query_embedding = transformed.take_rows(np.asarray([int(query)]))  # (1, d)
        return transformed.matmul(query_embedding.reshape(-1))             # (n,)

    def forward_batch(self, context: Tensor, queries: np.ndarray,
                      graph: Graph,
                      accum_dtype: Optional[np.dtype] = None) -> Tensor:
        """Membership logits for a batch of queries: ``(B, n)``.

        Row ``b`` equals ``forward(context, queries[b], graph)``; the
        context transform runs once for the whole batch.  See
        :meth:`inner_products` for ``accum_dtype``.
        """
        return self.inner_products(self.transform(context, graph), queries,
                                   accum_dtype=accum_dtype)

    def inner_products(self, transformed: Tensor, queries: np.ndarray,
                       accum_dtype: Optional[np.dtype] = None) -> Tensor:
        """Query rows of an *already transformed* context: ``(B, n)``.

        The second half of :meth:`forward_batch`, split out so the
        serving engine can cache ``transformed`` once per encoded context
        and answer every later query batch with the gather + GEMM alone.
        Each batch keeps the BLAS shapes of a standalone
        :meth:`forward_batch` call, which is what makes cached and
        coalesced answers bitwise-identical to direct ones.

        ``accum_dtype`` (inference only, never taped) runs the inner
        products at a wider accumulator and casts the logits back to the
        context's dtype — the engine sets float64 when the transformed
        contexts are stored compacted (float32/float16/int8), so the
        decoder's long dot products never stack rounding on top of the
        storage quantisation of ``transformed``.
        """
        indices = np.asarray(queries, dtype=resolve_index_dtype())
        if accum_dtype is not None:
            data = transformed.data
            wide = data.astype(accum_dtype, copy=False)
            logits = wide[indices] @ wide.T              # (B, n) at accum
            return Tensor(logits.astype(data.dtype, copy=False))
        gathered = transformed.take_rows(indices)        # (B, d)
        return gathered.matmul(transformed.transpose())  # (B, n)


class InnerProductDecoder(Decoder):
    """Parameter-free similarity decoder (Eq. 17)."""


class MLPDecoder(Decoder):
    """MLP-transformed context followed by the inner product.

    Parameters
    ----------
    dim:
        Context embedding width.
    hidden_dim:
        MLP hidden width (paper: 512).
    rng:
        Init generator.
    """

    def __init__(self, dim: int, rng: np.random.Generator, hidden_dim: int = 512):
        super().__init__()
        self.mlp = MLP([dim, hidden_dim, dim], rng)

    def transform(self, context: Tensor, graph: GraphLike) -> Tensor:
        return self.mlp(context)


class GNNDecoder(Decoder):
    """GNN-transformed context followed by the inner product.

    The decoder GNN is independent of the encoder GNN (same conv type and
    width, 2 layers by default per the paper's settings).
    """

    def __init__(self, dim: int, rng: np.random.Generator, conv: str = "gat",
                 num_layers: int = 2, dropout: float = 0.2):
        super().__init__()
        self.gnn = GNNEncoder(dim, dim, num_layers, conv, dropout, rng)

    def transform(self, context: Tensor, graph: GraphLike) -> Tensor:
        return self.gnn(context, graph)


DECODERS = ("ip", "mlp", "gnn")


def make_decoder(name: str, dim: int, rng: np.random.Generator,
                 conv: str = "gat", mlp_hidden: int = 512) -> Decoder:
    """Factory: ``name`` ∈ {"ip", "mlp", "gnn"}."""
    key = name.lower()
    if key == "ip":
        return InnerProductDecoder()
    if key == "mlp":
        return MLPDecoder(dim, rng, hidden_dim=mlp_hidden)
    if key == "gnn":
        return GNNDecoder(dim, rng, conv=conv)
    raise ValueError(f"unknown decoder {name!r}; choose from {DECODERS}")
