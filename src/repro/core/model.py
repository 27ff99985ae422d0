"""The Conditional Graph Neural Process model (sections V–VI).

A CGNP is the composition of

* a **GNN encoder** φ_θ that, for each support pair ``(q, l_q)``, encodes
  the task graph with the ground-truth indicator channel into a
  query-specific view ``H_q ∈ R^{n×d}`` (Eq. 13);
* a **commutative operation** ⊕ combining the views into one context
  matrix ``H`` (Eq. 14-16);
* a **decoder** ρ_θ that, given a new query node ``q*``, produces a
  membership logit for every node from ``H`` (Eq. 17).

One model instance is the *meta* model: its parameters are shared across
tasks, and "adaptation" to a task is just the forward computation of that
task's context — no test-time gradient steps, which is where CGNP's test
efficiency (Fig. 3a) comes from.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..graph import Graph, GraphBatch, ShardedGraph
from ..nn import functional as F
from ..nn.backend import (fused_inference_enabled, get_backend,
                          index_dtype_for, resolve_dtype, resolve_index_dtype)
from ..nn.module import Module
from ..nn.tensor import Tensor, is_grad_enabled, no_grad
from ..gnn.conv import GATConv, GCNConv, SAGEConv, graph_ops, project
from ..gnn.encoder import (GNNEncoder, SupportInput, layer0_features,
                           make_query_features, support_indicators)
from ..tasks.task import QueryExample, Task
from .aggregators import MeanAggregator, SumAggregator, make_aggregator
from .decoders import make_decoder

__all__ = ["CGNPConfig", "CGNP"]


@dataclasses.dataclass
class CGNPConfig:
    """Hyper-parameters of a CGNP model (paper defaults)."""

    hidden_dim: int = 128
    num_layers: int = 3
    conv: str = "gat"            # encoder convolution: gcn | gat | sage
    aggregator: str = "sum"      # commutative ⊕: sum | mean | attention
    decoder: str = "ip"          # ρ: ip | mlp | gnn
    dropout: float = 0.2
    mlp_hidden: int = 512
    num_heads: int = 1
    # None defers to the task's default feature configuration (which the
    # scenario builders set, e.g. structural-only for cross-domain MGDD).
    use_attributes: Optional[bool] = None
    use_structural: Optional[bool] = None


class CGNP(Module):
    """Conditional Graph Neural Process for community search.

    Parameters
    ----------
    in_dim:
        Raw node-feature dimensionality of the tasks this model will see
        (*excluding* the indicator channel, which the model adds itself).
    config:
        Architecture configuration.
    rng:
        Generator for parameter initialisation and dropout.
    """

    def __init__(self, in_dim: int, config: CGNPConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.in_dim = in_dim
        # The ambient precision policy at construction time becomes the
        # model's own dtype: parameters are initialised at it, and every
        # forward entry point casts incoming features to it, so a float32
        # model computes fully in float32 even on float64-materialised
        # tasks (and vice versa).
        self.dtype = resolve_dtype()
        self.encoder = GNNEncoder(
            in_dim + 1,  # +1 for the ground-truth indicator channel
            config.hidden_dim,
            config.num_layers,
            config.conv,
            config.dropout,
            rng,
            num_heads=config.num_heads,
        )
        self.aggregator = make_aggregator(config.aggregator, config.hidden_dim, rng)
        self.decoder = make_decoder(config.decoder, config.hidden_dim, rng,
                                    conv=config.conv, mlp_hidden=config.mlp_hidden)

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def encode_view(self, task: Task, example: QueryExample) -> Tensor:
        """φ_θ(q, l_q, G): the query-specific view ``H_q``.

        The indicator channel marks the query node and its known positive
        samples (Eq. 13's close-world identifier ``I_l``).
        """
        features = task.features(self.config.use_attributes, self.config.use_structural)
        inputs = make_query_features(features, example.query, example.positives)
        return self.encoder(Tensor(inputs, dtype=self.dtype), task.graph)

    def context(self, task: Task, support: Optional[Sequence[QueryExample]] = None) -> Tensor:
        """⊕ over the support views: the task's context matrix ``H``.

        All support views are encoded in one block-diagonal forward via
        :meth:`context_batch` — ``k`` support pairs cost one encoder pass,
        not ``k``.
        """
        supports = None if support is None else [support]
        return self.context_batch([task], supports=supports)[0]

    def context_batch(self, tasks: Sequence[Task],
                      supports: Optional[Sequence[Sequence[QueryExample]]] = None,
                      ) -> List[Tensor]:
        """Context matrices of several tasks from ONE batched encoder forward.

        Every support view of every task becomes one block of a
        block-diagonal :class:`~repro.graph.GraphBatch` (a task with
        ``k`` shots contributes ``k`` replicas of its graph), the encoder
        runs once over the whole collation, and each task's views are
        combined by the commutative ⊕.  Tasks may differ in graph size
        and shot count (ragged batches).

        Parameters
        ----------
        tasks:
            Tasks to encode, in output order.
        supports:
            Optional per-task support overrides (parallel to ``tasks``);
            ``None`` entries fall back to the task's own support set.
        """
        combined, offsets = self.context_concat(tasks, supports)
        if len(offsets) == 2:
            return [combined]
        return [combined[int(start):int(stop)]
                for start, stop in zip(offsets[:-1], offsets[1:])]

    def context_concat(self, tasks: Sequence[Task],
                       supports: Optional[Sequence[Sequence[QueryExample]]] = None,
                       ):
        """Row-concatenated contexts of several tasks plus their offsets.

        Returns ``(contexts, offsets)`` where ``contexts`` is the
        ``(sum n_t, d)`` vertical stack of the per-task context matrices
        and ``offsets[t] : offsets[t + 1]`` is task ``t``'s row range —
        the exact node layout of ``GraphBatch(task graphs)``, so the
        batched trainer can push the whole stack through the decoder
        transform in one pass.  For the sum/mean ⊕ the view combination
        itself is a single segment reduction (no per-task Python loop).
        """
        tasks, support_sets = self._resolve_supports(tasks, supports)
        if self._sharded_context_active(tasks):
            return self._context_concat_sharded(tasks, support_sets)
        stacked, batch, layout = self._collate_support_views(tasks,
                                                            support_sets)
        sizes64 = np.asarray([n for _, n in layout], dtype=np.int64)
        offsets64 = np.concatenate([[0], np.cumsum(sizes64)])
        index_dtype = index_dtype_for(int(offsets64[-1]))
        offsets = offsets64.astype(index_dtype, copy=False)

        if isinstance(self.aggregator, (SumAggregator, MeanAggregator)):
            if all(k == 1 for k, _ in layout):
                # 1-shot: views are contexts (encoder fuses per layer
                # internally when inference allows).
                return self.encoder(stacked, batch), offsets
            segment = np.concatenate(
                [np.arange(k * n, dtype=index_dtype) % n + int(offset)
                 for (k, n), offset in zip(layout, offsets[:-1])])
            if self._fold_active():
                combined = self._fused_context_fold(tasks, stacked, batch,
                                                    layout, offsets, segment)
                return combined, offsets
            hidden = self.encoder(stacked, batch)
            combined = F.scatter_add(hidden, segment, int(offsets[-1]))
            if isinstance(self.aggregator, MeanAggregator):
                inverse_counts = np.concatenate(
                    [np.full(n, 1.0 / k, dtype=combined.dtype)
                     for k, n in layout])
                combined = combined * Tensor(inverse_counts[:, None])
            return combined, offsets

        hidden = self.encoder(stacked, batch)

        contexts: List[Tensor] = []
        row = 0
        width = self.config.hidden_dim
        for k, n in layout:
            views = hidden[row:row + k * n].reshape(k, n, width)
            contexts.append(self.aggregator(views))
            row += k * n
        return F.concat(contexts, axis=0), offsets

    def _resolve_supports(self, tasks: Sequence[Task],
                          supports: Optional[Sequence[Sequence[QueryExample]]],
                          ):
        tasks = list(tasks)
        if not tasks:
            raise ValueError("context_batch requires at least one task")
        if supports is None:
            return tasks, [list(t.support) for t in tasks]
        supports = list(supports)
        if len(supports) != len(tasks):
            raise ValueError(
                f"got {len(supports)} support sets for {len(tasks)} tasks")
        return tasks, [list(s) if s is not None else list(t.support)
                       for t, s in zip(tasks, supports)]

    def _collate_support_views(self, tasks: Sequence[Task],
                               support_sets: Sequence[List[QueryExample]],
                               ):
        """Collate every support view into one block-diagonal batch.

        Returns ``(stacked_inputs, batch, layout)``: ``stacked_inputs``
        is the :class:`~repro.gnn.encoder.SupportInput` of every view
        (each task's features and indicator mask, at the model dtype), and
        ``layout`` is the ``(shots, nodes)`` row-block description of
        each task; the caller runs the encoder (fully, or stopping one
        layer short on the fused serving path).
        """
        blocks: List[tuple] = []
        replicas: List[Graph] = []
        layout: List[tuple] = []
        for task, examples in zip(tasks, support_sets):
            if not examples:
                raise ValueError("context requires at least one support example")
            blocks.extend(self._support_input(task, examples).blocks)
            replicas.extend([task.graph] * len(examples))
            layout.append((len(examples), task.graph.num_nodes))
        if len(replicas) == 1:
            # Single 1-shot task: the graph itself (permanently cached ops).
            batch = replicas[0]
        elif len(tasks) == 1:
            # Single task, k shots: the replica collation only depends on
            # (graph, k), so memoise it on the graph across training steps.
            count = len(replicas)
            batch = tasks[0].graph.cached_ops(
                f"gnn.replica_batch.{count}",
                lambda graph: GraphBatch([graph] * count))
        else:
            batch = GraphBatch(replicas)
        return SupportInput(blocks).astype(self.dtype), batch, layout

    def _support_input(self, task: Task,
                       examples: Sequence[QueryExample]) -> SupportInput:
        """The Eq. 13 encoder input of ``examples`` on ``task``'s graph."""
        config = self.config
        if (len(examples) == len(task.support)
                and all(a is b for a, b in zip(examples, task.support))):
            # Common path: the task's own support input is cached across
            # training steps.
            return task.support_features(config.use_attributes,
                                         config.use_structural)
        features = task.encoder_features(config.use_attributes,
                                         config.use_structural)
        return SupportInput(
            [(features, support_indicators(examples, task.num_nodes))])

    # ------------------------------------------------------------------
    # Shard-streaming context encoding
    # ------------------------------------------------------------------
    def _sharded_context_active(self, tasks: Sequence[Task]) -> bool:
        """Whether context encoding should stream shard by shard.

        Requires every task graph to be a
        :class:`~repro.graph.shard.ShardedGraph`, inference (eval mode,
        no tape — the streaming forward has no VJPs), and a sum/mean ⊕
        (pooling must distribute over row blocks).  Anything else —
        training, the attention ⊕, plain or mixed graphs — falls through
        to the dense collation path, which a ``ShardedGraph`` supports
        unchanged (it *is* a ``Graph``).
        """
        return (isinstance(self.aggregator, (SumAggregator, MeanAggregator))
                and not self.training and not is_grad_enabled()
                and all(isinstance(t.graph, ShardedGraph) for t in tasks))

    def _context_concat_sharded(self, tasks: Sequence[Task],
                                support_sets: Sequence[List[QueryExample]]):
        """Per-task shard-streaming contexts, concatenated like the dense
        path's output.

        Tasks are encoded one at a time (each bitwise-identical to its
        own dense single-task encode; cross-task collation would change
        the BLAS row count and thereby the bits), with the support-set ⊕
        pooled incrementally across replica blocks as each streams out of
        the arena.
        """
        contexts = [self._sharded_task_context(task, examples)
                    for task, examples in zip(tasks, support_sets)]
        sizes64 = np.asarray([task.graph.num_nodes for task in tasks],
                             dtype=np.int64)
        offsets64 = np.concatenate([[0], np.cumsum(sizes64)])
        index_dtype = index_dtype_for(int(offsets64[-1]))
        offsets = offsets64.astype(index_dtype, copy=False)
        combined = (contexts[0] if len(contexts) == 1
                    else np.concatenate(contexts, axis=0))
        return Tensor(combined), offsets

    def _sharded_task_context(self, task: Task,
                              examples: Sequence[QueryExample]) -> np.ndarray:
        """One task's context matrix via the shard-streaming encoder.

        Pooling replicates the dense segment-scatter exactly: start from
        zeros and add replica blocks in view order — the edge-order sum
        ``scatter_add_rows`` computes on the dense path.
        """
        if not examples:
            raise ValueError("context requires at least one support example")
        graph = task.graph
        k = len(examples)
        n = graph.num_nodes
        support = self._sharded_support_input(task, list(examples))
        hidden = self.encoder.encode_sharded(graph, support,
                                             dtype=self.dtype)
        context = np.zeros((n, int(hidden.shape[1])), dtype=hidden.dtype)
        for view in range(k):
            context += hidden[view * n:(view + 1) * n]
        if isinstance(self.aggregator, MeanAggregator):
            context *= context.dtype.type(1.0 / k)
        return context

    def _sharded_support_input(self, task: Task,
                               examples: List[QueryExample]) -> SupportInput:
        """The support input of :meth:`GNNEncoder.encode_sharded
        <repro.gnn.encoder.GNNEncoder.encode_sharded>`, equal to the one
        the dense path collates.

        When the task reads raw attributes only (no structural channel),
        the features come straight from the graph's (memmap) feature
        storage: a CSR copy when they are mostly zero, otherwise the
        storage itself, so the full ``n x d`` matrix never materialises
        in anonymous memory (at another width it is cast into an arena
        buffer).  Any other feature configuration uses the task's
        :meth:`~repro.tasks.task.Task.encoder_features`.
        """
        graph = task.graph
        config = self.config
        use_attrs = (task.use_attributes if config.use_attributes is None
                     else config.use_attributes)
        use_struct = (task.use_structural if config.use_structural is None
                      else config.use_structural)
        if use_attrs and not use_struct and graph.attributes is not None:
            features = graph.attributes
            if features.dtype != self.dtype:
                features = graph.buffer("enc.x", features.shape, self.dtype)
                features[:] = graph.attributes
            features = layer0_features(features, self.dtype)
        else:
            features = task.encoder_features(use_attrs, use_struct)
        return SupportInput(
            [(features, support_indicators(examples, graph.num_nodes))]
        ).astype(self.dtype)

    def _fold_active(self) -> bool:
        """Whether the fused encode-then-aggregate fold may run.

        Requires inference (policy on, eval mode, no tape — the same
        gate as the encoder's per-layer fusion) plus a linear final
        encoder layer w.r.t. the ⊕ reduction: ``activate_final`` must be
        off (CGNP's default — the context embedding is linear).  The
        caller has already checked the aggregator is sum/mean.
        """
        return (fused_inference_enabled() and not self.training
                and not is_grad_enabled() and not self.encoder.activate_final)

    def _fused_context_fold(self, tasks: Sequence[Task],
                            stacked: SupportInput, batch,
                            layout: Sequence[tuple],
                            offsets: np.ndarray,
                            segment: np.ndarray) -> Tensor:
        """Fold the final encoder layer and the segment-scatter ⊕ together.

        The unfused path runs all ``K`` encoder layers over the
        ``sum(k_t * n_t)``-row replica batch and then segment-reduces.
        Because the final CGNP layer is linear in its input (GCN/SAGE) or
        ends in a scatter (GAT), the reduction commutes with (part of)
        it:

        * **GCN/SAGE** — ``⊕_k L(X_k) = L(⊕_k X_k)`` (with the bias
          replicated ``k`` times under the sum ⊕), so the penultimate
          activations are pooled *first* and the final layer runs over
          the ``sum(n_t)``-row task batch: its spmm + matmul cost drops
          by the shot count ``k``.  The spmm and bias ride the fused
          ``spmm_bias_act`` kernel.
        * **GAT** — attention is nonlinear per replica, so the edge path
          still runs on the replica batch; but the final per-head
          scatter and the ⊕ segment-scatter compose into ONE scatter
          (``segment[edge_dst]``), skipping the ``(sum k_t n_t, d)``
          intermediate and its second full pass.

        Numerics: reassociating the sums is exact in exact arithmetic
        but not bitwise in floats — contexts match the unfused path to
        ~1e-12 relative at float64 (tests pin membership parity as well).
        """
        xp = get_backend()
        x, ops = self.encoder.encode_hidden(stacked, batch)
        total = int(offsets[-1])
        conv = self.encoder.convs[-1]
        mean = isinstance(self.aggregator, MeanAggregator)
        ks = [k for k, _ in layout]
        uniform_k = len(set(ks)) == 1
        bias = None if conv.bias is None else conv.bias.data

        def finish(out: np.ndarray) -> Tensor:
            """Scale for the mean ⊕ and add the (k-replicated) bias."""
            if mean:
                inverse_counts = np.concatenate(
                    [np.full(n, 1.0 / k, dtype=out.dtype) for k, n in layout])
                out *= inverse_counts[:, None]
                if bias is not None:
                    out += bias
            elif bias is not None:
                if uniform_k:
                    out += bias * ks[0]
                else:
                    counts = np.concatenate(
                        [np.full(n, k, dtype=out.dtype) for k, n in layout])
                    out += bias * counts[:, None]
            return Tensor(out)

        if isinstance(conv, GATConv):
            # Compose the conv's destination scatter with the ⊕ scatter.
            agg_dst = segment[np.asarray(ops.edge_dst)]
            accum: Optional[np.ndarray] = None
            for head in range(conv.num_heads):
                h = project(x, conv.weight[head]).data
                score_src = (h * conv.attn_src.data[head]).sum(axis=1)
                score_dst = (h * conv.attn_dst.data[head]).sum(axis=1)
                raw = (xp.gather_rows(score_src, ops.edge_src)
                       + xp.gather_rows(score_dst, ops.edge_dst))
                logits = np.where(raw > 0, raw, conv.negative_slope * raw)
                alpha = xp.segment_softmax(logits, ops.edge_dst,
                                           ops.num_nodes)
                messages = xp.gather_rows(h, ops.edge_src) * alpha[:, None]
                head_out = xp.scatter_add_rows(messages, agg_dst, total)
                accum = head_out if accum is None else accum + head_out
            if conv.num_heads > 1:
                accum = accum * (1.0 / conv.num_heads)
            return finish(accum)

        # Linear final layers: pool the penultimate activations first,
        # then run the layer once over the task graphs (cost / k).
        if isinstance(x, Tensor):
            pooled = Tensor(xp.scatter_add_rows(x.data, segment, total))

            def pooled_projection(weight: Tensor) -> np.ndarray:
                return project(pooled, weight).data
        else:
            # One-layer encoder: x is the support input itself, whose
            # projection already shares one product across the views.
            def pooled_projection(weight: Tensor) -> np.ndarray:
                return xp.scatter_add_rows(project(x, weight).data, segment,
                                           total)
        task_graph = (tasks[0].graph if len(tasks) == 1
                      else GraphBatch([t.graph for t in tasks]))
        small_ops = graph_ops(task_graph, x.dtype)
        if isinstance(conv, GCNConv):
            h = pooled_projection(conv.weight)
            return finish(xp.spmm_bias_act(small_ops.norm_adj, h, None, None))
        if isinstance(conv, SAGEConv):
            neighbor_mean = xp.spmm(small_ops.row_norm_adj,
                                    pooled_projection(conv.weight_neigh))
            return finish(pooled_projection(conv.weight_self) + neighbor_mean)
        raise TypeError(  # pragma: no cover - CONV_TYPES is closed
            f"no fused context fold for {type(conv).__name__}")

    def query_logits(self, context: Tensor, query: int, graph: Graph) -> Tensor:
        """ρ_θ(q*, H): membership logits of all nodes for query ``q*``."""
        return self.decoder(context, query, graph)

    def query_logits_batch(self, context: Tensor, queries: Sequence[int],
                           graph: Graph,
                           accum_dtype: Optional[np.dtype] = None) -> Tensor:
        """ρ_θ applied to a whole batch of queries against one context.

        Returns a ``(B, n)`` tensor whose row ``b`` equals
        ``query_logits(context, queries[b], graph)``; the decoder's
        context transform (MLP/GNN variants) runs once for the batch,
        which is what makes Algorithm 2 serve many queries at the cost of
        roughly one.  ``accum_dtype`` widens the final inner-product
        accumulator (see :meth:`Decoder.inner_products
        <repro.core.decoders.Decoder.inner_products>`).
        """
        indices = np.asarray(queries, dtype=resolve_index_dtype())
        return self.decoder.forward_batch(context, indices, graph,
                                          accum_dtype=accum_dtype)

    def query_logits_many(self, transformed: Tensor,
                          query_batches: Sequence[Sequence[int]],
                          accum_dtype: Optional[np.dtype] = None) -> List[Tensor]:
        """ρ_θ on several query batches against an already transformed
        context ``T = decoder.transform(H, graph)``.

        The serving engine's decode primitive: it caches ``T`` once per
        encoded context, so a read pays only each batch's gather + inner
        product, with the same BLAS shapes as a standalone
        :meth:`query_logits_batch` call — ``query_logits_many(T, [b0,
        b1])[i]`` is *bitwise-identical* to ``query_logits_batch(H, bi,
        graph)``.
        """
        return [self.decoder.inner_products(transformed, batch,
                                            accum_dtype=accum_dtype)
                for batch in query_batches]

    def forward(self, task: Task, query: int,
                support: Optional[Sequence[QueryExample]] = None) -> Tensor:
        """Full pass: context from the support set, logits for ``query``."""
        return self.query_logits(self.context(task, support), query, task.graph)

    # ------------------------------------------------------------------
    # Inference helpers (no autograd)
    # ------------------------------------------------------------------
    def predict_proba(self, task: Task, query: int,
                      support: Optional[Sequence[QueryExample]] = None,
                      context: Optional[Tensor] = None) -> np.ndarray:
        """Membership probability of every node w.r.t. ``query``.

        Passing a precomputed ``context`` amortises Algorithm 2's support
        encoding across the queries of one task.
        """
        self.eval()
        with no_grad():
            if context is None:
                context = self.context(task, support)
            logits = self.query_logits(context, query, task.graph)
            return logits.sigmoid().data

    def search_community(self, task: Task, query: int, threshold: float = 0.5,
                         support: Optional[Sequence[QueryExample]] = None,
                         context: Optional[Tensor] = None) -> np.ndarray:
        """Predicted community of ``query``: nodes with probability ≥ threshold.

        The query node itself is always included (``q ∈ C_q`` by
        definition).
        """
        probabilities = self.predict_proba(task, query, support, context)
        members = probabilities >= threshold
        members[int(query)] = True
        return np.flatnonzero(members)

    def to_dtype(self, dtype) -> "CGNP":
        """Cast parameters *and* the model's input-cast dtype in place."""
        super().to_dtype(dtype)
        self.dtype = resolve_dtype(dtype)
        return self

    def describe(self) -> str:
        """One-line architecture summary for logs and reports."""
        c = self.config
        return (f"CGNP(conv={c.conv}, agg={c.aggregator}, dec={c.decoder}, "
                f"layers={c.num_layers}, hidden={c.hidden_dim}, "
                f"dtype={self.dtype.name}, params={self.num_parameters()})")
