"""Block-diagonal collation of graphs for batched message passing.

A :class:`GraphBatch` packs ``k`` graphs — or ``k`` support-view replicas
of one graph — into a single graph whose adjacency is the block-diagonal
stack of the member adjacencies::

    graphs:   G0 (n0 nodes)   G1 (n1 nodes)   G2 (n2 nodes)

              ┌ A0          ┐      node ids:  [0 .. n0)          -> G0
    A_batch = │     A1      │                 [n0 .. n0+n1)      -> G1
              └         A2  ┘                 [n0+n1 .. n0+n1+n2)-> G2

Because no edges cross blocks, one sparse matmul (or one edge-list
scatter) over ``A_batch`` computes the message passing of every member
graph simultaneously, and the rows of the result are exactly the
concatenation of the per-graph results.  This is what lets the encoder
run one forward per *batch* instead of one per support pair, and the
meta-trainer take one optimiser step per task mini-batch.

The batch duck-types the :class:`~repro.graph.graph.Graph` surface the
GNN stack consumes (``num_nodes``, ``adjacency``, ``directed_edges`` and
the :class:`~repro.graph.graph.OpsCache` protocol), so
:func:`repro.gnn.conv.graph_ops` and every convolution work on it
unchanged.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..nn.backend import index_dtype_for, resolve_index_dtype
from .graph import Graph, OpsCache

__all__ = ["GraphBatch", "stack_csr"]


def stack_csr(blocks: Sequence[sp.csr_matrix],
              index_dtype=None) -> sp.csr_matrix:
    """Block-diagonal stack of CSR matrices by raw index arithmetic.

    Equivalent to ``scipy.sparse.block_diag(blocks, format="csr")`` for
    square CSR inputs but skips the COO round-trip and re-validation —
    this runs once per training step, so assembly must cost no more than
    a few array concatenations.

    ``index_dtype`` fixes the result's structure width (default: the
    ambient index policy, int32), widened to int64 only when the stacked
    totals genuinely overflow it.
    """
    if not blocks:
        raise ValueError("stack_csr needs at least one block")
    blocks = [b if sp.issparse(b) and b.format == "csr" else sp.csr_matrix(b)
              for b in blocks]
    sizes = np.asarray([b.shape[0] for b in blocks], dtype=np.int64)
    node_offsets = np.concatenate([[0], np.cumsum(sizes)])
    nnz_offsets = np.concatenate(
        [[0], np.cumsum([b.nnz for b in blocks])]).astype(np.int64)
    index_dtype = index_dtype_for(
        int(max(node_offsets[-1], nnz_offsets[-1])), index_dtype)
    data = np.concatenate([b.data for b in blocks])
    # Python-int offsets keep the concatenated arrays at the blocks'
    # own index width (a numpy int64 scalar would upcast int32 blocks).
    indices = np.concatenate(
        [b.indices.astype(index_dtype, copy=False) + int(offset)
         for b, offset in zip(blocks, node_offsets[:-1])])
    indptr = np.concatenate(
        [b.indptr[:-1].astype(index_dtype, copy=False) + int(offset)
         for b, offset in zip(blocks, nnz_offsets[:-1])]
        + [np.asarray([nnz_offsets[-1]], dtype=index_dtype)])
    total = int(node_offsets[-1])
    # The arrays are canonical by construction (sorted indices, no
    # duplicates), so build without scipy's per-instance validation pass.
    stacked = sp.csr_matrix((total, total))
    stacked.data, stacked.indices, stacked.indptr = data, indices, indptr
    return stacked


class GraphBatch(OpsCache):
    """``k`` graphs collated into one block-diagonal adjacency.

    Parameters
    ----------
    graphs:
        Member graphs, in batch order.  The same :class:`Graph` instance
        may appear several times (the support-view replica case); blocks
        are laid out in the given order regardless of identity.

    Attributes
    ----------
    sizes:
        ``(k,)`` node counts of the member graphs.
    offsets:
        ``(k + 1,)`` exclusive prefix sums of ``sizes``; block ``i``
        owns global node ids ``offsets[i] .. offsets[i + 1])``.
    node_graph_index:
        ``(total_nodes,)`` member index of every global node — the
        scatter map for per-graph reductions (segment sums, readouts).
    adjacency:
        Block-diagonal CSR adjacency over all ``total_nodes`` nodes.
    """

    def __init__(self, graphs: Sequence[Graph]):
        members = list(graphs)
        if not members:
            raise ValueError("GraphBatch needs at least one graph")
        self.graphs: List[Graph] = members
        # Staged at int64, narrowed to the policy width only when the
        # stacked total actually fits it (index_dtype_for widens).
        sizes = np.asarray([g.num_nodes for g in members], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        index_dtype = index_dtype_for(int(offsets[-1]))
        self.sizes = sizes.astype(index_dtype, copy=False)
        self.offsets = offsets.astype(index_dtype, copy=False)
        self.num_nodes = int(self.offsets[-1])
        self.num_graphs = len(members)
        self.node_graph_index = np.repeat(
            np.arange(self.num_graphs, dtype=index_dtype), self.sizes)
        self._adjacency: Optional[sp.csr_matrix] = None
        self.name = f"batch[{self.num_graphs}]"

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Block-diagonal CSR adjacency, assembled lazily.

        The GNN hot path never touches it (message-passing operators are
        composed from the members' cached operators), so collating a
        batch per training step costs index bookkeeping only.
        """
        if self._adjacency is None:
            self._adjacency = stack_csr([g.adjacency for g in self.graphs])
        return self._adjacency

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(cls, graphs: Sequence[Graph]) -> "GraphBatch":
        """Collate distinct task graphs (one block per graph)."""
        return cls(graphs)

    @classmethod
    def replicate(cls, graph: Graph, count: int) -> "GraphBatch":
        """``count`` blocks of the same graph — one per support view."""
        if count < 1:
            raise ValueError("replica count must be >= 1")
        return cls([graph] * count)

    # ------------------------------------------------------------------
    # Graph protocol (what the GNN stack consumes)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total undirected edge count across all blocks."""
        return int(sum(g.num_edges for g in self.graphs))

    def directed_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Both orientations of every member edge, in global node ids."""
        sources: List[np.ndarray] = []
        destinations: List[np.ndarray] = []
        for offset, graph in zip(self.offsets[:-1], self.graphs):
            src, dst = graph.directed_edges()
            # Python-int offsets keep the member arrays' index width.
            sources.append(src + int(offset))
            destinations.append(dst + int(offset))
        if not sources:
            empty = np.zeros(0, dtype=resolve_index_dtype())
            return empty, empty
        return np.concatenate(sources), np.concatenate(destinations)

    def degrees(self) -> np.ndarray:
        """Degree of every global node (concatenated member degrees)."""
        return np.diff(self.adjacency.indptr)

    # ------------------------------------------------------------------
    # Scatter / unscatter
    # ------------------------------------------------------------------
    def global_ids(self, graph_index: int,
                   local_nodes: Union[int, np.ndarray]) -> np.ndarray:
        """Map local node ids of member ``graph_index`` into batch ids."""
        if not 0 <= graph_index < self.num_graphs:
            raise IndexError(
                f"graph index {graph_index} out of range for a batch of "
                f"{self.num_graphs}")
        # Staged at int64 so an id beyond the int32 policy range is
        # reported as out of range rather than overflowing the cast.
        local = np.asarray(local_nodes, dtype=np.int64)
        if local.size and (local.min() < 0 or local.max() >= self.sizes[graph_index]):
            raise ValueError(
                f"local node ids out of range for member {graph_index} "
                f"({self.sizes[graph_index]} nodes)")
        return (local.astype(self.offsets.dtype, copy=False)
                + int(self.offsets[graph_index]))

    def block(self, graph_index: int) -> Tuple[int, int]:
        """Global ``(start, stop)`` node-id range of member ``graph_index``."""
        return int(self.offsets[graph_index]), int(self.offsets[graph_index + 1])

    def split_rows(self, stacked) -> List:
        """Unscatter a per-node array/tensor into per-graph row chunks.

        Works on anything sliceable along axis 0 with ``stacked[a:b]``
        (numpy arrays and autograd tensors alike); the slices are views
        into the batched result, in member order.
        """
        if len(stacked) != self.num_nodes:
            raise ValueError(
                f"expected {self.num_nodes} rows to unscatter, got {len(stacked)}")
        return [stacked[start:stop] for start, stop in
                (self.block(i) for i in range(self.num_graphs))]

    def scatter_rows(self, chunks: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-graph row chunks back into batch order
        (the inverse of :meth:`split_rows` for numpy arrays)."""
        if len(chunks) != self.num_graphs:
            raise ValueError(
                f"expected {self.num_graphs} chunks, got {len(chunks)}")
        for chunk, size in zip(chunks, self.sizes):
            if len(chunk) != size:
                raise ValueError("chunk row counts must match member sizes")
        return np.concatenate([np.asarray(c) for c in chunks], axis=0)

    def __len__(self) -> int:
        return self.num_graphs

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (f"GraphBatch(graphs={self.num_graphs}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")
