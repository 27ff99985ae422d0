"""Streaming graph mutations: batched deltas with in-place operator repair.

Real community-search targets (social, collaboration, citation graphs)
change continuously, but a :class:`~repro.graph.graph.Graph` is immutable
after construction save for :meth:`~repro.graph.graph.Graph.set_attributes`
— and that contract clears the *entire* operator cache, so every edge
insert used to cost a full rebuild of every normalised adjacency plus a
cold re-encode of every cached task context.

This module adds the second sanctioned mutation entry:

* :class:`GraphDelta` describes a batch of mutations — edge inserts,
  edge removals, appended nodes and attribute-row updates — with *set*
  semantics (inserting a present edge or removing an absent one is a
  no-op; the :class:`DeltaReport` counts what actually changed);
* :func:`apply_graph_delta` (reached as ``Graph.apply_delta``) patches
  the canonical edge list, the CSR adjacency and every cached
  ``gnn.message_passing.<elem>.<index>`` operator family **in place**:
  only rows whose degree changed are structurally rewritten, and only
  rows holding an entry in a degree-changed column are re-valued
  (degree-local renormalisation).  Everything else in the cache that
  the repairer does not understand (e.g. replica-batch collations) is
  dropped, never silently kept.

**The parity invariant.**  A repaired operator is *bitwise identical*
to the operator a fresh ``Graph`` built from the final edge list would
produce: edge canonicalisation, degree computation, ``** -0.5`` /
``1/d`` normalisation and the value products are evaluated with the
exact expressions and dtypes the cold-build path uses, so repair can
never drift from rebuild.  ``tests/test_graph_delta.py`` pins this
differentially with hypothesis-driven random delta sequences across
backends, index widths and shard counts.

Sharded graphs repair at shard granularity: only the ``…shard<i>``
cache entries (and cached halos) whose row range *or halo* intersects a
degree-changed node are dropped for lazy rebuild; untouched shards keep
serving their compacted slices — see
:meth:`repro.graph.shard.ShardedGraph.apply_delta`.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..nn.backend import index_dtype_for
from .algorithms import TRIANGLES_KEY, patch_triangle_counts

__all__ = ["GraphDelta", "DeltaReport", "apply_graph_delta", "dirty_frontier",
           "dirty_frontier_mask"]

#: The cache-key family :func:`repro.gnn.conv.graph_ops` memoises under
#: (kept as a literal here — importing ``repro.gnn.conv`` from the graph
#: package would be circular; ``tests/test_graph_delta.py`` asserts the
#: two spellings agree).
GRAPH_OPS_PREFIX = "gnn.message_passing"

#: Dense operator keys: ``gnn.message_passing.<elem>.<index>`` exactly.
_DENSE_KEY = re.compile(
    rf"^{re.escape(GRAPH_OPS_PREFIX)}\.(?P<elem>[^.]+)\.(?P<index>[^.]+)$")

#: Shard-suffixed operator keys: the dense key plus ``.shard<i>``.
_SHARD_KEY = re.compile(
    rf"^{re.escape(GRAPH_OPS_PREFIX)}\.[^.]+\.[^.]+\.shard(?P<shard>\d+)$")


def _as_edge_array(edges, what: str) -> np.ndarray:
    """``(k, 2)`` int64 edge array (empty allowed), validated for shape."""
    if edges is None:
        return np.zeros((0, 2), dtype=np.int64)
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"{what} must have shape (k, 2), got {array.shape}")
    return array


@dataclasses.dataclass
class GraphDelta:
    """One batched mutation of a graph.

    Attributes
    ----------
    add_edges / remove_edges:
        ``(k, 2)`` undirected edge arrays.  Orientation, self-loops and
        duplicates are canonicalised away exactly like the ``Graph``
        constructor; *set* semantics apply (adding a present edge or
        removing an absent one is a counted no-op).  Removals are
        resolved before additions, so an edge named in both ends up
        present.
    add_nodes:
        Number of nodes appended at the end of the id range (ids
        ``n .. n + add_nodes``).  ``node_attributes`` must supply their
        feature rows when the graph carries attributes.
    node_attributes:
        ``(add_nodes, d)`` attribute rows of the appended nodes.
    update_attributes:
        ``(nodes, values)`` — replace the attribute rows of ``nodes``
        with the ``(len(nodes), d)`` matrix ``values``.
    """

    add_edges: object = None
    remove_edges: object = None
    add_nodes: int = 0
    node_attributes: Optional[np.ndarray] = None
    update_attributes: Optional[Tuple[object, object]] = None

    def __post_init__(self) -> None:
        self.add_edges = _as_edge_array(self.add_edges, "add_edges")
        self.remove_edges = _as_edge_array(self.remove_edges, "remove_edges")
        self.add_nodes = int(self.add_nodes)
        if self.add_nodes < 0:
            raise ValueError("add_nodes must be >= 0")
        if self.node_attributes is not None and self.add_nodes == 0:
            raise ValueError("node_attributes given without add_nodes")
        if self.update_attributes is not None:
            nodes, values = self.update_attributes
            nodes = np.asarray(nodes, dtype=np.int64).ravel()
            values = np.asarray(values)
            if values.ndim != 2 or values.shape[0] != nodes.shape[0]:
                raise ValueError(
                    f"update_attributes values have shape {values.shape} "
                    f"for {nodes.shape[0]} nodes")
            self.update_attributes = (nodes, values)

    @property
    def is_empty(self) -> bool:
        return (self.add_edges.shape[0] == 0
                and self.remove_edges.shape[0] == 0
                and self.add_nodes == 0
                and self.update_attributes is None)


@dataclasses.dataclass
class DeltaReport:
    """What one :meth:`Graph.apply_delta` actually changed.

    ``structure_nodes`` are the degree-changed node ids (endpoints of
    effective edge changes plus appended nodes) — the seeds of the
    k-hop dirty frontier the engine expands; ``feature_nodes`` are the
    attribute-updated rows.  ``removed_edges`` keeps the effectively
    removed pairs (the cached triangle counts are patched from them).
    """

    nodes_added: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    attributes_updated: int = 0
    structure_nodes: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    feature_nodes: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    removed_edges: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    rows_repaired: int = 0
    ops_repaired: int = 0
    ops_dropped: int = 0

    @property
    def structural(self) -> bool:
        """Did the delta change the graph's structure (edges or nodes)?"""
        return bool(self.edges_added or self.edges_removed
                    or self.nodes_added)

    @property
    def dirty(self) -> bool:
        """Did the delta change anything a cached context depends on?"""
        return self.structural or self.attributes_updated > 0


# ----------------------------------------------------------------------
# Edge-list patching
# ----------------------------------------------------------------------
def _edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Lexicographic sort key of canonical (u < v) edges: ``u * n + v``.

    The canonical edge array is sorted lexicographically (``np.unique``
    order), which is exactly ascending order of these scalar keys — so
    membership and insertion positions resolve with one searchsorted.
    """
    return edges[:, 0].astype(np.int64) * np.int64(num_nodes) + edges[:, 1]


def _directed_keys(edges: np.ndarray, num_nodes: np.int64) -> np.ndarray:
    """``row * n + col`` keys of both orientations of ``edges`` — the
    adjacency entries the edges occupy."""
    return np.concatenate([edges[:, 0] * num_nodes + edges[:, 1],
                           edges[:, 1] * num_nodes + edges[:, 0]])


def _patch_edge_list(edges: np.ndarray, add: np.ndarray, remove: np.ndarray,
                     num_nodes: int) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Apply canonical additions/removals to a sorted canonical edge list.

    Returns ``(new_edges, effective_added, effective_removed)`` — all
    int64, ``new_edges`` in ``np.unique`` order (bitwise what a fresh
    ``Graph`` would canonicalise the final edge set to).  Removals
    resolve before additions.
    """
    edges = edges.astype(np.int64, copy=False)
    keys = _edge_keys(edges, num_nodes)

    if remove.shape[0]:
        remove_keys = _edge_keys(remove, num_nodes)
        positions = np.searchsorted(keys, remove_keys)
        positions = np.clip(positions, 0, keys.size - 1) if keys.size else positions
        present = (keys.size > 0) & (keys[positions] == remove_keys) \
            if keys.size else np.zeros(remove_keys.size, dtype=bool)
        effective_removed = remove[present]
        if effective_removed.shape[0]:
            keep = np.ones(keys.size, dtype=bool)
            keep[positions[present]] = False
            edges = edges[keep]
            keys = keys[keep]
    else:
        effective_removed = remove

    if add.shape[0]:
        add_keys = _edge_keys(add, num_nodes)
        if keys.size:
            positions = np.searchsorted(keys, add_keys)
            in_range = positions < keys.size
            already = np.zeros(add_keys.size, dtype=bool)
            already[in_range] = keys[positions[in_range]] == add_keys[in_range]
            fresh = add[~already]
        else:
            fresh = add
        if fresh.shape[0]:
            # Manual merge scatter: ``fresh`` is canonical (key-sorted),
            # so row i's final position is its insertion point plus its
            # rank — one boolean mask and two block writes, where
            # ``np.insert``'s generic path costs several extra passes at
            # millions of edges.
            insert_at = np.searchsorted(keys, _edge_keys(fresh, num_nodes))
            target = insert_at + np.arange(fresh.shape[0], dtype=np.int64)
            merged = np.empty((edges.shape[0] + fresh.shape[0], 2),
                              dtype=np.int64)
            keep = np.ones(merged.shape[0], dtype=bool)
            keep[target] = False
            merged[target] = fresh
            merged[keep] = edges
            edges = merged
        effective_added = fresh
    else:
        effective_added = add

    return edges, effective_added, effective_removed


# ----------------------------------------------------------------------
# CSR row splicing
# ----------------------------------------------------------------------
def _row_entries(indptr: np.ndarray, rows: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, positions)`` of every stored entry of ``rows`` (int64,
    all inside the matrix), in row order: one gather over ``indptr``
    with ``np.repeat`` offsets, no per-row slicing."""
    starts = indptr[rows].astype(np.int64)
    lengths = indptr[rows + 1].astype(np.int64) - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return (np.repeat(rows, lengths),
            offsets + np.arange(offsets.size, dtype=np.int64))


def _splice_rows(matrix: sp.csr_matrix, num_rows: int, num_cols: int,
                 rebuild: Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray],
                 revalue: Optional[Tuple[np.ndarray, np.ndarray]],
                 index_dtype: np.dtype) -> sp.csr_matrix:
    """A new CSR with some rows structurally replaced and some re-valued.

    ``rebuild`` is ``(rows, counts, cols, vals)``: sorted unique row ids,
    each row's new entry count, and the rows' entries concatenated in
    row order (cols ascending within a row).  ``revalue`` is ``(rows,
    vals)``: rows outside ``rebuild`` that keep their structure, with
    new values for their existing entries concatenated in row order.
    Rows beyond the input's row count are treated as empty (the
    appended-node case).  Each run of untouched rows is one block copy;
    the rebuilt and re-valued entries land by one scatter each.  The
    result's structure arrays carry ``index_dtype`` (widened only if the
    new shape/nnz genuinely overflows it, mirroring
    ``_canonicalise_operator_indices``).
    """
    rows, counts, cols, vals = rebuild
    old_indptr = matrix.indptr.astype(np.int64, copy=False)
    old_rows = matrix.shape[0]

    lengths = np.zeros(num_rows, dtype=np.int64)
    lengths[:old_rows] = np.diff(old_indptr)
    lengths[rows] = counts
    new_indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    nnz = int(new_indptr[-1])

    width = index_dtype_for(max(num_rows, num_cols, nnz), index_dtype)
    new_indices = np.empty(nnz, dtype=width)
    new_data = np.empty(nnz, dtype=matrix.data.dtype)

    # Copy the untouched runs between rebuilt rows in contiguous blocks.
    run_lo = np.concatenate([[0], rows + 1])
    run_hi = np.minimum(np.append(rows, num_rows), old_rows)
    live = run_lo < run_hi
    run_lo, run_hi = run_lo[live], run_hi[live]
    for src_lo, src_hi, dst_lo in zip(old_indptr[run_lo].tolist(),
                                      old_indptr[run_hi].tolist(),
                                      new_indptr[run_lo].tolist()):
        dst_hi = dst_lo + (src_hi - src_lo)
        new_indices[dst_lo:dst_hi] = matrix.indices[src_lo:src_hi]
        new_data[dst_lo:dst_hi] = matrix.data[src_lo:src_hi]

    if rows.size:
        _, positions = _row_entries(new_indptr, rows)
        new_indices[positions] = cols
        new_data[positions] = vals
    if revalue is not None and revalue[0].size:
        _, positions = _row_entries(new_indptr, revalue[0])
        new_data[positions] = revalue[1]

    shell = sp.csr_matrix((num_rows, num_cols), dtype=matrix.data.dtype)
    shell.data = new_data
    shell.indices = new_indices
    shell.indptr = new_indptr.astype(width, copy=False)
    return shell


# ----------------------------------------------------------------------
# Operator repair (degree-local renormalisation)
# ----------------------------------------------------------------------
def _inv_sqrt_degrees(adjacency: sp.csr_matrix, dtype: np.dtype) -> np.ndarray:
    """``d̂ ** -0.5`` over ``A + I`` degrees, with the cold-build
    expressions (``sum`` of float ones, then ``** -0.5``) so the values
    are bitwise what :func:`~repro.nn.sparse.normalized_adjacency`
    computes."""
    degrees = np.diff(adjacency.indptr).astype(dtype) + dtype.type(1.0)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
    return inv_sqrt


def _inv_degrees(adjacency: sp.csr_matrix, dtype: np.dtype) -> np.ndarray:
    """``1 / d`` (no self-loops), zeros for isolated nodes — bitwise the
    :func:`~repro.nn.sparse.row_normalized_adjacency` scaling."""
    degrees = np.diff(adjacency.indptr).astype(dtype)
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return inv


def _repair_graph_ops(graph, ops,
                      structure: np.ndarray) -> Tuple[object, int]:
    """Rebuild one cached :class:`~repro.gnn.conv.GraphOps` family from a
    *patched* adjacency, rewriting only degree-affected rows.

    ``structure`` holds the degree-changed rows (sorted unique int64: old
    ids plus any appended ids); value-only rows — rows holding an entry
    in a degree-changed *column* — are discovered from the new adjacency
    (symmetric, so the old partners of removed edges are the rebuilt
    rows themselves and need no lookup in the old structure).  Every
    row set is gathered array-at-a-time, and every value is one
    elementwise product per operator over the cold build's operands.

    Returns ``(repaired_ops, rows_rewritten)``.
    """
    from ..gnn.conv import GraphOps  # lazy: the gnn package imports us

    adjacency = graph.adjacency
    n = graph.num_nodes
    n64 = np.int64(n)
    dtype = ops.dtype
    index_dtype = ops.index_dtype

    owner, positions = _row_entries(adjacency.indptr, structure)
    neighbors = adjacency.indices[positions].astype(np.int64)
    # Rows that keep their structure but hold an entry in a
    # degree-changed column (the neighbours of the endpoints).
    value_only = np.setdiff1d(np.unique(neighbors), structure,
                              assume_unique=True)
    _, value_positions = _row_entries(adjacency.indptr, value_only)
    value_neighbors = adjacency.indices[value_positions].astype(np.int64)
    counts = (adjacency.indptr[structure + 1].astype(np.int64)
              - adjacency.indptr[structure])

    inv_sqrt = _inv_sqrt_degrees(adjacency, dtype)
    inv = _inv_degrees(adjacency, dtype)

    # -- norm_adj: D̂^{-1/2}(A+I)D̂^{-1/2}; symmetric, so its transpose
    #    aliases it.  Structure rows gain/lose an entry, the self-loop
    #    landing in sorted position by one sort of ``row * n + col``
    #    keys; value rows rescale against the endpoint's new
    #    inverse-sqrt degree over their unchanged (self-looped) entries.
    keys = np.concatenate([owner * n64 + neighbors,
                           structure * n64 + structure])
    keys.sort()
    looped_owner, looped = np.divmod(keys, n64)
    norm_rebuild = (structure, counts + 1, looped,
                    inv_sqrt[looped_owner] * inv_sqrt[looped])
    norm_owner, norm_positions = _row_entries(ops.norm_adj.indptr, value_only)
    norm_cols = ops.norm_adj.indices[norm_positions]
    norm_revalue = (value_only, inv_sqrt[norm_owner] * inv_sqrt[norm_cols])

    # -- row_norm_adj: rows come from the *actual* scipy product on a
    #    row-submatrix: ``diags @ csr`` emits each row's columns in its
    #    own (linked-list) order, and that order is row-local — so the
    #    sliced product reproduces the cold build's per-row layout
    #    bitwise, whatever scipy's emission order is.
    sub_indptr = np.zeros(structure.size + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    sub = sp.csr_matrix((np.ones(neighbors.size, dtype=dtype), neighbors,
                         sub_indptr), shape=(structure.size, n))
    # (``sp.diags(v) @ csr`` multiplies through ``diags(v).tocsr()``;
    # the diagonal factor is built as that CSR directly.)
    rank = np.arange(structure.size + 1)
    scale = sp.csr_matrix((inv[structure], rank[:-1], rank),
                          shape=(structure.size, structure.size))
    sage_product = scale @ sub
    sage_rebuild = (structure, np.diff(sage_product.indptr).astype(np.int64),
                    sage_product.indices, sage_product.data)

    # -- row_norm_adj_t: (D^{-1}A)ᵀ row j holds entries for i ∈ N(j)
    #    valued 1/d_i — same structure as row j (undirected),
    #    column-indexed values (the CSC→CSR transpose conversion sorts
    #    columns ascending).  D^{-1}A rows of value-only rows are
    #    untouched (d_row did not change), but the transpose's values are
    #    the *column* degrees.
    sage_t_rebuild = (structure, counts, neighbors, inv[neighbors])
    sage_t_revalue = (value_only, inv[value_neighbors])

    norm_adj = _splice_rows(ops.norm_adj, n, n, norm_rebuild, norm_revalue,
                            index_dtype)
    row_norm_adj = _splice_rows(ops.row_norm_adj, n, n, sage_rebuild, None,
                                index_dtype)
    row_norm_adj_t = _splice_rows(ops.row_norm_adj_t, n, n, sage_t_rebuild,
                                  sage_t_revalue, index_dtype)

    # Edge lists: concat(both orientations) + self-loops.  Canonical
    # edge order shifts under insertion, so these rebuild from the
    # patched edge list — O(m) copies, no normalisation work.
    src, dst = graph.directed_edges()
    loops = np.arange(n, dtype=index_dtype)
    repaired = GraphOps(
        norm_adj=norm_adj,
        norm_adj_t=norm_adj,
        row_norm_adj=row_norm_adj,
        row_norm_adj_t=row_norm_adj_t,
        edge_src=np.concatenate([src, loops]).astype(index_dtype, copy=False),
        edge_dst=np.concatenate([dst, loops]).astype(index_dtype, copy=False),
        num_nodes=n,
        dtype=dtype,
        index_dtype=index_dtype,
    )
    return repaired, int(structure.size + value_only.size)


# ----------------------------------------------------------------------
# apply_delta
# ----------------------------------------------------------------------
def apply_graph_delta(graph, delta: GraphDelta, repair: bool = True
                      ) -> DeltaReport:
    """Patch ``graph`` (a :class:`~repro.graph.graph.Graph`) in place.

    The implementation behind :meth:`Graph.apply_delta
    <repro.graph.graph.Graph.apply_delta>`; see there for the contract.
    ``repair=False`` is the measured *baseline*: the structure is
    patched identically but every cached operator is dropped
    (family-wide invalidation) instead of repaired — what any mutation
    cost before this module existed.
    """
    if not isinstance(delta, GraphDelta):
        raise TypeError(
            f"apply_delta expects a GraphDelta, got {type(delta).__name__}")
    report = DeltaReport()
    if delta.is_empty:
        return report

    old_n = graph.num_nodes
    new_n = old_n + delta.add_nodes

    # ---- nodes ---------------------------------------------------------
    if delta.add_nodes:
        if graph.parent_nodes is not None:
            raise ValueError(
                "cannot add nodes to an induced subgraph view (its "
                "parent_nodes mapping would not cover them)")
        if graph.attributes is not None and delta.node_attributes is None:
            raise ValueError(
                "graph carries attributes; node_attributes must supply "
                f"rows for the {delta.add_nodes} appended nodes")
        report.nodes_added = delta.add_nodes

    # ---- edges ---------------------------------------------------------
    add = graph._canonicalize_edges(delta.add_edges, new_n)
    remove = graph._canonicalize_edges(delta.remove_edges, new_n)
    new_edges, added, removed = _patch_edge_list(
        graph._edges, add, remove, new_n)
    report.edges_added = int(added.shape[0])
    report.edges_removed = int(removed.shape[0])
    report.removed_edges = removed.astype(np.int64, copy=False)

    touched = [added.ravel(), removed.ravel()]
    if delta.add_nodes:
        touched.append(np.arange(old_n, new_n, dtype=np.int64))
    report.structure_nodes = np.unique(
        np.concatenate(touched).astype(np.int64))

    # ---- attributes ----------------------------------------------------
    new_attributes = graph.attributes
    if delta.add_nodes and graph.attributes is not None:
        rows = np.asarray(delta.node_attributes,
                          dtype=graph.attributes.dtype)
        if rows.shape != (delta.add_nodes, graph.attributes.shape[1]):
            raise ValueError(
                f"node_attributes must have shape "
                f"({delta.add_nodes}, {graph.attributes.shape[1]}), "
                f"got {rows.shape}")
        new_attributes = np.concatenate([graph.attributes, rows], axis=0)
    if delta.update_attributes is not None:
        if graph.attributes is None:
            raise ValueError(
                "update_attributes on a graph without attributes")
        nodes, values = delta.update_attributes
        if nodes.size and (nodes.min() < 0 or nodes.max() >= new_n):
            raise ValueError("update_attributes node id out of range")
        if values.shape[1] != graph.attributes.shape[1]:
            raise ValueError(
                f"update_attributes rows have width {values.shape[1]}, "
                f"attributes have width {graph.attributes.shape[1]}")
        report.feature_nodes = np.unique(nodes)
        report.attributes_updated = int(report.feature_nodes.size)

    if not report.dirty:
        return report    # everything was a no-op

    # ---- commit the structural patch ------------------------------------
    old_adjacency = graph.adjacency
    if report.structural:
        # Each changed row's new columns, array-at-a-time: gather the old
        # rows as ``row * n + col`` keys (sorted: rows ascend, columns
        # ascend within a row), drop the removed pairs (all present),
        # merge in the added ones (all absent) and sort once.
        changed = report.structure_nodes
        n64 = np.int64(new_n)
        owner, positions = _row_entries(old_adjacency.indptr,
                                        changed[changed < old_n])
        keys = owner * n64 + old_adjacency.indices[positions]
        if removed.shape[0]:
            keys = np.delete(keys, np.searchsorted(
                keys, _directed_keys(removed, n64)))
        keys = np.sort(np.concatenate([keys, _directed_keys(added, n64)]))
        rows, cols = np.divmod(keys, n64)
        counts = np.diff(np.append(np.searchsorted(rows, changed), rows.size))
        new_adjacency = _splice_rows(
            old_adjacency, new_n, new_n,
            (changed, counts, cols, np.ones(cols.size,
                                            dtype=old_adjacency.dtype)),
            None, index_dtype_for(new_n, old_adjacency.indices.dtype))

        graph.num_nodes = new_n
        graph._edges = new_edges.astype(index_dtype_for(new_n), copy=False)
        graph.adjacency = new_adjacency

    # ---- commit the feature patch ---------------------------------------
    if new_attributes is not graph.attributes:
        graph.attributes = new_attributes
    if delta.update_attributes is not None:
        nodes, values = delta.update_attributes
        graph.attributes[nodes] = values.astype(graph.attributes.dtype,
                                                copy=False)
    if new_attributes is not None and (delta.add_nodes
                                       or delta.update_attributes is not None):
        graph.attribute_version = getattr(graph, "attribute_version", 0) + 1

    graph.data_version = getattr(graph, "data_version", 0) + 1

    # ---- repair (or drop) the cached operators ---------------------------
    if report.structural:
        _repair_cache(graph, report, repair, old_adjacency, added)
    return report


def _repair_cache(graph, report: DeltaReport, repair: bool,
                  old_adjacency: sp.csr_matrix, added: np.ndarray) -> None:
    """Walk the graph's :class:`~repro.graph.graph.OpsCache` after a
    structural patch: repair what we understand, drop what we don't.

    ``old_adjacency`` is the pre-delta structure and ``added`` the
    effective additions — the triangle-count patch replays the delta
    edge by edge from the old neighbourhoods."""
    cache = graph.__dict__.get("_ops_cache")
    if not cache:
        return
    if not repair:
        report.ops_dropped = len(cache)
        cache.clear()
        return
    sharded_repair = getattr(graph, "_repair_shard_state", None)
    for key in list(cache):
        if _DENSE_KEY.match(key):
            repaired, rows = _repair_graph_ops(
                graph, cache[key], report.structure_nodes)
            cache[key] = repaired
            report.rows_repaired += rows
            report.ops_repaired += 1
        elif key == TRIANGLES_KEY:
            cache[key] = patch_triangle_counts(
                cache[key], old_adjacency, report.removed_edges, added,
                graph.num_nodes)
        elif _SHARD_KEY.match(key) and sharded_repair is not None:
            continue    # handled at shard granularity below
        else:
            # Composite entries (replica-batch collations, foreign keys):
            # not row-repairable — drop rather than risk stale structure.
            cache.pop(key, None)
            report.ops_dropped += 1
    if sharded_repair is not None:
        sharded_repair(report)


# ----------------------------------------------------------------------
# Dirty frontier
# ----------------------------------------------------------------------
def dirty_frontier_mask(graph, report: DeltaReport, hops: int) -> np.ndarray:
    """:func:`dirty_frontier` as a boolean mask over the graph's nodes.

    A level-synchronous BFS: each hop gathers the rows of the nodes the
    previous hop reached (one gather over ``indptr``) and marks the ones
    not yet reached.  The walk runs over the patched adjacency alone, yet
    covers the union of the old and new structure: both endpoints of a
    removed edge are seeds, so a removed edge can only lead from one
    reached node to another.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    reached = np.zeros(graph.num_nodes, dtype=bool)
    layer = np.union1d(report.structure_nodes, report.feature_nodes)
    reached[layer] = True
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    for _ in range(hops):
        if not layer.size:
            break
        _, positions = _row_entries(indptr, layer)
        grown = indices[positions]
        grown = grown[~reached[grown]]
        reached[grown] = True
        layer = np.unique(grown)
    return reached


def dirty_frontier(graph, report: DeltaReport, hops: int) -> np.ndarray:
    """Node ids whose k-layer encoder output a delta may have changed.

    Seeds are the degree-changed and attribute-updated nodes; expansion
    walks ``hops`` adjacency steps over the *union* of the old and new
    structure (removed edges still conduct influence — a node that was
    within k hops of a removed edge saw it).  Sorted int64 ids.
    """
    return np.flatnonzero(dirty_frontier_mask(graph, report, hops)).astype(
        np.int64, copy=False)
