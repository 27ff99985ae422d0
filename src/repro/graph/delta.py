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
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..nn.backend import index_dtype_for

__all__ = ["GraphDelta", "DeltaReport", "apply_graph_delta", "dirty_frontier"]

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
    removed pairs so :func:`dirty_frontier` can expand over the *union*
    of the old and new adjacency (influence used to flow through a
    removed edge too).
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
def _splice_rows(matrix: sp.csr_matrix, num_rows: int, num_cols: int,
                 rebuild: Dict[int, Tuple[np.ndarray, np.ndarray]],
                 revalue: Dict[int, np.ndarray],
                 index_dtype: np.dtype) -> sp.csr_matrix:
    """A new CSR with some rows structurally replaced and some re-valued.

    ``rebuild`` maps row id → ``(cols, vals)`` (cols sorted ascending);
    ``revalue`` maps row id → new values over the row's *existing*
    structure.  Rows beyond the input's row count are treated as empty
    (the appended-node case).  Untouched row segments are block-copied;
    the result's structure arrays carry ``index_dtype`` (widened only if
    the new shape/nnz genuinely overflows it, mirroring
    ``_canonicalise_operator_indices``).
    """
    old_indptr = matrix.indptr.astype(np.int64, copy=False)
    old_rows = matrix.shape[0]

    counts = np.zeros(num_rows, dtype=np.int64)
    counts[:old_rows] = np.diff(old_indptr)
    for row, (cols, _) in rebuild.items():
        counts[row] = cols.size
    new_indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    nnz = int(new_indptr[-1])

    width = index_dtype_for(max(num_rows, num_cols, nnz), index_dtype)
    new_indices = np.empty(nnz, dtype=width)
    new_data = np.empty(nnz, dtype=matrix.data.dtype)

    # Copy the untouched spans between rebuilt rows in contiguous blocks.
    boundary_rows = sorted(rebuild)
    src_row = 0
    for row in boundary_rows + [num_rows]:
        span_hi = min(row, old_rows)
        if src_row < span_hi:
            src_lo, src_hi = int(old_indptr[src_row]), int(old_indptr[span_hi])
            dst_lo = int(new_indptr[src_row])
            new_indices[dst_lo:dst_lo + (src_hi - src_lo)] = \
                matrix.indices[src_lo:src_hi]
            new_data[dst_lo:dst_lo + (src_hi - src_lo)] = \
                matrix.data[src_lo:src_hi]
        if row < num_rows:
            cols, vals = rebuild[row]
            lo, hi = int(new_indptr[row]), int(new_indptr[row + 1])
            new_indices[lo:hi] = cols
            new_data[lo:hi] = vals
        src_row = row + 1

    for row, vals in revalue.items():
        lo, hi = int(new_indptr[row]), int(new_indptr[row + 1])
        new_data[lo:hi] = vals

    shell = sp.csr_matrix((num_rows, num_cols), dtype=matrix.data.dtype)
    shell.data = new_data
    shell.indices = new_indices
    shell.indptr = new_indptr.astype(width, copy=False)
    return shell


def _sorted_insert(values: np.ndarray, value: int) -> np.ndarray:
    """``values`` (sorted) with ``value`` spliced into sorted position —
    what ``np.insert`` computes, minus its per-call argument-normalising
    overhead (this runs once per repaired row)."""
    position = int(np.searchsorted(values, value))
    out = np.empty(values.size + 1, dtype=values.dtype)
    out[:position] = values[:position]
    out[position] = value
    out[position + 1:] = values[position:]
    return out


def _row_slice(matrix: sp.csr_matrix, row: int) -> np.ndarray:
    lo, hi = int(matrix.indptr[row]), int(matrix.indptr[row + 1])
    return matrix.indices[lo:hi]


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
                      structure_nodes: np.ndarray) -> Tuple[object, int]:
    """Rebuild one cached :class:`~repro.gnn.conv.GraphOps` family from a
    *patched* adjacency, rewriting only degree-affected rows.

    ``structure_nodes`` are the degree-changed rows (old ids plus any
    appended ids); value-only rows — rows holding an entry in a
    degree-changed *column* — are discovered from the new adjacency
    (symmetric, so the old partners of removed edges are the rebuilt
    rows themselves and need no lookup in the old structure).

    Returns ``(repaired_ops, rows_rewritten)``.
    """
    from ..gnn.conv import GraphOps  # lazy: the gnn package imports us

    adjacency = graph.adjacency
    n = graph.num_nodes
    dtype = ops.dtype
    index_dtype = ops.index_dtype

    structure = np.unique(structure_nodes.astype(np.int64))
    # Rows that keep their structure but hold an entry in a
    # degree-changed column (the neighbours of the endpoints).
    if structure.size:
        partner_blocks = [_row_slice(adjacency, int(r)) for r in structure]
        partners = (np.unique(np.concatenate(partner_blocks).astype(np.int64))
                    if partner_blocks else np.zeros(0, dtype=np.int64))
        value_only = np.setdiff1d(partners, structure, assume_unique=True)
    else:
        value_only = np.zeros(0, dtype=np.int64)

    inv_sqrt = _inv_sqrt_degrees(adjacency, dtype)
    inv = _inv_degrees(adjacency, dtype)

    # -- norm_adj: D̂^{-1/2}(A+I)D̂^{-1/2}; symmetric, so its transpose
    #    aliases it.  Structure rows gain/lose an entry (self-loop kept
    #    in sorted position); value rows rescale against the endpoint's
    #    new inverse-sqrt degree.
    norm_rebuild: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    sage_rebuild: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    sage_t_rebuild: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    if structure.size:
        # row_norm_adj rows come from the *actual* scipy product on a
        # row-submatrix: ``diags @ csr`` emits each row's columns in its
        # own (descending, linked-list) order, and that order is
        # row-local — so the sliced product reproduces the cold build's
        # per-row layout bitwise, whatever scipy's emission order is.
        sub = adjacency[structure].astype(dtype)
        sage_product = sp.diags(inv[structure]) @ sub
    for position, row in enumerate(structure.tolist()):
        neighbors = _row_slice(adjacency, row).astype(np.int64)
        looped = _sorted_insert(neighbors, row)
        norm_rebuild[row] = (looped, inv_sqrt[row] * inv_sqrt[looped])
        lo = int(sage_product.indptr[position])
        hi = int(sage_product.indptr[position + 1])
        sage_rebuild[row] = (sage_product.indices[lo:hi].astype(np.int64),
                             sage_product.data[lo:hi])
        # (D^{-1}A)ᵀ row j holds entries for i ∈ N(j) valued 1/d_i —
        # same structure as row j (undirected), column-indexed values
        # (the CSC→CSR transpose conversion sorts columns ascending).
        sage_t_rebuild[row] = (neighbors, inv[neighbors])

    norm_revalue: Dict[int, np.ndarray] = {}
    sage_t_revalue: Dict[int, np.ndarray] = {}
    for row in value_only.tolist():
        neighbors = _row_slice(adjacency, row).astype(np.int64)
        looped = _sorted_insert(neighbors, row)
        norm_revalue[row] = inv_sqrt[row] * inv_sqrt[looped]
        # D^{-1}A rows valued 1/d_row are untouched when d_row did not
        # change, but the transpose's values are the *column* degrees.
        sage_t_revalue[row] = inv[neighbors]

    norm_adj = _splice_rows(ops.norm_adj, n, n, norm_rebuild, norm_revalue,
                            index_dtype)
    row_norm_adj = _splice_rows(ops.row_norm_adj, n, n, sage_rebuild, {},
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
    if report.structural:
        changed = np.unique(np.concatenate(
            [added.ravel(), removed.ravel()]).astype(np.int64))
        rebuild: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        adjacency = graph.adjacency
        new_partner: Dict[int, List[int]] = {}
        for u, v in added.tolist():
            new_partner.setdefault(u, []).append(v)
            new_partner.setdefault(v, []).append(u)
        gone_partner: Dict[int, List[int]] = {}
        for u, v in removed.tolist():
            gone_partner.setdefault(u, []).append(v)
            gone_partner.setdefault(v, []).append(u)
        ones_dtype = adjacency.dtype
        for row in changed.tolist():
            old_cols = (_row_slice(adjacency, row).astype(np.int64)
                        if row < old_n else np.zeros(0, dtype=np.int64))
            cols = old_cols
            if row in gone_partner:
                cols = np.setdiff1d(cols, np.asarray(gone_partner[row],
                                                     dtype=np.int64),
                                    assume_unique=False)
            if row in new_partner:
                cols = np.union1d(cols, np.asarray(new_partner[row],
                                                   dtype=np.int64))
            rebuild[row] = (cols, np.ones(cols.size, dtype=ones_dtype))
        new_adjacency = _splice_rows(
            adjacency, new_n, new_n, rebuild, {},
            index_dtype_for(new_n, adjacency.indices.dtype))

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
        _repair_cache(graph, report, repair)
    return report


def _repair_cache(graph, report: DeltaReport, repair: bool) -> None:
    """Walk the graph's :class:`~repro.graph.graph.OpsCache` after a
    structural patch: repair what we understand, drop what we don't."""
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
def dirty_frontier(graph, report: DeltaReport, hops: int) -> np.ndarray:
    """Node ids whose k-layer encoder output a delta may have changed.

    Seeds are the degree-changed and attribute-updated nodes; expansion
    walks ``hops`` adjacency steps over the *union* of the old and new
    structure (removed edges still conduct influence — a node that was
    within k hops of a removed edge saw it).  Sorted int64 ids.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    seeds = np.union1d(report.structure_nodes, report.feature_nodes)
    if seeds.size == 0:
        return seeds.astype(np.int64)
    removed = report.removed_edges
    extra: Dict[int, List[int]] = {}
    for u, v in removed.tolist():
        extra.setdefault(u, []).append(v)
        extra.setdefault(v, []).append(u)
    frontier = seeds.astype(np.int64)
    for _ in range(hops):
        blocks = [frontier]
        for node in frontier.tolist():
            if node < graph.num_nodes:
                blocks.append(_row_slice(graph.adjacency, node)
                              .astype(np.int64))
            if node in extra:
                blocks.append(np.asarray(extra[node], dtype=np.int64))
        grown = np.unique(np.concatenate(blocks))
        if grown.size == frontier.size:
            break
        frontier = grown
    return frontier
