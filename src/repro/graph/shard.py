"""Fixed-RAM-budget graphs: contiguous CSR row shards + memmap features.

A :class:`ShardedGraph` is a :class:`~repro.graph.graph.Graph` whose node
range ``0..n`` is partitioned into ``num_shards`` contiguous row shards.
Everything a plain graph supports keeps working (the full CSR adjacency
is still built — its structure is cheap relative to features), but three
things change for the serving path:

* **Feature storage** lives in an ``np.memmap`` under ``memmap_dir``
  (with a plain in-RAM array as the fallback when no directory is
  given), so the ``n x d`` attribute matrix never has to occupy
  anonymous process memory — the OS pages it in and out on demand.
* **Halo index sets**: :meth:`halo` returns, per shard, the sorted node
  ids covering the shard's rows plus their k-hop in-neighbourhood — the
  exact gather set a k-layer message-passing step over the shard's rows
  reads from.
* **A buffer arena**: :meth:`buffer` hands out named full-length work
  buffers (layer activations, stacked support views) backed by the same
  memmap directory, so the streaming encoder's intermediates follow the
  same residency policy as the features.

Sharding never changes numerics: shards cut the *row* range, and every
row's CSR accumulation order is untouched, so the shard-streaming
forward in :mod:`repro.gnn` is bitwise-identical to the dense reference
(see ``docs/sharding.md``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from ..nn.backend import resolve_dtype
from .graph import Graph

__all__ = ["ShardedGraph", "graph_memory_profile"]

#: Rows per chunk when filling feature storage from a generator callable.
_FILL_CHUNK_ROWS = 65536

#: ``attributes`` may also be a generator ``f(lo, hi) -> (hi - lo, d)``
#: block, so multi-gigabyte feature matrices are written straight into
#: the memmap without ever existing as one dense array.
AttributeSource = Union[np.ndarray, Callable[[int, int], np.ndarray]]


class ShardedGraph(Graph):
    """A graph partitioned into contiguous CSR row shards.

    Parameters
    ----------
    num_nodes, edges, communities, name, parent_nodes:
        As for :class:`~repro.graph.graph.Graph`.
    attributes:
        ``(n, d)`` array, ``None``, or a callable ``f(lo, hi)`` returning
        the attribute block of rows ``lo..hi`` (requires
        ``attribute_dim``) — the chunked-generation path for graphs whose
        features would not fit in RAM.
    num_shards:
        Row-shard count; clamped to ``[1, num_nodes]``.  Shard ``i`` owns
        rows ``floor(i*n/S) .. floor((i+1)*n/S)``.
    memmap_dir:
        Directory for feature/buffer files.  ``None`` keeps everything
        in RAM (the fallback: identical semantics, no residency bound).
    attribute_dim:
        Attribute width; required when ``attributes`` is a callable.
    """

    def __init__(self, num_nodes: int, edges,
                 attributes: Optional[AttributeSource] = None,
                 communities: Optional[Iterable[Iterable[int]]] = None,
                 name: str = "graph",
                 parent_nodes: Optional[np.ndarray] = None,
                 *, num_shards: int = 1,
                 memmap_dir: Optional[str] = None,
                 attribute_dim: Optional[int] = None):
        super().__init__(num_nodes, edges, attributes=None,
                         communities=communities, name=name,
                         parent_nodes=parent_nodes)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = min(int(num_shards), self.num_nodes)
        self.memmap_dir = None if memmap_dir is None else os.fspath(memmap_dir)
        if self.memmap_dir is not None:
            os.makedirs(self.memmap_dir, exist_ok=True)
        bounds = np.array(
            [(i * self.num_nodes) // self.num_shards
             for i in range(self.num_shards + 1)], dtype=np.int64)
        #: ``(num_shards + 1,)`` exclusive prefix bounds; shard ``i`` owns
        #: rows ``shard_bounds[i] .. shard_bounds[i + 1]``.
        self.shard_bounds = bounds
        self._halos: Dict[Tuple[int, int], np.ndarray] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._closed = False
        self.attributes = self._init_feature_storage(attributes, attribute_dim)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph, num_shards: int,
                   memmap_dir: Optional[str] = None) -> "ShardedGraph":
        """Reshape an existing graph into a :class:`ShardedGraph`.

        Edges, communities, name and the parent-node mapping carry over;
        attributes are copied into the shard feature storage (the memmap
        when ``memmap_dir`` is given).
        """
        return cls(graph.num_nodes, graph.edges,
                   attributes=graph.attributes,
                   communities=[sorted(c) for c in graph.communities],
                   name=graph.name, parent_nodes=graph.parent_nodes,
                   num_shards=num_shards, memmap_dir=memmap_dir)

    def _init_feature_storage(self, attributes: Optional[AttributeSource],
                              attribute_dim: Optional[int],
                              ) -> Optional[np.ndarray]:
        """Materialise attributes into the shard storage policy."""
        if attributes is None:
            return None
        dtype = resolve_dtype()
        if callable(attributes):
            if attribute_dim is None:
                raise ValueError(
                    "attribute_dim is required when attributes is a "
                    "generator callable")
            storage = self._allocate("attributes", (self.num_nodes,
                                                    int(attribute_dim)), dtype)
            for lo in range(0, self.num_nodes, _FILL_CHUNK_ROWS):
                hi = min(lo + _FILL_CHUNK_ROWS, self.num_nodes)
                block = np.asarray(attributes(lo, hi))
                if block.shape != (hi - lo, int(attribute_dim)):
                    raise ValueError(
                        f"attribute generator returned shape {block.shape} "
                        f"for rows {lo}:{hi} (expected "
                        f"({hi - lo}, {attribute_dim}))")
                storage[lo:hi] = block
            return storage
        source = np.asarray(attributes)
        if source.ndim != 2 or source.shape[0] != self.num_nodes:
            raise ValueError(
                f"attribute matrix has shape {source.shape} for "
                f"{self.num_nodes} nodes")
        storage = self._allocate("attributes", source.shape, dtype)
        for lo in range(0, self.num_nodes, _FILL_CHUNK_ROWS):
            hi = min(lo + _FILL_CHUNK_ROWS, self.num_nodes)
            storage[lo:hi] = source[lo:hi]
        return storage

    def _allocate(self, tag: str, shape: Tuple[int, ...],
                  dtype: np.dtype) -> np.ndarray:
        """A named storage array: memmap-backed when a directory is set."""
        if self._closed:
            raise RuntimeError(f"ShardedGraph {self.name!r} is closed")
        dtype = np.dtype(dtype)
        if self.memmap_dir is None:
            return np.zeros(shape, dtype=dtype)
        filename = f"{tag}.{'x'.join(str(int(s)) for s in shape)}.{dtype.name}.dat"
        path = os.path.join(self.memmap_dir, filename)
        return np.memmap(path, dtype=dtype, mode="w+", shape=shape)

    # ------------------------------------------------------------------
    # Shard geometry
    # ------------------------------------------------------------------
    def shard_range(self, index: int) -> Tuple[int, int]:
        """The ``[lo, hi)`` row range owned by shard ``index``."""
        if not 0 <= index < self.num_shards:
            raise IndexError(
                f"shard {index} out of range for {self.num_shards} shards")
        return int(self.shard_bounds[index]), int(self.shard_bounds[index + 1])

    def halo(self, index: int, hops: int = 1) -> np.ndarray:
        """Sorted node ids shard ``index`` reads within ``hops`` layers.

        The halo is the union of the shard's own rows and every node
        reachable by walking ``hops`` adjacency steps *into* the shard
        (the in-neighbourhood; the adjacency is symmetric here).  A
        ``hops``-layer message-passing stack that streams layer by layer
        only ever gathers the 1-hop halo per layer, but the k-hop set is
        what a shard would need to run all ``hops`` layers locally.
        Cached per ``(index, hops)``; structural, so feature mutations
        never invalidate it.
        """
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        key = (int(index), int(hops))
        cached = self._halos.get(key)
        if cached is not None:
            return cached
        lo, hi = self.shard_range(index)
        indptr, indices = self.adjacency.indptr, self.adjacency.indices
        halo = np.union1d(np.arange(lo, hi, dtype=np.int64),
                          indices[indptr[lo]:indptr[hi]].astype(np.int64))
        for _ in range(hops - 1):
            neighbour_blocks = [indices[indptr[v]:indptr[v + 1]]
                                for v in halo.tolist()]
            if neighbour_blocks:
                frontier = np.concatenate(neighbour_blocks).astype(np.int64)
                halo = np.union1d(halo, frontier)
        self._halos[key] = halo
        return halo

    # ------------------------------------------------------------------
    # Buffer arena
    # ------------------------------------------------------------------
    def buffer(self, tag: str, shape: Tuple[int, ...],
               dtype) -> np.ndarray:
        """A named reusable work buffer under the graph's storage policy.

        Buffers are memoised by ``(tag, shape, dtype)``: the streaming
        encoder's per-layer activations reuse the same file (or array)
        across forwards instead of re-allocating.  Contents are **not**
        cleared between calls — callers own the fill.
        """
        dtype = np.dtype(dtype)
        key = f"{tag}.{'x'.join(str(int(s)) for s in shape)}.{dtype.name}"
        existing = self._buffers.get(key)
        if existing is not None:
            return existing
        buf = self._allocate(tag, tuple(int(s) for s in shape), dtype)
        self._buffers[key] = buf
        return buf

    # ------------------------------------------------------------------
    # Residency accounting
    # ------------------------------------------------------------------
    @property
    def feature_storage(self) -> str:
        """``"memmap"`` or ``"memory"`` — where features live."""
        return "memory" if self.memmap_dir is None else "memmap"

    @property
    def feature_resident_bytes(self) -> int:
        """Anonymous-RAM bound of the feature working set.

        Memmapped features are file-backed (reclaimable page cache), so
        what the streaming forward holds in anonymous memory is at most
        one shard's halo gather: ``max_i |halo(i)| * d * itemsize``.
        In-memory storage is resident in full.
        """
        if self.attributes is None:
            return 0
        if self.memmap_dir is None:
            return int(self.attributes.nbytes)
        width = int(self.attributes.shape[1]) * self.attributes.itemsize
        worst = max(int(self.halo(i).size) for i in range(self.num_shards))
        return worst * width

    @property
    def graph_resident_bytes(self) -> int:
        """Estimated anonymous resident bytes: CSR structure + the
        feature working-set bound (:attr:`feature_resident_bytes`)."""
        adj = self.adjacency
        structure = int(adj.data.nbytes + adj.indices.nbytes
                        + adj.indptr.nbytes)
        return structure + self.feature_resident_bytes

    # ------------------------------------------------------------------
    # Mutation + lifecycle
    # ------------------------------------------------------------------
    def apply_delta(self, delta, repair: bool = True):
        """Apply a :class:`~repro.graph.delta.GraphDelta` at shard
        granularity.

        Structure and dense operators patch exactly as for a plain
        :class:`~repro.graph.graph.Graph`; the shard-suffixed cache
        entries and cached halos are then repaired by
        :meth:`_repair_shard_state` — only shards whose row range *or
        halo* intersects a degree-changed node are dropped for lazy
        rebuild; untouched shards keep serving their compacted slices.

        Appending nodes to a memmap-backed graph raises: the feature and
        buffer files are fixed-size, so a growing graph must be rebuilt
        via :meth:`from_graph`.
        """
        if self._closed:
            raise RuntimeError(f"ShardedGraph {self.name!r} is closed")
        if getattr(delta, "add_nodes", 0) and self.memmap_dir is not None:
            raise ValueError(
                "cannot append nodes to a memmap-backed ShardedGraph: its "
                "feature/buffer files are fixed-size — rebuild the graph "
                "with ShardedGraph.from_graph instead")
        return super().apply_delta(delta, repair=repair)

    def _repair_shard_state(self, report) -> None:
        """Shard-granular cache repair after a structural delta.

        Called by :func:`repro.graph.delta.apply_graph_delta` once the
        dense families are patched.  A shard is *dirty* when a
        degree-changed node falls inside its row range or inside any of
        its cached halos: its ``…shard<i>`` cache entry and halos are
        dropped for lazy rebuild against the patched adjacency.  A clean
        shard's rows, 1-hop halo and compacted operator values are
        provably unchanged (a degree change inside the halo would have
        marked it dirty), so its entry keeps serving as-is.

        Appended nodes change the shard geometry itself (row bounds move),
        so they reset the bounds, every halo and every shard entry.
        """
        cache = self.__dict__.get("_ops_cache")
        structure = report.structure_nodes
        if report.nodes_added:
            self.shard_bounds = np.array(
                [(i * self.num_nodes) // self.num_shards
                 for i in range(self.num_shards + 1)], dtype=np.int64)
            self._halos.clear()
            dirty = None    # every shard
        else:
            dirty = set()
            for index in range(self.num_shards):
                lo, hi = self.shard_range(index)
                if np.any((structure >= lo) & (structure < hi)):
                    dirty.add(index)
            for (index, hops), halo in list(self._halos.items()):
                if index in dirty or np.intersect1d(halo, structure).size:
                    dirty.add(index)
                    del self._halos[(index, hops)]
        if not cache:
            return
        from .delta import _SHARD_KEY
        for key in list(cache):
            match = _SHARD_KEY.match(key)
            if match is None:
                continue
            index = int(match.group("shard"))
            # A kept entry must still have its (clean) 1-hop halo cached —
            # the geometry its compacted slices were cut with; drop
            # conservatively otherwise.
            if dirty is None or index in dirty \
                    or (index, 1) not in self._halos:
                cache.pop(key, None)
                report.ops_dropped += 1

    def set_attributes(self, attributes: Optional[AttributeSource],
                       attribute_dim: Optional[int] = None) -> None:
        """Replace the feature storage; drops every cached operator.

        See :meth:`Graph.set_attributes <repro.graph.graph.Graph.set_attributes>`
        for the invalidation contract — shard-suffixed operator entries
        (``...shard<i>``) are dropped along with the dense families.
        """
        self.attributes = self._init_feature_storage(attributes,
                                                     attribute_dim)
        self.data_version += 1
        self.attribute_version += 1
        self.invalidate_cached_ops()

    def flush(self) -> None:
        """Flush memmapped storage to disk (no-op for in-memory)."""
        for array in self._storage_arrays():
            if isinstance(array, np.memmap):
                array.flush()

    def close(self) -> None:
        """Flush and release every memmap handle.

        After ``close()`` the graph's feature/buffer arrays must not be
        touched; the backing files become deletable (Windows keeps
        mapped files locked, so tests clean up via this method).
        Idempotent.
        """
        if self._closed:
            return
        for array in self._storage_arrays():
            if isinstance(array, np.memmap):
                array.flush()
                mm = getattr(array, "_mmap", None)
                if mm is not None:
                    mm.close()
        self._buffers.clear()
        if isinstance(self.attributes, np.memmap):
            self.attributes = None
        self._closed = True

    def _storage_arrays(self):
        arrays = list(self._buffers.values())
        if self.attributes is not None:
            arrays.append(self.attributes)
        return arrays

    def __enter__(self) -> "ShardedGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (f"ShardedGraph(name={self.name!r}, n={self.num_nodes}, "
                f"m={self.num_edges}, shards={self.num_shards}, "
                f"storage={self.feature_storage})")


def graph_memory_profile(graph) -> Tuple[int, int]:
    """``(resident_bytes, shard_count)`` of any graph-like object.

    For a :class:`ShardedGraph` this is its residency bound and shard
    count; for a plain :class:`~repro.graph.graph.Graph` (or anything
    duck-typed like one) it is the fully-resident estimate with a shard
    count of 1 — the pair feeds the engine's
    ``graph_resident_bytes`` / ``shard_count`` gauges.
    """
    if isinstance(graph, ShardedGraph):
        return graph.graph_resident_bytes, graph.num_shards
    total = 0
    adjacency = getattr(graph, "adjacency", None)
    if adjacency is not None:
        total += int(adjacency.data.nbytes + adjacency.indices.nbytes
                     + adjacency.indptr.nbytes)
    attributes = getattr(graph, "attributes", None)
    if attributes is not None:
        total += int(attributes.nbytes)
    return total, 1
