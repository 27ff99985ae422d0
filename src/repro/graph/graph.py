"""The :class:`Graph` container used throughout the reproduction.

A graph is an undirected simple graph stored as a CSR adjacency matrix plus
(optionally) a dense node-attribute matrix and per-node community labels.
Nodes are integers ``0..n-1``.  Instances are treated as immutable after
construction; derived graphs (induced subgraphs) are new objects that retain
a ``parent_nodes`` mapping back to the original node ids.

Community ground truth is stored as a list of node sets (communities may
overlap, as in the Facebook ego-network circles) together with a reverse
node → community-ids index for O(1) lookups by the task samplers.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple, TypeVar)

import numpy as np
import scipy.sparse as sp

from ..nn.backend import (get_backend, index_dtype_for, resolve_dtype,
                          resolve_index_dtype)

__all__ = ["Graph", "OpsCache"]

T = TypeVar("T")


class OpsCache:
    """Explicit memoisation of derived message-passing operators.

    GNN layers need graph-dependent operators (normalised adjacency,
    edge lists with self-loops) that are expensive to rebuild per forward
    pass.  Instead of stashing them in ad-hoc private attributes, graphs
    and graph batches expose :meth:`cached_ops`: callers supply a cache
    key and a builder, and get back the memoised value.  Each instance
    owns its cache, so a :class:`~repro.graph.batch.GraphBatch` and its
    member graphs can never alias each other's operators, and
    :meth:`invalidate_cached_ops` gives mutating call sites a sanctioned
    way to drop stale entries.

    **Cache-key convention.**  Operators whose values depend on the
    element or index width are keyed ``(op, elem_dtype, index_dtype)``,
    spelled ``"<op>.<elem-name>.<index-name>"`` — e.g.
    ``"gnn.message_passing.float32.int32"`` and
    ``"gnn.message_passing.float64.int64"`` live side by side on one
    graph, so a float64 trainer and a float32 server can share task
    graphs without thrashing each other's operators.
    :meth:`invalidate_cached_ops` treats a key as a family prefix:
    invalidating ``"<op>"`` also drops every ``"<op>.<suffix>"``
    variant (and invalidating ``"<op>.<elem-name>"`` drops every index
    width of that element width).

    Sharded operators extend the same convention with one more segment:
    per-shard entries are keyed
    ``"<op>.<elem-name>.<index-name>.shard<i>"`` (e.g.
    ``"gnn.message_passing.float32.int32.shard2"``), so every
    family-prefix invalidation that would drop the dense operator also
    drops all of its shard slices — there is no way to invalidate the
    dense family and leave a stale shard behind.  This is load-bearing
    for :meth:`Graph.set_attributes`, whose contract is that no cached
    operator (dense *or* shard-suffixed) survives a feature mutation.
    """

    def cached_ops(self, key: str, builder: Callable[["OpsCache"], T]) -> T:
        """Return the value cached under ``key``, building it on first use."""
        cache = self.__dict__.setdefault("_ops_cache", {})
        try:
            return cache[key]
        except KeyError:
            value = builder(self)
            cache[key] = value
            return value

    def invalidate_cached_ops(self, key: Optional[str] = None) -> None:
        """Drop one cached operator family (or everything when ``key`` is
        None).  ``key`` matches itself and any ``"<key>.<suffix>"`` entry,
        per the ``(op, dtype)`` key convention above."""
        cache = self.__dict__.get("_ops_cache")
        if cache is None:
            return
        if key is None:
            cache.clear()
            return
        prefix = key + "."
        for cached_key in [k for k in cache
                           if k == key or k.startswith(prefix)]:
            cache.pop(cached_key, None)


class Graph(OpsCache):
    """Undirected attributed graph with optional community ground truth.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; node ids are ``0..n-1``.
    edges:
        Array-like of shape ``(m, 2)`` of undirected edges.  Self-loops and
        duplicate/reversed copies are removed.
    attributes:
        Optional ``(n, d)`` dense attribute matrix (the paper's one-hot
        keyword/profile features).
    communities:
        Optional iterable of node collections — the ground-truth communities
        ``C(G)``.  May overlap.
    name:
        Human-readable dataset/graph label used in reports.
    parent_nodes:
        When this graph was induced from a larger one, the original node id
        of each local node.
    """

    def __init__(self, num_nodes: int, edges,
                 attributes: Optional[np.ndarray] = None,
                 communities: Optional[Iterable[Iterable[int]]] = None,
                 name: str = "graph",
                 parent_nodes: Optional[np.ndarray] = None):
        if num_nodes <= 0:
            raise ValueError("graph must have at least one node")
        self.num_nodes = int(num_nodes)
        self.name = name

        # Edge lists adopt the ambient index policy (int32 by default):
        # graphs here never approach 2^31 nodes, and the edge arrays feed
        # straight into the CSR structure whose bandwidth the policy
        # halves.  Canonicalisation runs at int64 so out-of-range
        # endpoints are *reported* (not wrapped or overflowed) before the
        # narrow cast; a graph too large for the policy width keeps int64.
        edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edge_array = self._canonicalize_edges(edge_array, self.num_nodes)
        # canonical (u < v), unique, no self-loops
        self._edges = edge_array.astype(index_dtype_for(self.num_nodes),
                                        copy=False)

        self.adjacency = self._build_adjacency(edge_array, self.num_nodes)

        if attributes is not None:
            # Attribute storage adopts the ambient precision policy, so a
            # graph materialised inside ``with precision("float32")`` feeds
            # float32 features to the models without per-forward casts.
            attributes = np.asarray(attributes, dtype=resolve_dtype())
            if attributes.shape[0] != self.num_nodes:
                raise ValueError(
                    f"attribute matrix has {attributes.shape[0]} rows for "
                    f"{self.num_nodes} nodes"
                )
        self.attributes = attributes

        self.communities: List[FrozenSet[int]] = []
        self._node_communities: Dict[int, List[int]] = {}
        if communities is not None:
            for community in communities:
                members = frozenset(int(v) for v in community)
                if not members:
                    continue
                bad = [v for v in members if not 0 <= v < self.num_nodes]
                if bad:
                    raise ValueError(f"community contains out-of-range nodes {bad[:3]}")
                index = len(self.communities)
                self.communities.append(members)
                for node in members:
                    self._node_communities.setdefault(node, []).append(index)

        if parent_nodes is not None:
            parent_nodes = np.asarray(parent_nodes, dtype=resolve_index_dtype())
            if parent_nodes.shape != (self.num_nodes,):
                raise ValueError("parent_nodes must have one entry per node")
        self.parent_nodes = parent_nodes

        # Monotonic mutation stamp.  Every sanctioned in-place mutation
        # (``set_attributes``, ``apply_delta``) bumps it; downstream
        # caches keyed on graph *identity* (task feature matrices)
        # validate against it, so even holders the engine has forgotten
        # about can never serve values computed from a previous state.
        self.data_version = 0
        # Bumped, next to ``data_version``, only when ``attributes``
        # changes (``set_attributes``, a delta appending attributed
        # nodes or patching rows in place): caches derived from the
        # attributes alone survive structure-only deltas.
        self.attribute_version = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _canonicalize_edges(edges: np.ndarray, num_nodes: int) -> np.ndarray:
        """Drop self-loops/duplicates and orient every edge as (min, max).

        Rows come out sorted lexicographically — ``np.unique(axis=0)``
        order — deduplicated on the scalar key ``u * n + v``, whose
        ascending order is exactly that order (``repro.graph.delta``
        searches the edge list with the same key).
        """
        if edges.size == 0:
            return np.zeros((0, 2), dtype=edges.dtype)
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValueError("edge endpoint out of range")
        low = np.minimum(edges[:, 0], edges[:, 1])
        high = np.maximum(edges[:, 0], edges[:, 1])
        keep = low != high
        n = np.int64(num_nodes)
        keys = np.unique(low[keep].astype(np.int64) * n + high[keep])
        canonical = np.empty((keys.size, 2), dtype=edges.dtype)
        canonical[:, 0], canonical[:, 1] = np.divmod(keys, n)
        return canonical

    @staticmethod
    def _build_adjacency(edges: np.ndarray, num_nodes: int) -> sp.csr_matrix:
        # Canonicalised through the backend so the stored CSR structure
        # carries the ambient index policy width (int32 by default) —
        # scipy's COO→CSR conversion chooses its own index dtype.
        if edges.size == 0:
            empty = sp.csr_matrix((num_nodes, num_nodes), dtype=resolve_dtype())
            return get_backend().to_operator(empty)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.ones(rows.shape[0], dtype=resolve_dtype())
        adjacency = sp.csr_matrix((data, (rows, cols)),
                                  shape=(num_nodes, num_nodes))
        return get_backend().to_operator(adjacency)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_attributes(self, attributes: Optional[np.ndarray]) -> None:
        """Replace the node-attribute matrix and drop **every** cached op.

        Graphs are otherwise immutable; this is the one sanctioned
        mutation, and its contract is conservative: the whole
        :class:`OpsCache` is cleared — all element/index width variants
        *and* all shard-suffixed entries (``...shard<i>``) — so nothing
        downstream can ever message-pass with operators or collations
        built against the old features.  (Structural operators do not
        depend on attribute values, but cached entries like the
        replica-batch collation sit next to them under the same cache;
        clearing everything keeps the invariant trivial to audit.)
        """
        if attributes is not None:
            attributes = np.asarray(attributes, dtype=resolve_dtype())
            if attributes.shape[0] != self.num_nodes:
                raise ValueError(
                    f"attribute matrix has {attributes.shape[0]} rows for "
                    f"{self.num_nodes} nodes"
                )
        self.attributes = attributes
        self.data_version = getattr(self, "data_version", 0) + 1
        self.attribute_version = getattr(self, "attribute_version", 0) + 1
        self.invalidate_cached_ops()

    def apply_delta(self, delta, repair: bool = True):
        """Apply a :class:`~repro.graph.delta.GraphDelta` in place.

        The second sanctioned mutation (next to :meth:`set_attributes`),
        built for streaming updates: the canonical edge list, the CSR
        adjacency and every cached ``gnn.message_passing.<elem>.<index>``
        operator family are *patched* — only rows whose degree changed
        are structurally rewritten, only rows holding an entry in a
        degree-changed column are re-valued — and the patched operators
        are bitwise-identical to a cold rebuild from the final edge
        list.  Cache entries the repairer does not understand (e.g.
        replica-batch collations) are dropped.  Attribute-only deltas
        leave the structural operators untouched.

        ``repair=False`` patches the structure identically but clears
        the whole operator cache instead — the pre-delta behaviour, kept
        as the measured baseline (``benchmarks/bench_dynamic_graph.py``).

        Returns a :class:`~repro.graph.delta.DeltaReport` describing
        what changed (degree-touched nodes, rows repaired, entries
        dropped) — the input the engine's dirty-context tracking feeds
        on.
        """
        from .delta import apply_graph_delta
        return apply_graph_delta(self, delta, repair=repair)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._edges.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """Canonical ``(m, 2)`` edge array (u < v)."""
        return self._edges

    @property
    def num_attributes(self) -> int:
        return 0 if self.attributes is None else self.attributes.shape[1]

    @property
    def num_communities(self) -> int:
        return len(self.communities)

    def directed_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Both orientations of every edge as (sources, destinations).

        This is the edge-list view GAT-style message passing consumes: a
        message flows along each directed copy.
        """
        src = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
        dst = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
        return src, dst

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node``."""
        start, stop = self.adjacency.indptr[node], self.adjacency.indptr[node + 1]
        return self.adjacency.indices[start:stop]

    def degrees(self) -> np.ndarray:
        """Degree of every node (at the adjacency's index width)."""
        indptr = self.adjacency.indptr
        return indptr[1:] - indptr[:-1]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        neighbors = self.neighbors(u)
        return bool(np.searchsorted(neighbors, v) < len(neighbors)
                    and neighbors[np.searchsorted(neighbors, v)] == v)

    # ------------------------------------------------------------------
    # Community ground truth
    # ------------------------------------------------------------------
    def communities_of(self, node: int) -> List[int]:
        """Indices of ground-truth communities containing ``node``."""
        return list(self._node_communities.get(int(node), []))

    def community_members(self, index: int) -> FrozenSet[int]:
        return self.communities[index]

    def ground_truth_community(self, node: int) -> Set[int]:
        """Union of all ground-truth communities containing ``node``.

        This is the target set ``C_q(G)`` the paper's F1 is measured
        against.  Returns an empty set if the node is in no community.
        """
        members: Set[int] = set()
        for index in self.communities_of(node):
            members |= self.communities[index]
        return members

    def nodes_with_ground_truth(self) -> np.ndarray:
        """Nodes belonging to at least one ground-truth community."""
        return np.asarray(sorted(self._node_communities),
                          dtype=resolve_index_dtype())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Sequence[int], name: Optional[str] = None) -> "Graph":
        """Subgraph induced by ``nodes``; communities are restricted and
        relabelled into the local id space.

        Node ``i`` of the result corresponds to ``nodes[i]`` of this graph
        (also recorded in ``parent_nodes``).
        """
        node_list = np.asarray(list(dict.fromkeys(int(v) for v in nodes)),
                               dtype=resolve_index_dtype())
        if node_list.size == 0:
            raise ValueError("cannot induce an empty subgraph")
        local_of = {int(v): i for i, v in enumerate(node_list)}
        node_set = set(local_of)

        kept_edges = []
        for u in node_list:
            for w in self.neighbors(int(u)):
                if int(w) in node_set and int(u) < int(w):
                    kept_edges.append((local_of[int(u)], local_of[int(w)]))
        edges = np.asarray(kept_edges, dtype=resolve_index_dtype()).reshape(-1, 2)

        attributes = None
        if self.attributes is not None:
            attributes = self.attributes[node_list]

        local_communities = []
        for community in self.communities:
            restricted = [local_of[v] for v in community if v in node_set]
            if restricted:
                local_communities.append(restricted)

        parent = node_list if self.parent_nodes is None else self.parent_nodes[node_list]
        return Graph(
            num_nodes=len(node_list),
            edges=edges,
            attributes=attributes,
            communities=local_communities,
            name=name or f"{self.name}[sub{len(node_list)}]",
            parent_nodes=parent,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (f"Graph(name={self.name!r}, n={self.num_nodes}, m={self.num_edges}, "
                f"attrs={self.num_attributes}, communities={self.num_communities})")
