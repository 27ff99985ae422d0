"""Classical graph algorithms on :class:`~repro.graph.graph.Graph`.

These back three consumers:

* structural input features for the learned models (core numbers and local
  clustering coefficients — the paper concatenates both onto ``h⁰``);
* the algorithmic community-search baselines (k-core for ACQ, k-truss /
  trussness for CTC and ATC);
* the task samplers (BFS subgraph sampling, connected components).

Implementations favour clarity and are cross-validated against networkx in
the test suite.
"""

from __future__ import annotations

import collections
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from ..nn.backend import resolve_dtype
from .graph import Graph

__all__ = [
    "core_numbers",
    "k_core_subgraph",
    "connected_k_core_containing",
    "triangle_counts",
    "patch_triangle_counts",
    "local_clustering_coefficients",
    "edge_support",
    "trussness",
    "k_truss_nodes",
    "max_truss_containing",
    "bfs_order",
    "bfs_sample",
    "bfs_distances",
    "connected_components",
    "component_of",
    "graph_diameter_estimate",
]


# ----------------------------------------------------------------------
# Cores
# ----------------------------------------------------------------------
#: Below this many nodes a peel round runs as a scalar queue: a chain
#: (a long path) peels a node or two per round, where numpy's per-call
#: overhead would dominate.
_SCALAR_PEEL = 8


def core_numbers(graph: Graph) -> np.ndarray:
    """Core number of every node (Batagelj–Zaversnik peeling).

    The core number of ``v`` is the largest ``k`` such that ``v`` belongs to
    a subgraph in which every node has degree at least ``k``.

    The peel is level-synchronous: at level ``k`` every live node of
    degree <= ``k`` is peeled at once (core ``k``) and its live
    neighbours lose one degree per peeled neighbour; the next round's
    candidates are only those neighbours, so no round rescans all
    ``n``.  When no candidate remains, ``k`` rises to the smallest live
    degree.  Rounds of fewer than :data:`_SCALAR_PEEL` nodes drain as a
    scalar queue instead.
    """
    adjacency = graph.adjacency
    indptr = adjacency.indptr.astype(np.int64)
    indices = adjacency.indices
    degree = np.diff(indptr)
    core = np.zeros(graph.num_nodes, dtype=adjacency.indptr.dtype)
    alive = np.ones(graph.num_nodes, dtype=bool)
    left = graph.num_nodes
    k = 0
    # Peeled at level k (core set, dead) but not yet subtracted from
    # their neighbours' degrees.
    frontier = indptr[:0]
    rows = cols = None
    while left:
        if frontier.size == 0:
            live = np.flatnonzero(alive)
            k = int(degree[live].min())
            frontier = live[degree[live] <= k]
            core[frontier] = k
            alive[frontier] = False
            left -= frontier.size
        if frontier.size >= _SCALAR_PEEL:
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            offsets = np.repeat(starts - np.cumsum(lengths) + lengths,
                                lengths)
            neighbours = indices[offsets + np.arange(offsets.size)]
            touched, counts = np.unique(neighbours[alive[neighbours]],
                                        return_counts=True)
            degree[touched] -= counts
            frontier = touched[degree[touched] <= k]
            core[frontier] = k
            alive[frontier] = False
            left -= frontier.size
            continue
        if rows is None:
            rows, cols = indptr.tolist(), indices.tolist()
        queue = frontier.tolist()
        while queue and len(queue) < _SCALAR_PEEL:
            v = queue.pop()
            for u in cols[rows[v]:rows[v + 1]]:
                if alive[u]:
                    degree[u] -= 1
                    if degree[u] == k:
                        core[u] = k
                        alive[u] = False
                        left -= 1
                        queue.append(u)
        frontier = np.asarray(queue, dtype=np.int64)
    return core


def k_core_subgraph(graph: Graph, k: int) -> np.ndarray:
    """Node ids of the maximal k-core (possibly empty)."""
    core = core_numbers(graph)
    return np.flatnonzero(core >= k)


def connected_k_core_containing(graph: Graph, k: int, seed: int) -> Optional[Set[int]]:
    """Connected component of the maximal k-core containing ``seed``.

    Returns ``None`` when ``seed`` is not in the k-core.  This is the
    structural primitive of the ACQ baseline.
    """
    members = set(int(v) for v in k_core_subgraph(graph, k))
    if seed not in members:
        return None
    component: Set[int] = set()
    frontier = collections.deque([seed])
    component.add(seed)
    while frontier:
        v = frontier.popleft()
        for u in graph.neighbors(v):
            u = int(u)
            if u in members and u not in component:
                component.add(u)
                frontier.append(u)
    return component


# ----------------------------------------------------------------------
# Triangles & clustering
# ----------------------------------------------------------------------
#: :class:`~repro.graph.graph.OpsCache` key of the memoised triangle
#: counts.  A structural delta patches the entry in place of dropping it
#: (:func:`patch_triangle_counts`, called from ``repro.graph.delta``);
#: ``set_attributes`` and ``apply_delta(repair=False)`` drop it with the
#: rest of the cache.
TRIANGLES_KEY = "graph.triangle_counts"


def triangle_counts(graph: Graph) -> np.ndarray:
    """Number of triangles through each node (int64, read-only).

    ``(A·A)[v, w]`` counts the common neighbours of ``v`` and ``w``;
    masking it with ``A`` keeps adjacent pairs only, so row ``v`` of
    ``(A·A) ∘ A`` sums to twice the triangles through ``v``: triangle
    ``{v, a, b}`` is counted at ``(v, a)`` and at ``(v, b)``.  The
    products run on an integer 0/1 copy of the adjacency, so the counts
    are exact.  The counts are cached on the graph and kept current
    across deltas.
    """
    return graph.cached_ops(TRIANGLES_KEY, _count_triangles)


def _count_triangles(graph: Graph) -> np.ndarray:
    adjacency = graph.adjacency
    ones = sp.csr_matrix(
        (np.ones(adjacency.nnz, dtype=np.int64), adjacency.indices,
         adjacency.indptr), shape=adjacency.shape)
    closed = (ones @ ones).multiply(ones)
    counts = np.asarray(closed.sum(axis=1), dtype=np.int64).ravel() // 2
    counts.setflags(write=False)
    return counts


def patch_triangle_counts(counts: np.ndarray, adjacency: sp.csr_matrix,
                          removed: np.ndarray, added: np.ndarray,
                          num_nodes: int) -> np.ndarray:
    """Triangle counts after a delta, from the counts before it.

    ``adjacency`` is the structure the ``counts`` describe; ``removed``
    (all present in it) and ``added`` (all absent once the removals are
    done) are canonical edges, and ``num_nodes`` may exceed the old node
    count (appended nodes start with no triangles).  The delta replays
    one edge at a time — removals first — over the endpoints'
    neighbour sets: an edge ``{u, v}`` closes or opens one triangle per
    common neighbour ``w``, so ``u`` and ``v`` move by ``|N(u) ∩ N(v)|``
    and each ``w`` by one.  Integer-exact: equal to a cold recount.
    """
    patched = np.zeros(num_nodes, dtype=np.int64)
    patched[:counts.size] = counts
    indptr, indices = adjacency.indptr, adjacency.indices
    neighbours: Dict[int, Set[int]] = {}
    for node in np.unique(np.concatenate([removed.ravel(),
                                          added.ravel()])).tolist():
        neighbours[node] = (set(indices[indptr[node]:indptr[node + 1]]
                                .tolist())
                            if node < adjacency.shape[0] else set())
    change: Dict[int, int] = collections.defaultdict(int)
    for sign, edges in ((-1, removed), (1, added)):
        for u, v in edges.tolist():
            if sign < 0:
                neighbours[u].discard(v)
                neighbours[v].discard(u)
            common = neighbours[u] & neighbours[v]
            change[u] += sign * len(common)
            change[v] += sign * len(common)
            for w in common:
                change[w] += sign
            if sign > 0:
                neighbours[u].add(v)
                neighbours[v].add(u)
    if change:
        nodes = np.fromiter(change.keys(), dtype=np.int64, count=len(change))
        patched[nodes] += np.fromiter(change.values(), dtype=np.int64,
                                      count=len(change))
    patched.setflags(write=False)
    return patched


def local_clustering_coefficients(graph: Graph, dtype=None) -> np.ndarray:
    """Watts–Strogatz local clustering coefficient of every node.

    ``c(v) = 2 T(v) / (deg(v) (deg(v) - 1))`` with ``c = 0`` for degree < 2,
    computed at ``dtype`` (default: the ambient policy).
    """
    dtype = resolve_dtype(dtype)
    triangles = triangle_counts(graph).astype(dtype)
    degrees = graph.degrees().astype(dtype)
    denom = degrees * (degrees - 1.0)
    coefficients = np.zeros(graph.num_nodes, dtype=dtype)
    mask = denom > 0
    coefficients[mask] = 2.0 * triangles[mask] / denom[mask]
    return coefficients


# ----------------------------------------------------------------------
# Trusses
# ----------------------------------------------------------------------
def edge_support(graph: Graph) -> Dict[Tuple[int, int], int]:
    """Support (number of triangles) of each canonical edge (u < v)."""
    support: Dict[Tuple[int, int], int] = {}
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    for u, v in graph.edges:
        u, v = int(u), int(v)
        nu = indices[indptr[u]:indptr[u + 1]]
        nv = indices[indptr[v]:indptr[v + 1]]
        support[(u, v)] = int(np.intersect1d(nu, nv, assume_unique=True).size)
    return support


def trussness(graph: Graph) -> Dict[Tuple[int, int], int]:
    """Trussness of every edge: the largest k such that the edge survives in
    the k-truss (every edge in a k-truss participates in ≥ k-2 triangles).

    Standard truss-decomposition peeling.  Complexity O(m^1.5) worst case.
    """
    support = edge_support(graph)
    adjacency: Dict[int, Set[int]] = {v: set(map(int, graph.neighbors(v)))
                                      for v in range(graph.num_nodes)}
    # Process edges by nondecreasing support.
    remaining = dict(support)
    truss: Dict[Tuple[int, int], int] = {}
    # Bucket queue keyed by current support.
    buckets: Dict[int, Set[Tuple[int, int]]] = collections.defaultdict(set)
    for edge, s in remaining.items():
        buckets[s].add(edge)
    current = 0
    k = 2
    processed: Set[Tuple[int, int]] = set()
    total = len(remaining)
    while len(processed) < total:
        while current not in buckets or not buckets[current]:
            current += 1
        edge = buckets[current].pop()
        u, v = edge
        s = remaining[edge]
        k = max(k, s + 2)
        truss[edge] = k
        processed.add(edge)
        # Remove the edge; decrement the support of edges in its triangles.
        common = adjacency[u] & adjacency[v]
        for w in common:
            for other in ((min(u, w), max(u, w)), (min(v, w), max(v, w))):
                if other in processed or other not in remaining:
                    continue
                old = remaining[other]
                if old > s:
                    buckets[old].discard(other)
                    remaining[other] = old - 1
                    buckets[old - 1].add(other)
                    current = min(current, old - 1)
        adjacency[u].discard(v)
        adjacency[v].discard(u)
    return truss


def k_truss_nodes(graph: Graph, k: int,
                  edge_trussness: Optional[Dict[Tuple[int, int], int]] = None) -> Set[int]:
    """Nodes incident to at least one edge of the k-truss."""
    if edge_trussness is None:
        edge_trussness = trussness(graph)
    nodes: Set[int] = set()
    for (u, v), t in edge_trussness.items():
        if t >= k:
            nodes.add(u)
            nodes.add(v)
    return nodes


def max_truss_containing(graph: Graph, query_nodes: Sequence[int]) -> Tuple[int, Set[int]]:
    """Largest ``k`` whose connected k-truss contains all ``query_nodes``,
    together with the node set of that connected k-truss component.

    Falls back to the connected component of the queries (k=2) when no
    higher truss holds them together.  This is the first stage of both CTC
    and ATC.
    """
    queries = [int(q) for q in query_nodes]
    if not queries:
        raise ValueError("query node set must be non-empty")
    edge_truss = trussness(graph)
    max_k = max(edge_truss.values(), default=2)
    for k in range(max_k, 1, -1):
        kept_edges = [(u, v) for (u, v), t in edge_truss.items() if t >= k]
        component = _component_containing(graph.num_nodes, kept_edges, queries)
        if component is not None:
            return k, component
    # Degenerate: queries not connected even in the full graph.
    component = component_of(graph, queries[0])
    return 2, component


def _component_containing(num_nodes: int, edges: List[Tuple[int, int]],
                          queries: List[int]) -> Optional[Set[int]]:
    """Connected component (over ``edges``) containing *all* queries, if any."""
    adjacency: Dict[int, List[int]] = collections.defaultdict(list)
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seed = queries[0]
    if seed not in adjacency and len(queries) > 1:
        return None
    component = {seed}
    frontier = collections.deque([seed])
    while frontier:
        v = frontier.popleft()
        for u in adjacency.get(v, ()):
            if u not in component:
                component.add(u)
                frontier.append(u)
    if all(q in component for q in queries):
        return component
    return None


# ----------------------------------------------------------------------
# Traversal
# ----------------------------------------------------------------------
def bfs_order(graph: Graph, source: int) -> np.ndarray:
    """Nodes in BFS order from ``source`` (only the reachable part)."""
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[source] = True
    order = [source]
    frontier = collections.deque([source])
    while frontier:
        v = frontier.popleft()
        for u in graph.neighbors(v):
            u = int(u)
            if not visited[u]:
                visited[u] = True
                order.append(u)
                frontier.append(u)
    return np.asarray(order, dtype=np.int64)


def bfs_sample(graph: Graph, source: int, max_nodes: int,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """First ``max_nodes`` nodes of a (optionally neighbor-shuffled) BFS.

    This is the paper's task-subgraph sampler: "one task is generated by
    sampling a subgraph of 200 nodes by BFS".  Shuffling neighbor expansion
    makes repeated samples from the same source diverse.
    """
    if max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[source] = True
    order = [source]
    frontier = collections.deque([source])
    while frontier and len(order) < max_nodes:
        v = frontier.popleft()
        neighbors = graph.neighbors(v).copy()
        if rng is not None:
            rng.shuffle(neighbors)
        for u in neighbors:
            u = int(u)
            if not visited[u]:
                visited[u] = True
                order.append(u)
                frontier.append(u)
                if len(order) >= max_nodes:
                    break
    return np.asarray(order, dtype=np.int64)


def bfs_distances(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    """Multi-source BFS hop distances (np.inf for unreachable nodes)."""
    distances = np.full(graph.num_nodes, np.inf)
    frontier = collections.deque()
    for s in sources:
        distances[int(s)] = 0.0
        frontier.append(int(s))
    while frontier:
        v = frontier.popleft()
        for u in graph.neighbors(v):
            u = int(u)
            if distances[u] == np.inf:
                distances[u] = distances[v] + 1.0
                frontier.append(u)
    return distances


def connected_components(graph: Graph) -> List[Set[int]]:
    """All connected components as node sets, largest first."""
    seen = np.zeros(graph.num_nodes, dtype=bool)
    components: List[Set[int]] = []
    for start in range(graph.num_nodes):
        if seen[start]:
            continue
        component = {start}
        seen[start] = True
        frontier = collections.deque([start])
        while frontier:
            v = frontier.popleft()
            for u in graph.neighbors(v):
                u = int(u)
                if not seen[u]:
                    seen[u] = True
                    component.add(u)
                    frontier.append(u)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def component_of(graph: Graph, node: int) -> Set[int]:
    """Connected component containing ``node``."""
    component = {int(node)}
    frontier = collections.deque([int(node)])
    while frontier:
        v = frontier.popleft()
        for u in graph.neighbors(v):
            u = int(u)
            if u not in component:
                component.add(u)
                frontier.append(u)
    return component


def graph_diameter_estimate(graph: Graph, nodes: Optional[Sequence[int]] = None) -> float:
    """Eccentricity-based diameter estimate of the subgraph on ``nodes``.

    Runs BFS from a handful of nodes (double sweep); exact on trees, a lower
    bound in general — sufficient for CTC's diameter-minimising heuristic.
    """
    subgraph = graph if nodes is None else graph.induced_subgraph(list(nodes))
    if subgraph.num_nodes == 1:
        return 0.0
    distances = bfs_distances(subgraph, [0])
    finite = distances[np.isfinite(distances)]
    far = int(np.argmax(np.where(np.isfinite(distances), distances, -1.0)))
    second = bfs_distances(subgraph, [far])
    finite_second = second[np.isfinite(second)]
    return float(max(finite.max(initial=0.0), finite_second.max(initial=0.0)))
