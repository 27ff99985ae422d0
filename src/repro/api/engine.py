"""Session-style serving facade for community search.

The paper's CGNP is a *deploy-once, query-many* system: meta-train
offline, then answer arbitrary queries online with one decoder pass
(Algorithm 2).  :class:`CommunitySearchEngine` is the serving surface for
that regime:

* ``Engine.from_bundle(path)`` rebuilds the model from a self-describing
  :class:`~repro.api.bundle.ModelBundle` — no architecture flags;
* ``engine.attach(task)`` encodes the task's support set into the context
  matrix **once** and caches it (an LRU holds the most recent tasks, so
  one engine can serve several graphs); ``engine.attach_many(tasks)``
  bulk-loads several sessions with a single block-diagonal encoder
  forward (:meth:`CGNP.context_batch <repro.core.model.CGNP.context_batch>`);
* ``engine.query(nodes)`` answers any number of query nodes with a single
  *batched* decoder pass over the cached context;
* ``engine.stats()`` reports queries served, cache hits/misses and
  encode/decode latency.

Serving precision: ``from_bundle(path, dtype="float32")`` casts the
weights on load and computes every context/decoder pass at float32 —
the recommended serving default (≈2x spmm/matmul throughput, membership
probabilities equal to well below any sensible threshold).  The CLI
``repro query`` already defaults to it; ``dtype=None`` keeps the
bundle's recorded training precision.

>>> engine = CommunitySearchEngine.from_bundle("model.npz").attach(task)  # doctest: +SKIP
>>> community = engine.query(42)                  # doctest: +SKIP
>>> communities = engine.query([3, 7, 42])        # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
import logging
import os
import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.infer import validate_queries
from ..core.model import CGNP
from ..graph.delta import DeltaReport, GraphDelta, dirty_frontier_mask
from ..graph.features import feature_dimension
from ..graph.shard import ShardedGraph, graph_memory_profile
from ..nn.backend import get_backend, resolve_context_storage
from ..nn.tensor import Tensor, no_grad
from ..tasks.task import Task
from .bundle import ModelBundle

__all__ = ["CommunitySearchEngine", "EngineStats"]

logger = logging.getLogger(__name__)


def _json_native(value: Any) -> Any:
    """Strip numpy scalar wrappers so a stats dict survives ``json.dumps``."""
    if isinstance(value, np.generic):
        return value.item()
    return value


class _StoredContext:
    """One cached decoder-ready context at the engine's storage width.

    The payload is ``T = decoder.transform(H, graph)``, the
    query-independent half of the decoder (the identity for the
    inner-product decoder, the MLP/GNN pass otherwise), computed once
    when the context is stored — a read only gathers rows of ``T`` and
    runs the inner products.  Compacted widths therefore quantise ``T``,
    not the encoder output ``H``.

    ``"full"`` keeps the compute-dtype array as-is.  ``"float32"`` /
    ``"float16"`` cast the payload down (2x/4x smaller than float64
    compute).  ``"int8"`` quantises symmetrically per row — each row is
    scaled by ``max|row| / 127`` (float32 scales, zero rows guard to
    scale 1.0), an 8x compaction at float64 compute.  :meth:`tensor`
    dequantises ``T`` back to the compute dtype; every decode (including
    the first, right after encoding) goes through it, so cache hits and
    the encoding call itself see the exact same numbers.
    """

    __slots__ = ("storage", "payload", "scale", "compute_dtype")

    def __init__(self, transformed: Tensor, storage: str):
        data = transformed.data
        self.storage = storage
        self.compute_dtype = data.dtype
        self.scale: Optional[np.ndarray] = None
        if storage == "full":
            self.payload = data
        elif storage == "int8":
            scale = (np.max(np.abs(data), axis=1) / 127.0).astype(np.float32)
            scale[scale == 0.0] = 1.0
            self.scale = scale
            self.payload = np.clip(np.rint(data / scale[:, None]),
                                   -127, 127).astype(np.int8)
        else:
            self.payload = data.astype(np.dtype(storage), copy=False)

    @property
    def nbytes(self) -> int:
        """Resident bytes of this entry (payload + quantisation scales)."""
        total = int(self.payload.nbytes)
        if self.scale is not None:
            total += int(self.scale.nbytes)
        return total

    def tensor(self) -> Tensor:
        """``T`` at compute precision (dequantised when needed)."""
        if self.storage == "full":
            return Tensor(self.payload)
        if self.storage == "int8":
            data = (self.payload.astype(self.compute_dtype)
                    * self.scale.astype(self.compute_dtype)[:, None])
            return Tensor(data)
        return Tensor(self.payload.astype(self.compute_dtype, copy=False))


@dataclasses.dataclass
class EngineStats:
    """Serving counters and timers of one engine.

    ``backend`` names the :class:`~repro.nn.backend.ArrayBackend` the
    engine's kernels dispatch through — :meth:`CommunitySearchEngine.stats`
    fills it from the active backend at snapshot time, so a scoped
    ``use_backend(...)`` override shows up in the snapshot it applies to.

    ``decode_calls`` counts decoder *passes* (a coalesced
    :meth:`CommunitySearchEngine.predict_proba_many` call is one pass
    however many request batches it answers), while ``batches_served``
    counts logical request batches and ``queries_served`` individual
    query nodes.  ``first_query_at``/``last_query_at`` are wall-clock
    Unix timestamps of the first/latest decode — the
    :class:`~repro.serve.ServeStats` layer derives observation windows
    from them independently of any per-call counter.

    ``context_cache_bytes`` is the resident size of the context LRU
    (payloads plus quantisation scales) and ``contexts_bytes_evicted``
    the cumulative bytes reclaimed by LRU eviction; together with
    ``context_storage`` (the engine's cache width policy) they make the
    RAM-vs-capacity trade-off of compacted storage observable.

    ``graph_resident_bytes`` / ``shard_count`` describe the *active*
    task's graph at snapshot time: the estimated anonymous-RAM footprint
    of its operators + feature working set, and its row-shard count
    (1 for a plain dense graph, 0 when no task is attached) — see
    :func:`repro.graph.shard.graph_memory_profile`.

    ``deltas_applied`` / ``rows_repaired`` / ``contexts_dirtied`` track
    the streaming-update path (:meth:`CommunitySearchEngine.apply_delta`):
    deltas applied through this engine, operator rows rewritten in place
    by degree-local repair, and cached task contexts invalidated for
    lazy re-encoding because the delta's dirty frontier reached their
    support sets.

    ``auto_selections`` / ``auto_fallbacks`` / ``auto_select_seconds`` /
    ``method_picks`` instrument the ``method="auto"`` path
    (:meth:`CommunitySearchEngine.answer_task`): tasks routed by the
    :class:`~repro.meta.MethodSelector`, tasks served by the native
    model because the selector abstained (or none is configured), wall
    clock spent extracting meta-features + scoring candidates, and how
    often each method (by name, native model included) actually answered.
    """

    queries_served: int = 0
    batches_served: int = 0
    decode_calls: int = 0
    contexts_encoded: int = 0
    context_cache_hits: int = 0
    context_cache_misses: int = 0
    contexts_evicted: int = 0
    context_cache_bytes: int = 0
    contexts_bytes_evicted: int = 0
    context_seconds: float = 0.0
    decode_seconds: float = 0.0
    first_query_at: Optional[float] = None
    last_query_at: Optional[float] = None
    backend: str = ""
    context_storage: str = ""
    graph_resident_bytes: int = 0
    shard_count: int = 0
    deltas_applied: int = 0
    rows_repaired: int = 0
    contexts_dirtied: int = 0
    auto_selections: int = 0
    auto_fallbacks: int = 0
    auto_select_seconds: float = 0.0
    method_picks: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        """Decoder throughput (excludes context encoding, which amortises)."""
        if self.decode_seconds <= 0.0:
            return 0.0
        return self.queries_served / self.decode_seconds

    @property
    def wall_seconds(self) -> float:
        """Wall-clock span between the first and latest decode."""
        if self.first_query_at is None or self.last_query_at is None:
            return 0.0
        return self.last_query_at - self.first_query_at

    def as_dict(self) -> Dict[str, Any]:
        """A plain-python dict that round-trips through ``json.dumps``."""
        data = {key: _json_native(value)
                for key, value in dataclasses.asdict(self).items()}
        data["queries_per_second"] = float(self.queries_per_second)
        data["wall_seconds"] = float(self.wall_seconds)
        return data


class CommunitySearchEngine:
    """A persistent serving session around one meta-trained CGNP.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.CGNP`; switched to eval mode.
    threshold:
        Default membership probability threshold (overridable per query).
    max_cached_contexts:
        How many per-task context matrices to keep (LRU eviction).
    context_storage:
        Width the LRU stores contexts at: ``"full"`` (the compute
        dtype), ``"float32"``, ``"float16"`` or ``"int8"`` (per-row
        symmetric quantisation).  ``None`` defers to the ambient policy
        (:func:`repro.nn.backend.default_context_storage`: ``"full"``
        unless a ``context_storage(...)`` scope is open).  Compacted
        storage multiplies how many task sessions fit in a fixed cache
        RAM budget; decodes dequantise to the compute dtype and run the
        final inner products with a float64 accumulator, keeping
        membership sets at the default threshold identical to full
        storage in practice (tests pin a zero parity gap).

    **Thread safety.**  Every public method is atomic: one re-entrant
    lock guards the context LRU, the stats counters and the decode pass
    itself, so callers on several threads or async tasks can share one
    engine without corrupting the ``OrderedDict`` or losing counter
    increments — calls serialise rather than interleave, since every
    forward reads the one shared model and context cache.
    ``stats()`` returns an isolated snapshot and may be called from any
    thread at any time; for *concurrent* request handling put the
    :class:`~repro.serve.ServeGateway` in front of the engine instead of
    spawning threads around it.

    End-to-end on a tiny synthetic graph (an untrained model — the
    mechanics, not the accuracy):

    >>> from repro.core.model import CGNP, CGNPConfig
    >>> from repro.graph import attributed_community_graph
    >>> from repro.tasks import TaskSampler
    >>> from repro.utils import make_rng
    >>> graph = attributed_community_graph(
    ...     num_nodes=40, num_communities=2, avg_degree=4.0, mixing=0.1,
    ...     num_attributes=4, rng=make_rng(0))
    >>> task = TaskSampler(graph, subgraph_nodes=30, num_support=2,
    ...                    num_query=2).sample_task(make_rng(1))
    >>> model = CGNP(task.features().shape[1],
    ...              CGNPConfig(hidden_dim=8, num_layers=1, conv="gcn"),
    ...              make_rng(2))
    >>> engine = CommunitySearchEngine(model).attach(task)
    >>> bool(0 in engine.query(0))        # q ∈ C_q by definition
    True
    >>> engine.stats().queries_served
    1
    """

    def __init__(self, model: CGNP, threshold: float = 0.5,
                 max_cached_contexts: int = 8,
                 context_storage: Optional[str] = None,
                 selector=None, method_pool=None):
        if max_cached_contexts < 1:
            raise ValueError("max_cached_contexts must be >= 1")
        model.eval()
        self.model = model
        self.threshold = float(threshold)
        self.max_cached_contexts = int(max_cached_contexts)
        self.context_storage = resolve_context_storage(context_storage)
        self.bundle: Optional[ModelBundle] = None
        self._contexts: "OrderedDict[Task, _StoredContext]" = OrderedDict()
        self._active: Optional[Task] = None
        self._stats = EngineStats()
        self._lock = threading.RLock()
        self.selector = None
        self.method_pool: Dict[str, Any] = {}
        # task -> {scenario: (graph data_version, meta-features)}; weak
        # keys, so a freed task's entry goes with it.
        self._meta_cache: "weakref.WeakKeyDictionary[Task, Dict]" = \
            weakref.WeakKeyDictionary()
        self.configure_auto(selector=selector, method_pool=method_pool)

    @property
    def _accum_dtype(self) -> Optional[np.dtype]:
        """Decoder inner-product accumulator: float64 under compacted
        storage (so decode rounding never stacks on quantisation error),
        ``None`` — the compute dtype — under full storage."""
        if self.context_storage == "full":
            return None
        return np.dtype(np.float64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bundle(cls, bundle: Union[str, "os.PathLike[str]", ModelBundle],
                    threshold: float = 0.5, max_cached_contexts: int = 8,
                    rng: Optional[np.random.Generator] = None,
                    dtype: Optional[str] = None,
                    context_storage: Optional[str] = None,
                    ) -> "CommunitySearchEngine":
        """Build an engine from a saved :class:`ModelBundle` (or its path).

        ``dtype`` selects the serving precision (weights are cast on
        load); ``None`` keeps the precision the bundle was trained at.
        ``context_storage`` selects the cache width (see the class
        docstring); ``None`` defers to the ambient policy.
        """
        if not isinstance(bundle, ModelBundle):
            bundle = ModelBundle.load(os.fspath(bundle))
        engine = cls(bundle.build_model(rng=rng, dtype=dtype),
                     threshold=threshold,
                     max_cached_contexts=max_cached_contexts,
                     context_storage=context_storage)
        engine.bundle = bundle
        return engine

    @property
    def dtype(self) -> np.dtype:
        """The precision every context/decoder pass runs at."""
        return np.dtype(self.model.dtype)

    # ------------------------------------------------------------------
    # Task sessions
    # ------------------------------------------------------------------
    @property
    def active_task(self) -> Optional[Task]:
        return self._active

    def attach(self, task: Task, refresh: bool = False) -> "CommunitySearchEngine":
        """Make ``task`` the active session; encode + cache its context.

        The context is the aggregation of the task's support-set views
        (Algorithm 2, lines 1-4) — which is why ``attach`` takes a
        :class:`~repro.tasks.task.Task` rather than a bare graph: the
        support shots are part of the session.  Wrap a graph and its
        labelled examples in a ``Task`` to serve a new graph.

        ``refresh=True`` forces re-encoding (e.g. after the task's support
        set changed).
        """
        self._validate_task(task)
        with self._lock:
            if refresh:
                self._pop_context(task)
            self._context_for(task)
            self._active = task
        return self

    def attach_many(self, tasks: Sequence[Task],
                    refresh: bool = False) -> "CommunitySearchEngine":
        """Bulk-attach several tasks with ONE batched context encoding.

        All yet-uncached tasks are encoded in a single block-diagonal
        encoder forward via :meth:`CGNP.context_batch
        <repro.core.model.CGNP.context_batch>` — the multi-tenant warm-up
        path: an engine serving many graphs pays one forward, not one per
        task.  The last task of the sequence becomes the active session.

        ``refresh=True`` re-encodes every given task even if cached.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValueError("attach_many requires at least one task")
        for task in tasks:
            self._validate_task(task)
        self._check_uniform_feature_dtype(tasks)
        with self._lock:
            seen = set()
            missing: List[Task] = []
            for task in tasks:
                if id(task) in seen:
                    continue
                seen.add(id(task))
                if refresh:
                    self._pop_context(task)
                if task in self._contexts:
                    self._contexts.move_to_end(task)
                    self._stats.context_cache_hits += 1
                else:
                    missing.append(task)
            if missing:
                self._stats.context_cache_misses += len(missing)
                start = time.perf_counter()
                with no_grad():
                    contexts = self.model.context_batch(missing)
                for task, context in zip(missing, contexts):
                    self._store_context(task, context)
                self._stats.context_seconds += time.perf_counter() - start
                self._stats.contexts_encoded += len(missing)
                self._evict()
            self._active = tasks[-1]
        return self

    def _check_uniform_feature_dtype(self, tasks: Sequence[Task]) -> None:
        """Reject a bulk attach that mixes feature precisions.

        The batched warm-up concatenates every task's feature stack into
        one matrix; numpy would silently upcast a mixed-dtype stack to
        the widest member, defeating the point of serving at float32.
        Mixing dtypes is almost always an accident (tasks materialised
        under different precision policies), so fail loudly instead.
        """
        if all(isinstance(task.graph, ShardedGraph) for task in tasks):
            # Sharded tasks encode per task (no cross-task concatenation),
            # and materialising features here would defeat the memmap
            # residency bound — nothing to check.
            return
        config = self.model.config
        # The layer-0 input the batched encode reads next (cached): the
        # dense ``features()`` matrix would be built only for its dtype.
        dtypes = {task.encoder_features(config.use_attributes,
                                        config.use_structural).dtype.name
                  for task in tasks}
        if len(dtypes) > 1:
            raise ValueError(
                f"attach_many got tasks with mixed feature dtypes "
                f"{sorted(dtypes)}; materialise every task under one "
                f"precision policy (repro.nn.backend.precision) or attach "
                f"them one by one with attach()")

    def _validate_task(self, task: Task) -> None:
        """Type- and feature-schema-check one task before encoding."""
        if not isinstance(task, Task):
            raise TypeError(
                f"attach expects a repro.tasks.Task (a graph plus its "
                f"support shots), got {type(task).__name__}")
        config = self.model.config
        # Schema-check from the graph's metadata, never by materialising
        # the (possibly multi-gigabyte, memmap-backed) feature matrix:
        # feature_dimension computes exactly features(...).shape[1].
        use_attrs = (task.use_attributes if config.use_attributes is None
                     else config.use_attributes)
        use_struct = (task.use_structural if config.use_structural is None
                      else config.use_structural)
        feature_dim = feature_dimension(task.graph, use_attrs, use_struct)
        if feature_dim != self.model.in_dim:
            raise ValueError(
                f"task produces {feature_dim}-dim node features but the "
                f"model was built for in_dim={self.model.in_dim}; check the "
                f"dataset/scale and the bundle's feature schema")

    def detach(self, task: Optional[Task] = None) -> None:
        """Drop a task's cached context (the active task by default)."""
        with self._lock:
            task = task if task is not None else self._active
            if task is not None:
                self._pop_context(task)
            if task is self._active:
                self._active = None

    def _require_task(self, task: Optional[Task]) -> Task:
        task = task if task is not None else self._active
        if task is None:
            raise RuntimeError(
                "no task attached: call engine.attach(task) first or pass "
                "task= explicitly")
        return task

    def _context_for(self, task: Task) -> Tensor:
        """The task's decoder-ready context ``T``, from cache or freshly
        encoded and transformed.

        Always decodes through the stored entry — a freshly-encoded
        context is stored first and read back, so under compacted
        storage the very first decode sees the same (de)quantised
        numbers every later cache hit will.
        """
        cached = self._contexts.get(task)
        if cached is not None:
            self._contexts.move_to_end(task)
            self._stats.context_cache_hits += 1
            return cached.tensor()
        self._stats.context_cache_misses += 1
        start = time.perf_counter()
        with no_grad():
            context = self.model.context(task)
        stored = self._store_context(task, context)
        self._stats.context_seconds += time.perf_counter() - start
        self._stats.contexts_encoded += 1
        self._evict()
        return stored.tensor()

    def _store_context(self, task: Task, context: Tensor) -> _StoredContext:
        """Transform a freshly encoded context ``H`` into ``T`` and insert
        it at the cache width; account its bytes.

        One task at a time, so ``T`` is bitwise the transform a
        standalone :meth:`CGNP.query_logits_batch
        <repro.core.model.CGNP.query_logits_batch>` would compute.
        """
        with no_grad():
            transformed = self.model.decoder.transform(context, task.graph)
        stored = _StoredContext(transformed, self.context_storage)
        previous = self._contexts.pop(task, None)
        if previous is not None:
            self._stats.context_cache_bytes -= previous.nbytes
        self._contexts[task] = stored
        self._stats.context_cache_bytes += stored.nbytes
        return stored

    def _pop_context(self, task: Task) -> None:
        """Drop a cached context and its bytes (detach/refresh — not an
        LRU eviction, so the eviction counters stay untouched)."""
        stored = self._contexts.pop(task, None)
        if stored is not None:
            self._stats.context_cache_bytes -= stored.nbytes

    def _evict(self) -> None:
        while len(self._contexts) > self.max_cached_contexts:
            _, stored = self._contexts.popitem(last=False)
            self._stats.contexts_evicted += 1
            self._stats.context_cache_bytes -= stored.nbytes
            self._stats.contexts_bytes_evicted += stored.nbytes

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict_proba(self, nodes: Union[int, Sequence[int], np.ndarray],
                      task: Optional[Task] = None) -> np.ndarray:
        """Membership probabilities for a batch of query nodes.

        Returns a ``(num_queries, num_nodes)`` matrix; row ``b`` is the
        probability of every task-graph node belonging to the community
        of ``nodes[b]``.  All queries share one cached context and one
        batched decoder pass.
        """
        task = self._require_task(task)
        if isinstance(nodes, (int, np.integer)):
            nodes = [int(nodes)]
        indices = validate_queries(task.graph, nodes)
        return self._decode(task, [indices])[0]

    def predict_proba_many(self, node_batches: Sequence[
                               Union[Sequence[int], np.ndarray]],
                           task: Optional[Task] = None) -> List[np.ndarray]:
        """Answer several independent query batches in ONE decoder pass.

        The micro-batching primitive behind
        :class:`~repro.serve.ServeGateway`: all batches share one cached
        context fetch (the decoder transform was paid once, when the
        context was encoded), while each batch keeps the exact BLAS
        shapes of a standalone call — so element ``i`` of the result is
        **bitwise-identical** to ``predict_proba(node_batches[i], task)``,
        and the whole call counts as a single ``decode_calls`` increment.

        Returns one ``(len(batch), num_nodes)`` probability matrix per
        input batch, in order.
        """
        with self._lock:
            task = self._require_task(task)
            validated = [validate_queries(task.graph, batch)
                         for batch in node_batches]
            if not validated:
                return []
            return self._decode(task, validated)

    def _decode(self, task: Task,
                batches: List[np.ndarray]) -> List[np.ndarray]:
        """The one decode path: bounds-checked query batches against the
        task's cached ``T``, one probability matrix per batch."""
        with self._lock:
            transformed = self._context_for(task)
            start = time.perf_counter()
            with no_grad():
                logits = self.model.query_logits_many(
                    transformed, batches, accum_dtype=self._accum_dtype)
                results = [batch_logits.sigmoid().data
                           for batch_logits in logits]
            self._record_decode(
                time.perf_counter() - start,
                queries=int(sum(batch.size for batch in batches)),
                batches=len(batches))
        return results

    def _record_decode(self, elapsed: float, queries: int,
                       batches: int) -> None:
        """Fold one decoder pass into the counters (lock already held)."""
        now = time.time()
        self._stats.decode_seconds += elapsed
        self._stats.queries_served += queries
        self._stats.batches_served += batches
        self._stats.decode_calls += 1
        if self._stats.first_query_at is None:
            self._stats.first_query_at = now
        self._stats.last_query_at = now

    def query(self, nodes: Union[int, Sequence[int], np.ndarray],
              task: Optional[Task] = None,
              threshold: Optional[float] = None,
              ) -> Union[np.ndarray, Dict[int, np.ndarray]]:
        """Predicted community for one node, or for a batch of nodes.

        A scalar query returns its community as an ndarray of node ids; a
        sequence returns ``{query: community}``.  The query node is always
        a member of its own community.
        """
        single = isinstance(nodes, (int, np.integer))
        batch = [int(nodes)] if single else nodes
        task = self._require_task(task)
        indices = validate_queries(task.graph, batch)
        probabilities = self._decode(task, [indices])[0]
        cutoff = self.threshold if threshold is None else float(threshold)
        result: Dict[int, np.ndarray] = {}
        for row, query in zip(probabilities, indices.tolist()):
            members = row >= cutoff
            members[query] = True
            result[query] = np.flatnonzero(members)
        if single:
            return result[int(nodes)]
        return result

    # ------------------------------------------------------------------
    # Meta-method selection (method="auto")
    # ------------------------------------------------------------------
    def configure_auto(self, selector=None,
                       method_pool=None) -> "CommunitySearchEngine":
        """Install the ``method="auto"`` routing table.

        Parameters
        ----------
        selector:
            A fitted :class:`repro.meta.MethodSelector` (duck-typed:
            anything with ``select(features, candidates) -> name|None``).
            ``None`` keeps/clears the selector — :meth:`answer_task` then
            always falls back to the native model.
        method_pool:
            ``{name: fitted CommunitySearchMethod}`` the selector may
            route whole tasks to.  Methods must already be meta-fitted;
            the engine never trains them.  Duck-typed (anything with
            ``predict_task(task)``) so this module keeps importing
            nothing from :mod:`repro.baselines`.
        """
        if selector is not None and not callable(
                getattr(selector, "select", None)):
            raise TypeError(
                f"selector must expose select(features, candidates), got "
                f"{type(selector).__name__}")
        pool = dict(method_pool or {})
        for name, candidate in pool.items():
            if not callable(getattr(candidate, "predict_task", None)):
                raise TypeError(
                    f"method_pool[{name!r}] must expose predict_task(task), "
                    f"got {type(candidate).__name__}")
        with self._lock:
            if selector is not None:
                self.selector = selector
            if method_pool is not None:
                self.method_pool = pool
        return self

    @property
    def native_method(self) -> str:
        """The name :meth:`answer_task` reports for the engine's own model
        (the bundle's recorded method name when available)."""
        if self.bundle is not None and getattr(self.bundle, "method", None):
            return self.bundle.method
        return f"CGNP-{self.model.config.decoder.upper()}"

    def _task_meta_features(self, task: Task,
                            scenario: str) -> Dict[str, float]:
        """Meta-features of ``task``, cached per task object and graph
        version, so a delta re-extracts them (extraction is cheap but the
        auto path pays it per call otherwise; lock already held)."""
        version = getattr(task.graph, "data_version", 0)
        per_scenario = self._meta_cache.setdefault(task, {})
        cached = per_scenario.get(scenario)
        if cached is not None and cached[0] == version:
            return cached[1]
        from ..meta import task_meta_features

        features = task_meta_features(task, scenario)
        per_scenario[scenario] = (version, features)
        return features

    def answer_task(self, task: Optional[Task] = None, method: str = "auto",
                    threshold: Optional[float] = None, scenario: str = "",
                    ) -> List["QueryPrediction"]:
        """Answer every held-out query of ``task``, routing by method.

        ``method="auto"`` asks the configured selector to pick from the
        method pool plus the engine's own model, based on the task's
        meta-features (cached per task).  The contract is
        **fallback-safe**: with no selector, an abstaining selector
        (untrained / out-of-distribution task / unknown candidates), or a
        pick naming the native model, the engine serves the task itself
        exactly as :meth:`predict_proba` would — counted in
        ``auto_fallbacks`` (and logged) for the abstain cases, so a stale
        selector degrades to pre-``auto`` behaviour, visibly.  A pool
        pick delegates the whole task to that fitted method.

        Any explicit ``method=`` name (the native name or a pool key)
        routes directly without consulting the selector.

        Returns one :class:`~repro.core.infer.QueryPrediction` per query
        of ``task.queries``; picks land in the ``method_picks`` counter.
        """
        task = self._require_task(task)
        native = self.native_method
        with self._lock:
            if method == "auto":
                chosen = native
                if self.selector is not None:
                    candidates = list(self.method_pool) + [native]
                    start = time.perf_counter()
                    features = self._task_meta_features(task, scenario)
                    pick = self.selector.select(features, candidates)
                    self._stats.auto_select_seconds += \
                        time.perf_counter() - start
                    if pick is None:
                        self._stats.auto_fallbacks += 1
                        logger.info(
                            "auto: selector abstained on task %r; falling "
                            "back to native %s", task.name, native)
                    else:
                        self._stats.auto_selections += 1
                        chosen = pick
                else:
                    self._stats.auto_fallbacks += 1
            else:
                lookup = {name.lower(): name for name in self.method_pool}
                if method.lower() == native.lower():
                    chosen = native
                elif method.lower() in lookup:
                    chosen = lookup[method.lower()]
                else:
                    raise ValueError(
                        f"unknown method {method!r}; this engine serves "
                        f"{native!r} natively plus pool "
                        f"{sorted(self.method_pool)}")
            self._stats.method_picks[chosen] = \
                self._stats.method_picks.get(chosen, 0) + 1
            if chosen.lower() != native.lower():
                return self.method_pool[chosen].predict_task(task)
            return self._answer_task_native(task, threshold)

    def _answer_task_native(self, task: Task,
                            threshold: Optional[float]) -> List["QueryPrediction"]:
        """Serve a whole task with the engine's own model: one cached
        context, one batched decoder pass over every held-out query."""
        from ..baselines.base import threshold_prediction

        if not task.queries:
            return []
        queries = np.array([example.query for example in task.queries],
                           dtype=np.int64)
        probabilities = self._decode(task, [queries])[0]
        cutoff = self.threshold if threshold is None else float(threshold)
        return [threshold_prediction(row, example.query, example.membership,
                                     threshold=cutoff)
                for row, example in zip(probabilities, task.queries)]

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta, task: Optional[Task] = None,
                    repair: bool = True) -> DeltaReport:
        """Apply a :class:`~repro.graph.delta.GraphDelta` to a task's graph
        and dirty exactly the cached contexts it can have changed.

        The graph patch itself is :meth:`Graph.apply_delta
        <repro.graph.graph.Graph.apply_delta>` (in-place CSR + operator
        repair); on top of it the engine decides, per cached context on
        the mutated graph, whether the delta can reach the context at
        all: the delta's **dirty frontier** (degree- or attribute-touched
        nodes expanded ``num_layers`` hops, removed edges included) is
        intersected with the context's support-set labelled nodes.  A
        miss keeps the cached context — every decode through it keeps
        answering exactly as the pre-delta graph did; a hit (or any
        appended node, which changes the context's row count) drops the
        context and the task's feature caches, so the next decode lazily
        re-encodes against the patched graph.  Answers are therefore
        always *coherent*: entirely pre-delta or entirely post-delta,
        never a mix (the concurrency hammer in ``tests/test_api.py``
        pins this).

        Holding the engine lock for the whole patch means deltas
        serialise with decodes — a :class:`~repro.serve.ServeGateway`
        in front of the engine applies them atomically between ticks.

        ``repair=False`` is the measured baseline: full operator
        invalidation and every same-graph context dirtied.

        Returns the :class:`~repro.graph.delta.DeltaReport`; the
        ``deltas_applied`` / ``rows_repaired`` / ``contexts_dirtied``
        counters land in :meth:`stats`.
        """
        task = self._require_task(task)
        graph = task.graph
        with self._lock:
            report = graph.apply_delta(delta, repair=repair)
            self._stats.deltas_applied += 1
            self._stats.rows_repaired += int(report.rows_repaired)
            if not report.dirty:
                return report
            frontier: Optional[np.ndarray] = None
            if repair and not report.nodes_added:
                frontier = dirty_frontier_mask(graph, report,
                                               self.model.config.num_layers)
            # Every task the engine knows about on this graph: cached
            # contexts, the active session and the delta's own task.
            known: Dict[int, Task] = {id(t): t for t in self._contexts}
            for extra in (self._active, task):
                if extra is not None:
                    known.setdefault(id(extra), extra)
            for candidate in known.values():
                if candidate.graph is not graph:
                    continue
                # Stale cached *features* would let a later re-encode mix
                # pre-delta inputs with post-delta operators — drop them
                # for every known task, dirty or not (contexts cached
                # before the delta stay valid as pre-delta answers).
                candidate.invalidate_feature_caches()
                if candidate not in self._contexts:
                    continue
                if frontier is not None and not frontier[
                        self._support_nodes(candidate)].any():
                    continue
                self._pop_context(candidate)
                self._stats.contexts_dirtied += 1
            return report

    @staticmethod
    def _support_nodes(task: Task) -> np.ndarray:
        """Labelled node ids of a task's support set (repeats allowed) —
        the nodes whose encoder view feeds the context aggregation."""
        return np.concatenate(
            [example.labelled_nodes() for example in task.support])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """A snapshot of the serving counters (plus the active backend,
        the cache width policy and the active graph's memory profile)."""
        with self._lock:
            resident, shards = ((0, 0) if self._active is None
                                else graph_memory_profile(self._active.graph))
            # method_picks is mutable: replace() would share the live dict
            # with the snapshot, so copy it explicitly.
            return dataclasses.replace(self._stats,
                                       backend=get_backend().name,
                                       context_storage=self.context_storage,
                                       graph_resident_bytes=int(resident),
                                       shard_count=int(shards),
                                       method_picks=dict(
                                           self._stats.method_picks))

    def reset_stats(self) -> None:
        with self._lock:
            self._stats = EngineStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (f"CommunitySearchEngine({self.model.describe()}, "
                f"cached_contexts={len(self._contexts)}, "
                f"queries_served={self._stats.queries_served})")
