"""Community-search task abstraction.

A task ``T = (G, Q, L)`` (section III of the paper) is a graph with a set
of query nodes, each carrying *partial* ground truth: a handful of positive
samples from the query's community and negative samples from outside it.
Tasks are split into a **support set** (the shots a model may adapt on) and
a **query set** (held-out queries the model is evaluated on).

Evaluation additionally needs the *full* ground-truth community of each
query inside the task graph, which the sampler records as a boolean
membership mask — the model never sees it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..graph import Graph, node_feature_matrix, structural_features
from ..nn.backend import get_backend

__all__ = ["QueryExample", "Task", "TaskSet"]


@dataclasses.dataclass
class QueryExample:
    """One query node with partial labels and full evaluation ground truth.

    Attributes
    ----------
    query:
        The query node (local id in the task graph).
    positives:
        Sampled members of the query's community, ``l⁺_q`` (excludes the
        query itself).
    negatives:
        Sampled non-members, ``l⁻_q``.
    membership:
        Boolean mask over all task-graph nodes: the full community
        ``C_q(G)`` (evaluation only; includes the query).
    """

    query: int
    positives: np.ndarray
    negatives: np.ndarray
    membership: np.ndarray

    def __post_init__(self) -> None:
        self.positives = np.asarray(self.positives, dtype=np.int64)
        self.negatives = np.asarray(self.negatives, dtype=np.int64)
        self.membership = np.asarray(self.membership, dtype=bool)
        if self.query in set(self.positives.tolist()):
            raise ValueError("positives must not contain the query node")
        if not self.membership[self.query]:
            raise ValueError("query node must belong to its own community")
        overlap = set(self.positives.tolist()) & set(self.negatives.tolist())
        if overlap:
            raise ValueError(f"positive/negative samples overlap: {sorted(overlap)[:3]}")

    @property
    def num_labels(self) -> int:
        return len(self.positives) + len(self.negatives)

    def labelled_nodes(self) -> np.ndarray:
        """All labelled nodes (positives, negatives and the query itself)."""
        return np.concatenate([[self.query], self.positives, self.negatives])

    def label_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(nodes, targets) of the supervised samples, query included as
        a positive (it trivially belongs to its own community)."""
        nodes = np.concatenate([[self.query], self.positives, self.negatives])
        targets = np.concatenate([
            np.ones(1 + len(self.positives)),
            np.zeros(len(self.negatives)),
        ])
        return nodes.astype(np.int64), targets


class Task:
    """A CS task: a graph plus support and query examples.

    Parameters
    ----------
    graph:
        The task graph ``G`` (typically a 200-node BFS sample).
    support:
        Shot examples (with ground truth the model may use).
    queries:
        Held-out examples (ground truth used only for loss/evaluation).
    name:
        Label for reports.
    """

    def __init__(self, graph: Graph, support: Sequence[QueryExample],
                 queries: Sequence[QueryExample], name: str = "task",
                 use_attributes: bool = True, use_structural: bool = True):
        if not support:
            raise ValueError("a task needs at least one support example")
        self.graph = graph
        self.support: List[QueryExample] = list(support)
        self.queries: List[QueryExample] = list(queries)
        self.name = name
        # Default feature configuration.  Scenario builders override it,
        # e.g. cross-domain (MGDD) tasks disable attributes because the
        # source and target vocabularies have different dimensionalities.
        self.use_attributes = use_attributes
        self.use_structural = use_structural
        self._features: Optional[np.ndarray] = None
        self._feature_config: Optional[Tuple[bool, bool]] = None
        self._feature_version: int = -1
        self._encoder_features: Optional[tuple] = None
        self._attribute_block: Optional[tuple] = None
        self._support_features = None
        self._support_features_key: Optional[tuple] = None
        self._label_stack: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._label_stack_key: Optional[tuple] = None

    @property
    def num_shots(self) -> int:
        return len(self.support)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def _feature_key(self, use_attributes: Optional[bool],
                     use_structural: Optional[bool]) -> Tuple[bool, bool, int]:
        """``(use_attributes, use_structural, graph data_version)`` with
        ``None`` arguments deferring to the task's configuration."""
        if use_attributes is None:
            use_attributes = self.use_attributes
        if use_structural is None:
            use_structural = self.use_structural
        return (use_attributes, use_structural,
                getattr(self.graph, "data_version", 0))

    def features(self, use_attributes: Optional[bool] = None,
                 use_structural: Optional[bool] = None) -> np.ndarray:
        """Node feature matrix, computed lazily and cached per configuration.

        ``None`` arguments defer to the task's default configuration.
        """
        use_attributes, use_structural, version = self._feature_key(
            use_attributes, use_structural)
        config = (use_attributes, use_structural)
        if self._features is None or self._feature_config != config \
                or self._feature_version != version:
            self._features = node_feature_matrix(
                self.graph, use_attributes=use_attributes,
                use_structural=use_structural)
            self._feature_config = config
            self._feature_version = version
        return self._features

    def encoder_features(self, use_attributes: Optional[bool] = None,
                         use_structural: Optional[bool] = None):
        """:meth:`features` in the storage the encoder's layer 0 projects
        fastest (:func:`~repro.gnn.encoder.layer0_features`), cached per
        configuration and graph version: a CSR matrix when they are
        mostly zero (bag-of-words keywords), else the dense matrix.

        With attributes and structural channels both on, the CSR form is
        assembled as ``[attribute block ‖ structural (n, 2)]`` from a
        cached CSR of ``graph.attributes`` — bitwise the CSR of the
        dense concatenation, which is then never built — so a
        structure-only delta recomputes just the two structural columns.
        """
        key = self._feature_key(use_attributes, use_structural)
        if self._encoder_features is None or self._encoder_features[0] != key:
            self._encoder_features = (key, self._layer0(*key[:2]))
        return self._encoder_features[1]

    def _layer0(self, use_attributes: bool, use_structural: bool):
        from ..gnn.encoder import SPARSE_DENSITY, layer0_features

        attributes = self.graph.attributes
        if not (use_attributes and use_structural and attributes is not None):
            features = self.features(use_attributes, use_structural)
            return layer0_features(features, features.dtype)
        structural = structural_features(self.graph)
        block = self._attribute_csr()
        # The dense-vs-CSR rule of layer0_features, over the whole matrix.
        nonzero = block.nnz + np.count_nonzero(structural)
        size = attributes.shape[0] * (attributes.shape[1] + 2)
        if nonzero > SPARSE_DENSITY * size:
            return np.concatenate([attributes, structural], axis=1)
        stacked = sp.hstack([block, sp.csr_matrix(structural)], format="csr")
        return get_backend().to_operator(
            stacked, dtype=np.result_type(attributes.dtype, structural.dtype))

    def _attribute_csr(self) -> sp.csr_matrix:
        """CSR copy of ``graph.attributes``, cached on the array's identity
        and the graph's ``attribute_version`` stamp (bumped by every
        sanctioned attribute change, in-place patches included)."""
        attributes = self.graph.attributes
        stamp = getattr(self.graph, "attribute_version", 0)
        cached = self._attribute_block
        if cached is None or cached[0] is not attributes or cached[1] != stamp:
            cached = (attributes, stamp, sp.csr_matrix(attributes))
            self._attribute_block = cached
        return cached[2]

    def support_features(self, use_attributes: Optional[bool] = None,
                         use_structural: Optional[bool] = None):
        """The Eq. 13 encoder input of every support view, cached.

        A :class:`~repro.gnn.encoder.SupportInput`: row block ``i``
        stands for ``[I_l ‖ A]`` of support example ``i`` — the layout
        consumed by the batched encoder (one block per support view) —
        held as :meth:`encoder_features` once plus the views' indicator
        mask, so no ``(k·n, 1 + d)`` stack is allocated.  The input is
        step-invariant during meta-training, so it is cached like
        :meth:`features`; the cache keys on the feature configuration
        and the identity of the support examples, so replacing the
        support set invalidates it.
        """
        from ..gnn.encoder import SupportInput, support_indicators

        features = self.encoder_features(use_attributes, use_structural)
        key = (self._feature_key(use_attributes, use_structural),
               tuple(id(e) for e in self.support))
        if self._support_features is None or self._support_features_key != key:
            self._support_features = SupportInput(
                [(features, support_indicators(self.support, self.num_nodes))])
            self._support_features_key = key
        return self._support_features

    def query_label_stack(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened query-set supervision, cached: ``(rows, cols, targets)``.

        Entry ``i`` supervises node ``cols[i]`` of query-set example
        ``rows[i]`` with target ``targets[i]`` — the fancy index into a
        ``(num_queries, num_nodes)`` logit matrix that lets the trainer
        score every query of the task in one gather instead of a
        per-query Python loop.  Cached on the example identities, like
        :meth:`support_features`.
        """
        key = tuple(id(e) for e in self.queries)
        if self._label_stack is None or self._label_stack_key != key:
            rows: List[np.ndarray] = []
            cols: List[np.ndarray] = []
            targets: List[np.ndarray] = []
            for position, example in enumerate(self.queries):
                nodes, target = example.label_arrays()
                rows.append(np.full(nodes.shape[0], position, dtype=np.int64))
                cols.append(nodes)
                targets.append(target)
            if not rows:
                empty = np.zeros(0, dtype=np.int64)
                self._label_stack = (empty, empty, np.zeros(0))
            else:
                self._label_stack = (np.concatenate(rows),
                                     np.concatenate(cols),
                                     np.concatenate(targets))
            self._label_stack_key = key
        return self._label_stack

    def invalidate_feature_caches(self) -> None:
        """Drop every cached feature view after the task graph mutated.

        :meth:`features`, :meth:`encoder_features` and
        :meth:`support_features` cache matrices
        computed from the graph's attributes and structure; after a
        :class:`~repro.graph.delta.GraphDelta` patches the graph they
        describe a state that no longer exists, and an encoder forward
        mixing stale features with repaired operators would produce a
        context that matches *neither* the pre- nor the post-delta graph.
        The engine's delta path calls this for every known task on the
        mutated graph (:meth:`repro.api.engine.CommunitySearchEngine.apply_delta`);
        the label stack is graph-independent and survives, and so does
        the attribute block of :meth:`encoder_features`, which validates
        itself against ``graph.attribute_version``.  Tasks nobody calls
        this on are covered anyway: :meth:`features` and
        :meth:`encoder_features` validate their caches against
        ``graph.data_version``, which every sanctioned mutation bumps.
        """
        self._features = None
        self._feature_config = None
        self._feature_version = -1
        self._encoder_features = None
        self._support_features = None
        self._support_features_key = None

    def all_examples(self) -> List[QueryExample]:
        return self.support + self.queries

    def with_shots(self, num_shots: int) -> "Task":
        """A view of this task truncated to the first ``num_shots`` shots.

        Excess support examples are *discarded* (not moved to the query
        set), matching how the paper compares 1-shot vs 5-shot.
        """
        if num_shots < 1 or num_shots > len(self.support):
            raise ValueError(
                f"cannot take {num_shots} shots from a task with {len(self.support)}"
            )
        view = Task(self.graph, self.support[:num_shots], self.queries,
                    name=f"{self.name}@{num_shots}shot",
                    use_attributes=self.use_attributes,
                    use_structural=self.use_structural)
        view._features = self._features
        view._feature_config = self._feature_config
        view._feature_version = self._feature_version
        view._encoder_features = self._encoder_features
        view._attribute_block = self._attribute_block
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (f"Task(name={self.name!r}, n={self.graph.num_nodes}, "
                f"shots={len(self.support)}, queries={len(self.queries)})")


@dataclasses.dataclass
class TaskSet:
    """Train/validation/test task collections for one scenario."""

    name: str
    train: List[Task]
    valid: List[Task]
    test: List[Task]

    def __post_init__(self) -> None:
        if not self.train or not self.test:
            raise ValueError("a TaskSet needs non-empty train and test splits")

    def summary(self) -> str:
        return (f"{self.name}: {len(self.train)} train / {len(self.valid)} valid / "
                f"{len(self.test)} test tasks")
