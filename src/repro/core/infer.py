"""CGNP meta-testing — Algorithm 2 of the paper.

For a test task ``T* = (G*, Q*, L*)``: the *entire* support set serves as
the context observations; held-out queries are answered by decoder passes
— no parameter updates.  The context is computed once per task (lines 2-4)
and every query of the batch is answered by a *single* vectorised decoder
pass (line 5), matching how :class:`~repro.api.engine.CommunitySearchEngine`
serves online traffic.

Both entry points take the membership ``threshold`` per call and never
write into task-owned arrays: probabilities are fresh matrices and the
ground-truth masks are copied into the predictions.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Dict, List, Sequence, Union

import numpy as np

from ..graph import Graph
from ..nn.backend import index_dtype_for
from ..nn.tensor import no_grad
from ..tasks.task import Task
from .model import CGNP

__all__ = ["QueryPrediction", "meta_test_task", "predict_memberships",
           "validate_queries"]


@dataclasses.dataclass
class QueryPrediction:
    """Prediction for one held-out query of a test task."""

    query: int
    probabilities: np.ndarray   # membership probability per node
    members: np.ndarray         # predicted community (node ids)
    ground_truth: np.ndarray    # boolean mask (evaluation only)


def validate_queries(graph: Graph,
                     queries: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Coerce ``queries`` to a policy-width index array and bounds-check
    every node.

    Raises a :class:`ValueError` naming the offending ids instead of
    letting an out-of-range index surface as a raw numpy error deep in
    the decoder.  Non-integral ids (e.g. ``3.7``, numpy bools) are
    rejected rather than silently truncated to a different node.  A 1-D
    integer ndarray (e.g. ids the gateway already validated) skips the
    per-element coercion; the result never aliases ``queries``.
    """
    if (isinstance(queries, np.ndarray) and queries.ndim == 1
            and queries.dtype.kind in "iu"):
        indices = queries
    else:
        try:
            ids = [operator.index(q) for q in queries]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"query nodes must be integers: {exc}") from exc
        try:
            indices = np.asarray(ids, dtype=np.int64)
        except OverflowError:   # beyond int64: reported "out of range" below
            indices = np.asarray(ids, dtype=object)
    # Bounds are checked at the staged width, before any narrowing cast.
    out_of_range = indices[(indices < 0) | (indices >= graph.num_nodes)]
    if out_of_range.size:
        bad = sorted(set(out_of_range.tolist()))
        raise ValueError(
            f"query node(s) {bad} out of range for a graph with "
            f"{graph.num_nodes} nodes (valid ids: 0..{graph.num_nodes - 1})")
    # index_dtype_for keeps int64 for graphs too large for the policy
    # width (the ids were only bounds-checked against num_nodes).
    return indices.astype(index_dtype_for(graph.num_nodes),
                          copy=indices is queries)


def _membership_probabilities(model: CGNP, task: Task,
                              queries: np.ndarray) -> np.ndarray:
    """One context encoding + one batched decoder pass: ``(B, n)`` probs."""
    with no_grad():
        context = model.context(task)  # Algorithm 2 lines 1-4: S* → H
        logits = model.query_logits_batch(context, queries, task.graph)
        return logits.sigmoid().data


def _community_of(probabilities: np.ndarray, query: int,
                  threshold: float) -> np.ndarray:
    members = probabilities >= threshold
    members[query] = True  # q ∈ C_q by definition
    return np.flatnonzero(members)


def meta_test_task(model: CGNP, task: Task, threshold: float = 0.5) -> List[QueryPrediction]:
    """Run Algorithm 2 on every held-out query of ``task``."""
    model.eval()
    if not task.queries:
        return []
    queries = validate_queries(task.graph, [e.query for e in task.queries])
    probabilities = _membership_probabilities(model, task, queries)
    predictions: List[QueryPrediction] = []
    for row, example in zip(probabilities, task.queries):
        # Fresh per-query copy (at the model's own dtype) so predictions
        # never alias the shared probability matrix.
        row = np.array(row)
        predictions.append(QueryPrediction(
            query=example.query,
            probabilities=row,
            members=_community_of(row, example.query, threshold),
            ground_truth=example.membership.copy(),
        ))
    return predictions


def predict_memberships(model: CGNP, task: Task, queries: Sequence[int],
                        threshold: float = 0.5) -> Dict[int, np.ndarray]:
    """Answer arbitrary query nodes (no ground truth needed).

    This is the deployment entry point: any node of the task graph can be
    queried, returning its predicted community.  For a persistent session
    that additionally caches the context across calls, use
    :class:`repro.api.engine.CommunitySearchEngine`.
    """
    model.eval()
    indices = validate_queries(task.graph, queries)
    if indices.size == 0:
        return {}
    probabilities = _membership_probabilities(model, task, indices)
    return {query: _community_of(np.array(row), query, threshold)
            for row, query in zip(probabilities, indices.tolist())}
