"""AQD-GNN baseline (❿): query-driven GNN for attributed community search.

Jiang et al. (VLDB 2022) propose a query-driven architecture with three
encoders — a graph encoder, a query encoder and an attribute encoder —
whose representations are fused before prediction.  The paper deploys it
per test task: "AQD-GNN trains the model from scratch by the few-shot data
in S* and tests in Q*".

Our reimplementation (a simplification) keeps the
architectural essence within this codebase's substrate:

* a **graph encoder** GNN over ``[I_q(v) ‖ features]``;
* a **query encoder** — an MLP over the query node's feature vector,
  broadcast to all nodes;
* **fusion** by concatenating node embeddings with the query embedding and
  their elementwise product, followed by an MLP scorer.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..gnn.encoder import GNNEncoder, make_query_features
from ..nn import functional as F
from ..nn.layers import MLP
from ..nn.loss import bce_with_logits
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor, no_grad
from ..tasks.task import QueryExample, Task
from ..utils import derive_rng
from .base import CommunitySearchMethod, QueryPrediction, threshold_prediction
from .common import feature_dim_of_tasks

__all__ = ["AQDGNNConfig", "AQDGNN", "AQDGNNModel"]


@dataclasses.dataclass
class AQDGNNConfig:
    """Architecture and per-task schedule."""

    hidden_dim: int = 128
    num_layers: int = 3
    conv: str = "gat"
    dropout: float = 0.2
    learning_rate: float = 5e-4
    train_steps: int = 200


class AQDGNNModel(Module):
    """Graph + query encoders with multiplicative fusion."""

    def __init__(self, in_dim: int, config: AQDGNNConfig, rng: np.random.Generator):
        super().__init__()
        c = config
        self.graph_encoder = GNNEncoder(in_dim + 1, c.hidden_dim, c.num_layers,
                                        c.conv, c.dropout, rng, activate_final=False)
        self.query_encoder = MLP([in_dim, c.hidden_dim, c.hidden_dim], rng)
        self.scorer = MLP([3 * c.hidden_dim, c.hidden_dim, 1], rng)

    def forward(self, task: Task, example: QueryExample) -> Tensor:
        features = task.features()
        inputs = Tensor(make_query_features(features, example.query))
        node_embeddings = self.graph_encoder(inputs, task.graph)       # (n, h)
        query_embedding = self.query_encoder(
            Tensor(features[int(example.query)].reshape(1, -1)))        # (1, h)
        n = task.graph.num_nodes
        broadcast = Tensor(np.ones((n, 1))).matmul(query_embedding)     # (n, h)
        fused = F.concat([node_embeddings, broadcast,
                          node_embeddings * broadcast], axis=1)
        return self.scorer(fused).reshape(-1)


class AQDGNN(CommunitySearchMethod):
    """Per-task from-scratch AQD-GNN."""

    name = "AQD-GNN"
    trains_meta = False

    def __init__(self, config: Optional[AQDGNNConfig] = None, seed: int = 0):
        self.config = config or AQDGNNConfig()
        self._rng = np.random.default_rng(seed)

    def meta_fit(self, train_tasks: Sequence[Task],
                 valid_tasks: Optional[Sequence[Task]] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        """Per-task method — no meta stage (matches the paper's usage)."""

    def predict_task(self, task: Task) -> List[QueryPrediction]:
        c = self.config
        rng = derive_rng(self._rng)
        in_dim = feature_dim_of_tasks([task])
        model = AQDGNNModel(in_dim, c, rng)
        optimizer = Adam(model.parameters(), lr=c.learning_rate)

        model.train()
        for _ in range(c.train_steps):
            optimizer.zero_grad()
            total = None
            for example in task.support:
                logits = model(task, example)
                nodes, targets = example.label_arrays()
                loss = bce_with_logits(logits.take_rows(nodes), targets,
                                       reduction="sum") * (1.0 / len(nodes))
                total = loss if total is None else total + loss
            total = total * (1.0 / len(task.support))
            total.backward()
            optimizer.step()

        model.eval()
        predictions = []
        with no_grad():
            for example in task.queries:
                probabilities = model(task, example).sigmoid().data
                predictions.append(threshold_prediction(
                    probabilities, example.query, example.membership))
        return predictions


# ----------------------------------------------------------------------
# Registry wiring
# ----------------------------------------------------------------------
from ..api.registry import MethodSpec, register_method  # noqa: E402


@register_method("AQD-GNN", rank=16)
def _build_aqd_gnn(spec: MethodSpec) -> AQDGNN:
    return AQDGNN(AQDGNNConfig(hidden_dim=spec.hidden_dim,
                               num_layers=spec.num_layers, conv=spec.conv,
                               train_steps=spec.per_task_steps),
                  seed=spec.seed)
