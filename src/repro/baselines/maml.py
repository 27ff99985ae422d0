"""Model-Agnostic Meta-Learning baseline (❹, first-order variant).

MAML learns an initialisation θ* such that a few gradient steps on a new
task's support set yield a good task model (Eq. 4-5).  We implement the
standard **first-order** approximation (FOMAML): the outer update applies
the query-set gradient evaluated at the task-adapted parameters directly
to the meta parameters, skipping the second-order term.  The paper itself
motivates first-order methods ("to alleviate the computational overhead,
Reptile ..."), which is the case for this substitution; the
qualitative behaviour — unstable adaptation and all-negative collapse on
imbalanced few-shot tasks — is preserved.

Paper schedule: inner loop 10 steps for training / 20 for testing at lr
5e-4, outer lr 1e-3.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..gnn.encoder import GNNNodeClassifier
from ..nn.optim import Adam, SGD
from ..tasks.task import Task
from ..utils import derive_rng
from .base import CommunitySearchMethod, QueryPrediction, threshold_prediction
from .common import batch_loss, feature_dim_of_tasks, predict_task_proba, train_steps

__all__ = ["MAMLConfig", "MAML"]


@dataclasses.dataclass
class MAMLConfig:
    """Inner/outer loop schedule (paper defaults)."""

    hidden_dim: int = 128
    num_layers: int = 3
    conv: str = "gat"
    dropout: float = 0.2
    inner_lr: float = 5e-4
    outer_lr: float = 1e-3
    inner_steps_train: int = 10
    inner_steps_test: int = 20
    epochs: int = 30            # outer epochs over the task set


class MAML(CommunitySearchMethod):
    """First-order MAML with a GNN base model."""

    name = "MAML"
    trains_meta = True

    def __init__(self, config: Optional[MAMLConfig] = None, seed: int = 0):
        self.config = config or MAMLConfig()
        self._rng = np.random.default_rng(seed)
        self._model: Optional[GNNNodeClassifier] = None

    # ------------------------------------------------------------------
    def _build(self, in_dim: int, rng: np.random.Generator) -> GNNNodeClassifier:
        c = self.config
        return GNNNodeClassifier(in_dim + 1, c.hidden_dim, c.num_layers,
                                 c.conv, c.dropout, rng)

    def _inner_adapt(self, model: GNNNodeClassifier, task: Task,
                     steps: int, rng: np.random.Generator) -> None:
        """Task-specific adaptation: SGD on the support set (Eq. 4)."""
        optimizer = SGD(model.parameters(), lr=self.config.inner_lr)
        batch = [(task, example) for example in task.support]
        train_steps(model, optimizer, batch, steps, rng)

    def meta_fit(self, train_tasks: Sequence[Task],
                 valid_tasks: Optional[Sequence[Task]] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or derive_rng(self._rng)
        c = self.config
        in_dim = feature_dim_of_tasks(train_tasks)
        self._model = self._build(in_dim, rng)
        meta_params = self._model.parameters()
        outer = Adam(meta_params, lr=c.outer_lr)

        order = np.arange(len(train_tasks))
        for _ in range(c.epochs):
            rng.shuffle(order)
            for index in order:
                task = train_tasks[int(index)]
                # Inner loop on a task-specific copy.
                task_model = self._build(in_dim, np.random.default_rng(0))
                task_model.load_state_dict(self._model.state_dict())
                self._inner_adapt(task_model, task, c.inner_steps_train, rng)
                # Outer gradient: query-set loss at the adapted parameters
                # (first-order approximation of Eq. 5), all queries in one
                # block-diagonal forward.
                if not task.queries:
                    continue
                task_model.zero_grad()
                task_model.train()
                total = batch_loss(task_model,
                                   [(task, example) for example in task.queries])
                total.backward()
                # Transplant the adapted model's gradients onto the meta
                # parameters and step the outer optimiser.
                adapted = dict(task_model.named_parameters())
                outer.zero_grad()
                for name, meta_param in self._model.named_parameters():
                    grad = adapted[name].grad
                    if grad is not None:
                        meta_param.grad = grad.copy()
                outer.step()

    def predict_task(self, task: Task) -> List[QueryPrediction]:
        if self._model is None:
            raise RuntimeError("MAML.predict_task called before meta_fit")
        rng = derive_rng(self._rng)
        in_dim = feature_dim_of_tasks([task])
        model = self._build(in_dim, np.random.default_rng(0))
        model.load_state_dict(self._model.state_dict())
        self._inner_adapt(model, task, self.config.inner_steps_test, rng)

        probabilities = predict_task_proba(model, task, task.queries)
        return [threshold_prediction(row, example.query, example.membership)
                for row, example in zip(probabilities, task.queries)]


# ----------------------------------------------------------------------
# Registry wiring
# ----------------------------------------------------------------------
from ..api.registry import MethodSpec, register_method  # noqa: E402


@register_method("MAML", rank=10)
def _build_maml(spec: MethodSpec) -> MAML:
    return MAML(MAMLConfig(hidden_dim=spec.hidden_dim,
                           num_layers=spec.num_layers, conv=spec.conv,
                           epochs=spec.pretrain_epochs,
                           inner_steps_train=spec.inner_steps_train,
                           inner_steps_test=spec.inner_steps_test),
                seed=spec.seed)
