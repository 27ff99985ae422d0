"""``MethodSelector`` — learn which method wins from logged runs.

The selector regresses **expected F1** from ``[task meta-features ‖
method one-hot]`` with a small :class:`repro.nn.MLP`, trained on the
per-task :class:`~repro.eval.store.RunRecord` lines a
:class:`~repro.eval.store.ResultsStore` accumulates.  At serving time it
scores every candidate method on a task's meta-features and returns the
argmax — or **abstains** (returns ``None``) when it has no basis to
choose, letting the engine fall back to its native method:

* the selector is untrained, or none of the offered candidates appeared
  in its training vocabulary;
* the task's features are out-of-distribution — any standardized
  feature exceeds ``abstain_z`` σ from the training mean.

Abstaining is a first-class outcome, not an error: the engine counts it
(``auto_fallbacks``) and serves the query with its own model, so a
stale or mis-matched selector degrades to exactly the pre-``auto``
behaviour.

The fitted selector persists as a versioned npz artifact mirroring
:class:`~repro.api.bundle.ModelBundle`: weights under their state-dict
keys, a JSON header (format tag, version, feature names, method
vocabulary, standardization moments) under a reserved key, a version
guard on load.  Training runs inside a ``precision("float64")`` scope
and scoring on the float64 weights and inputs, so the artifact and its
scores are identical under every ambient ``REPRO_DTYPE``.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..nn import MLP, Adam, mse_loss
from ..nn.backend import precision
from ..nn.serialize import load_state, save_state
from ..nn.tensor import Tensor
from .features import META_FEATURE_NAMES, feature_vector

__all__ = ["MethodSelector", "SELECTOR_FORMAT", "SELECTOR_VERSION",
           "SELECTOR_HEADER_KEY"]

SELECTOR_FORMAT = "repro/method-selector"
SELECTOR_VERSION = 1
#: Reserved npz key holding the JSON header (dunder-named like
#: :data:`repro.api.bundle.BUNDLE_HEADER_KEY`, so it can never collide
#: with a ``Module.state_dict`` entry).
SELECTOR_HEADER_KEY = "__repro_selector__"


class MethodSelector:
    """Score (task, method) pairs; pick the best method or abstain.

    Parameters
    ----------
    hidden_dim:
        Width of the single hidden layer.
    abstain_z:
        Out-of-distribution bar: if any standardized meta-feature of a
        task exceeds this many σ, :meth:`select` abstains.
    """

    def __init__(self, hidden_dim: int = 32, abstain_z: float = 6.0):
        self.hidden_dim = int(hidden_dim)
        self.abstain_z = float(abstain_z)
        self.methods: List[str] = []
        self.feature_names: List[str] = list(META_FEATURE_NAMES)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._model: Optional[MLP] = None
        self.train_records = 0
        self.trained_at: float = 0.0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        return self._model is not None

    def _input_matrix(self, standardized: np.ndarray,
                      method_index) -> np.ndarray:
        """``[standardized features ‖ method one-hot]`` per row."""
        onehot = np.eye(len(self.methods))[method_index]
        return np.concatenate([standardized, onehot], axis=1)

    def fit(self, records: Iterable, epochs: int = 300, lr: float = 5e-3,
            rng: Optional[np.random.Generator] = None,
            min_records: int = 4) -> "MethodSelector":
        """Fit from an iterable of :class:`~repro.eval.store.RunRecord`.

        Only per-task records carrying both meta-features and an ``f1``
        metric train the selector; aggregate (``task="*"``) records are
        skipped so whole-set summaries logged next to per-task lines do
        not double count.  Raises ``ValueError`` when fewer than
        ``min_records`` usable records remain — an underfed selector
        would confidently mislead rather than abstain.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        rows: List[np.ndarray] = []
        names: List[str] = []
        targets: List[float] = []
        for record in records:
            if getattr(record, "is_aggregate", False):
                continue
            if not record.meta_features or "f1" not in record.metrics:
                continue
            rows.append(feature_vector(record.meta_features))
            names.append(record.method)
            targets.append(float(record.metrics["f1"]))
        if len(rows) < min_records:
            raise ValueError(
                f"need at least {min_records} per-task records with "
                f"meta-features to fit a selector, got {len(rows)}")

        self.methods = sorted(set(names))
        self.feature_names = list(META_FEATURE_NAMES)
        features = np.stack(rows)
        self._mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std < 1e-9] = 1.0   # constant features standardize to zero
        self._std = std
        method_index = np.array([self.methods.index(n) for n in names])
        target = np.asarray(targets, dtype=np.float64).reshape(-1, 1)

        with precision("float64"):
            inputs = self._input_matrix((features - self._mean) / self._std,
                                        method_index)
            in_dim = inputs.shape[1]
            self._model = MLP([in_dim, self.hidden_dim, 1], rng)
            optimizer = Adam(self._model.parameters(), lr=lr)
            x = Tensor(inputs)
            for _ in range(int(epochs)):
                optimizer.zero_grad()
                loss = mse_loss(self._model(x), target)
                loss.backward()
                optimizer.step()
        self.train_records = len(rows)
        self.trained_at = time.time()
        return self

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def scores(self, features: "Dict[str, float] | np.ndarray",
               candidates: Optional[Sequence[str]] = None
               ) -> Dict[str, float]:
        """Predicted F1 per candidate method (empty when untrained).

        ``features`` is a meta-feature dict, or an already-projected
        canonical vector (:func:`~repro.meta.features.feature_vector`).
        """
        if not self.is_trained:
            return {}
        vector = (features if isinstance(features, np.ndarray)
                  else feature_vector(features))
        return self._score((vector - self._mean) / self._std, candidates)

    def _score(self, standardized: np.ndarray,
               candidates: Optional[Sequence[str]]) -> Dict[str, float]:
        """Predicted F1 of each known candidate for one standardized
        feature vector (all methods when ``candidates`` is ``None``)."""
        if candidates is None:
            chosen = list(self.methods)
        else:
            vocab = {name.lower(): name for name in self.methods}
            chosen = [vocab[c.lower()] for c in candidates
                      if c.lower() in vocab]
        if not chosen:
            return {}
        inputs = self._input_matrix(
            np.repeat(standardized[None, :], len(chosen), axis=0),
            [self.methods.index(name) for name in chosen])
        predicted = self._forward(inputs).reshape(-1)
        return {name: float(score) for name, score in zip(chosen, predicted)}

    def _forward(self, inputs: np.ndarray) -> np.ndarray:
        """The MLP's eval forward on plain float64 arrays: the same
        products, bias adds and ReLUs as ``self._model``, without the
        autograd tape or a precision scope (the weights are float64)."""
        model = self._model
        last = len(model.linears) - 1
        x = inputs
        for position, linear in enumerate(model.linears):
            x = np.matmul(x, linear.weight.data)
            if linear.bias is not None:
                x = x + linear.bias.data
            if position < last:
                x = np.maximum(x, 0.0)
        return x

    def select(self, features: Dict[str, float],
               candidates: Optional[Sequence[str]] = None) -> Optional[str]:
        """The best candidate for a task, or ``None`` to abstain.

        Abstains when untrained, when no candidate is in the training
        vocabulary, or when the task looks out-of-distribution (any
        standardized feature beyond ``abstain_z`` σ).
        """
        if not self.is_trained:
            return None
        standardized = (feature_vector(features) - self._mean) / self._std
        if float(np.abs(standardized).max()) > self.abstain_z:
            return None
        scored = self._score(standardized, candidates)
        if not scored:
            return None
        return max(scored, key=scored.get)

    # ------------------------------------------------------------------
    # Persistence (ModelBundle idiom: npz + JSON header, version guard)
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        if not self.is_trained:
            raise ValueError("cannot save an untrained MethodSelector")
        header = {
            "format": SELECTOR_FORMAT,
            "version": SELECTOR_VERSION,
            "hidden_dim": self.hidden_dim,
            "abstain_z": self.abstain_z,
            "methods": self.methods,
            "feature_names": self.feature_names,
            "mean": self._mean.tolist(),
            "std": self._std.tolist(),
            "train_records": self.train_records,
            "trained_at": self.trained_at,
        }
        payload = {key: value for key, value in
                   self._model.state_dict().items()}
        if SELECTOR_HEADER_KEY in payload:   # pragma: no cover - reserved
            raise ValueError(
                f"state dict uses the reserved key {SELECTOR_HEADER_KEY!r}")
        payload[SELECTOR_HEADER_KEY] = np.asarray(
            json.dumps(header, default=str))
        save_state(payload, path)
        return path

    @classmethod
    def load(cls, path: str) -> "MethodSelector":
        state = load_state(path)
        raw_header = state.pop(SELECTOR_HEADER_KEY, None)
        if raw_header is None:
            raise ValueError(
                f"{path} is not a method-selector artifact "
                f"(missing {SELECTOR_HEADER_KEY!r} header)")
        header = json.loads(str(raw_header))
        if header.get("format") != SELECTOR_FORMAT:
            raise ValueError(
                f"{path}: unexpected format {header.get('format')!r}; "
                f"expected {SELECTOR_FORMAT!r}")
        version = int(header.get("version", 0))
        if version > SELECTOR_VERSION:
            raise ValueError(
                f"{path} was written by selector version {version}, newer "
                f"than supported version {SELECTOR_VERSION}; upgrade repro")
        selector = cls(hidden_dim=int(header["hidden_dim"]),
                       abstain_z=float(header["abstain_z"]))
        selector.methods = list(header["methods"])
        selector.feature_names = list(header["feature_names"])
        selector._mean = np.asarray(header["mean"], dtype=np.float64)
        selector._std = np.asarray(header["std"], dtype=np.float64)
        selector.train_records = int(header.get("train_records", 0))
        selector.trained_at = float(header.get("trained_at", 0.0))
        in_dim = len(selector.feature_names) + len(selector.methods)
        with precision("float64"):
            selector._model = MLP([in_dim, selector.hidden_dim, 1],
                                  np.random.default_rng(0))
            selector._model.load_state_dict(state)
        return selector

    def __repr__(self) -> str:   # pragma: no cover - cosmetics
        status = (f"methods={self.methods}" if self.is_trained
                  else "untrained")
        return f"MethodSelector({status})"
