"""Self-describing model checkpoints.

A :class:`ModelBundle` is a single ``.npz`` file holding a model's weights
*plus* everything needed to rebuild and serve it — the
:class:`~repro.core.model.CGNPConfig`, the feature schema (raw input
dimensionality and which feature channels the model was trained on), the
method name, and free-form training provenance (dataset, epochs, final
loss, …).  The metadata travels as a JSON header embedded in a reserved
archive entry, so a bundle is still a plain numpy archive that external
tools can inspect.

This replaces the bare weight arrays written by
:mod:`repro.nn.serialize`: with a bundle, ``repro.cli query`` and
:meth:`CommunitySearchEngine.from_bundle
<repro.api.engine.CommunitySearchEngine.from_bundle>` need no
architecture flags at load time.  Legacy weight-only ``.npz`` files still
load (``is_legacy`` is then true) but the caller must supply the
architecture when building the model.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, Optional

import numpy as np

from ..core.model import CGNP, CGNPConfig
from ..nn.backend import (get_backend, precision, resolve_dtype,
                          resolve_index_dtype)
from ..nn.serialize import load_state, save_state
from ..utils import make_rng

__all__ = ["ModelBundle", "BUNDLE_HEADER_KEY", "BUNDLE_FORMAT", "BUNDLE_VERSION"]

#: Reserved archive entry holding the JSON header.
BUNDLE_HEADER_KEY = "__repro_bundle__"
#: Format tag guarding against foreign archives with a colliding entry.
BUNDLE_FORMAT = "repro/model-bundle"
#: Bump when the header layout changes incompatibly.
BUNDLE_VERSION = 1


def _config_from_payload(payload: Optional[Dict[str, Any]]) -> Optional[CGNPConfig]:
    """Rebuild a config from a header dict, ignoring unknown fields.

    Dropping unrecognised keys keeps old readers working on bundles
    written by newer code that added config fields.
    """
    if payload is None:
        return None
    known = {field.name for field in dataclasses.fields(CGNPConfig)}
    return CGNPConfig(**{k: v for k, v in payload.items() if k in known})


@dataclasses.dataclass
class ModelBundle:
    """Weights plus the metadata needed to rebuild and serve the model.

    Attributes
    ----------
    state:
        The model's ``state_dict`` (dotted parameter name → array).
    config:
        Architecture of the saved model; ``None`` for legacy weight-only
        checkpoints.
    in_dim:
        Raw node-feature dimensionality the model was built for
        (excluding the indicator channel); ``None`` for legacy files.
    method:
        Registry-style method name (e.g. ``"CGNP-IP"``).
    feature_schema:
        How task features must be built to match the weights
        (``in_dim``, ``use_attributes``, ``use_structural``).
    provenance:
        Free-form training lineage (dataset, epochs, final loss, seed…).
    dtype:
        Element-width name (``"float32"``/``"float64"``) the weights were
        trained and saved at.  Legacy headers without the field — and
        weight-only archives — default to ``"float64"``, the historical
        behaviour.
    index_dtype:
        Index-width name (``"int32"``/``"int64"``) the training run's
        sparse structure used.  Purely provenance — index width never
        changes computed values — recorded so a perf regression can be
        traced to the policy a model was produced under.  Legacy headers
        default to ``"int64"``, the pre-policy behaviour.
    backend:
        :attr:`~repro.nn.backend.ArrayBackend.name` of the backend active
        when the bundle was written (``"numpy"`` or a substitute's name).
        Provenance only: any recorded name loads and answers the same,
        including names of backends this version no longer ships.
        Legacy headers default to ``"numpy"``.
    version:
        Header format version this bundle was read from / written at.

    >>> from repro.core.model import CGNP, CGNPConfig
    >>> from repro.utils import make_rng
    >>> model = CGNP(2, CGNPConfig(hidden_dim=4, num_layers=1, conv="gcn",
    ...                            decoder="ip"), make_rng(0))
    >>> bundle = ModelBundle.from_model(model, provenance={"dataset": "demo"})
    >>> bundle.method
    'CGNP-IP'
    >>> bundle.is_legacy
    False
    >>> sorted(bundle.header())[:5]
    ['backend', 'config', 'dtype', 'feature_schema', 'format']
    >>> rebuilt = bundle.build_model()
    >>> rebuilt.in_dim
    2
    """

    state: Dict[str, np.ndarray]
    config: Optional[CGNPConfig] = None
    in_dim: Optional[int] = None
    method: str = "CGNP"
    feature_schema: Dict[str, Any] = dataclasses.field(default_factory=dict)
    provenance: Dict[str, Any] = dataclasses.field(default_factory=dict)
    dtype: str = "float64"
    index_dtype: str = "int64"
    backend: str = "numpy"
    version: int = BUNDLE_VERSION

    @property
    def is_legacy(self) -> bool:
        """True when the file carried no header (bare weight arrays)."""
        return self.config is None or self.in_dim is None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: CGNP, method: Optional[str] = None,
                   provenance: Optional[Dict[str, Any]] = None) -> "ModelBundle":
        """Snapshot ``model`` into a bundle (weights are copied)."""
        config = dataclasses.replace(model.config)
        schema = {
            "in_dim": int(model.in_dim),
            "use_attributes": config.use_attributes,
            "use_structural": config.use_structural,
        }
        return cls(
            state=model.state_dict(),
            config=config,
            in_dim=int(model.in_dim),
            method=method or f"CGNP-{config.decoder.upper()}",
            feature_schema=schema,
            provenance=dict(provenance or {}),
            dtype=np.dtype(model.dtype).name,
            index_dtype=resolve_index_dtype().name,
            backend=get_backend().name,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def header(self) -> Dict[str, Any]:
        """The JSON-serialisable metadata header."""
        return {
            "format": BUNDLE_FORMAT,
            "version": self.version,
            "method": self.method,
            "in_dim": self.in_dim,
            "dtype": self.dtype,
            "index_dtype": self.index_dtype,
            "backend": self.backend,
            "config": dataclasses.asdict(self.config) if self.config else None,
            "feature_schema": self.feature_schema,
            "provenance": self.provenance,
        }

    def save(self, path: str) -> str:
        """Write the bundle to ``path`` (npz with an embedded header)."""
        if BUNDLE_HEADER_KEY in self.state:
            raise ValueError(
                f"state dict uses the reserved key {BUNDLE_HEADER_KEY!r}")
        payload: Dict[str, np.ndarray] = dict(self.state)
        # default=str keeps exotic provenance values (paths, numpy
        # scalars) from aborting the save.
        header_json = json.dumps(self.header(), default=str)
        payload[BUNDLE_HEADER_KEY] = np.asarray(header_json)
        save_state(payload, path)
        return path

    @classmethod
    def load(cls, path: str) -> "ModelBundle":
        """Read a bundle; weight-only archives fall back to legacy mode."""
        state = load_state(path)
        raw_header = state.pop(BUNDLE_HEADER_KEY, None)
        if raw_header is None:
            return cls(state=state,
                       provenance={"legacy_format": True,
                                   "path": os.path.abspath(path)})
        header = json.loads(str(raw_header))
        if header.get("format") != BUNDLE_FORMAT:
            raise ValueError(
                f"{path}: unrecognised bundle format {header.get('format')!r}")
        version = int(header.get("version", 0))
        if version > BUNDLE_VERSION:
            raise ValueError(
                f"{path}: bundle version {version} is newer than the "
                f"supported version {BUNDLE_VERSION}; upgrade repro")
        in_dim = header.get("in_dim")
        # Headers written before the precision refactor carry no dtype;
        # they were trained at the historical float64 default.  Validate
        # here so a corrupt header surfaces as a load error (which CLIs
        # handle), not deep inside model construction.
        dtype = header.get("dtype", "float64")
        try:
            dtype = resolve_dtype(dtype).name
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bundle header carries an invalid "
                             f"dtype {dtype!r}: {exc}") from exc
        # Headers written before the backend refactor carry neither field;
        # they were produced by the numpy backend at int64 indices.
        index_dtype = header.get("index_dtype", "int64")
        try:
            index_dtype = resolve_index_dtype(index_dtype).name
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bundle header carries an invalid "
                             f"index_dtype {index_dtype!r}: {exc}") from exc
        return cls(
            state=state,
            config=_config_from_payload(header.get("config")),
            in_dim=None if in_dim is None else int(in_dim),
            method=header.get("method", "CGNP"),
            feature_schema=header.get("feature_schema") or {},
            provenance=header.get("provenance") or {},
            dtype=dtype,
            index_dtype=index_dtype,
            backend=str(header.get("backend", "numpy")),
            version=version,
        )

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def build_model(self, rng: Optional[np.random.Generator] = None,
                    config: Optional[CGNPConfig] = None,
                    in_dim: Optional[int] = None,
                    dtype: Optional[str] = None) -> CGNP:
        """Rebuild the saved model, in eval mode, weights restored.

        ``config`` / ``in_dim`` override the stored values — required for
        legacy checkpoints, which carry neither.  ``dtype`` overrides the
        bundle's recorded precision (weights are cast on load), which is
        how a float64-trained checkpoint is served at float32.
        """
        config = config or self.config
        if in_dim is None:
            in_dim = self.in_dim
        if config is None or in_dim is None:
            raise ValueError(
                "legacy checkpoint without an embedded architecture: pass "
                "config= and in_dim= explicitly (or re-save the model as a "
                "ModelBundle)")
        target = resolve_dtype(dtype if dtype is not None else self.dtype)
        with precision(target):
            model = CGNP(int(in_dim), config,
                         rng if rng is not None else make_rng(0))
        model.load_state_dict(self.state)  # casts weights to the target dtype
        model.eval()
        return model

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        if self.is_legacy:
            return "legacy checkpoint (no embedded architecture)"
        c = self.config
        origin = self.provenance.get("dataset")
        suffix = f", trained on {origin}" if origin else ""
        return (f"{self.method} bundle v{self.version} (in_dim={self.in_dim}, "
                f"conv={c.conv}, dec={c.decoder}, layers={c.num_layers}, "
                f"hidden={c.hidden_dim}, dtype={self.dtype}, "
                f"backend={self.backend}/{self.index_dtype}{suffix})")
