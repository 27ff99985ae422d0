"""Precision policies and the pluggable array backend.

This module is the single source of truth for three cross-cutting
numerical choices that used to be hardwired all over the stack:

* **Which element width to compute in.**  The CGNP hot path (spmm and
  dense matmul) is memory-bandwidth-bound, so halving the element width
  is a direct throughput win.  The :class:`Precision` policy holds the
  ambient dtype (``float32`` or ``float64``); every layer that creates
  arrays — tensors, initialisers, normalised adjacencies, feature
  matrices — resolves its dtype through :func:`resolve_dtype` instead of
  naming ``np.float64``.  The process-wide default is ``float64`` (so the
  numeric-equivalence test suite stays exact) and can be overridden
  per-context with ``with precision("float32"):`` or process-wide via the
  ``REPRO_DTYPE`` environment variable / :func:`set_default_dtype`.

* **Which index width sparse structure uses.**  Edge lists, CSR
  ``indices``/``indptr`` and gather/scatter/segment index arrays never
  need to address more than 2^31 nodes in this repository, so they
  default to ``int32`` — halving the index bandwidth of every sparse
  op.  The index policy mirrors the element policy:
  :func:`resolve_index_dtype` is the one call every index-creating site
  makes, ``with index_precision("int64"):`` scopes an override, and the
  ``REPRO_INDEX_DTYPE`` environment variable sets the process default.
  Index width never changes computed *values* — only the width of the
  bookkeeping arrays — so switching it is always numerically safe.

* **Which array library executes the dense/sparse kernels.**  The
  :class:`ArrayBackend` protocol gathers the operations the autograd
  engine actually dispatches — dense matmul, sparse-dense matmul, the
  gather / scatter-add / segment-softmax edge ops of the GAT path, array
  creation, RNG construction — behind one object.  :class:`NumpyBackend`
  (NumPy + SciPy) is the one implementation and the process default.
  The seam lets a caller substitute an instance with
  :func:`set_backend` / ``with use_backend(...)`` — tests install
  counting or renamed refinements of :class:`NumpyBackend` this way.

Two inference-only policies have a fixed default and a per-thread
scope, with no process-wide knob: fused inference kernels are on
(``with fused_inference(False):`` selects the unfused reference path)
and serving contexts are cached at full width (``with
context_storage("int8"):``; the engine and CLI also take the width as
an argument).

Cache-key convention
--------------------
Derived operators whose values depend on the element *or* index width
are memoised under ``(op, elem_dtype, index_dtype)`` keys spelled
``"<op>.<elem-name>.<index-name>"`` (e.g.
``"gnn.message_passing.float32.int32"``) in each graph's
:class:`~repro.graph.graph.OpsCache`.  ``invalidate_cached_ops("<op>")``
drops every dtype variant of the family at once.

>>> with precision("float32"):
...     resolve_dtype().name
'float32'
>>> resolve_index_dtype("int64").name
'int64'
>>> get_backend().name
'numpy'
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SUPPORTED_DTYPES",
    "SUPPORTED_INDEX_DTYPES",
    "SUPPORTED_CONTEXT_STORAGE",
    "FUSED_ACTIVATIONS",
    "Precision",
    "precision",
    "index_precision",
    "context_storage",
    "fused_inference",
    "default_dtype",
    "default_index_dtype",
    "default_context_storage",
    "set_default_dtype",
    "fused_inference_enabled",
    "resolve_dtype",
    "resolve_index_dtype",
    "resolve_context_storage",
    "index_dtype_for",
    "as_index_array",
    "ArrayBackend",
    "NumpyBackend",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: The element widths the stack supports end to end.
SUPPORTED_DTYPES = ("float32", "float64")

#: The index widths sparse structure supports end to end.
SUPPORTED_INDEX_DTYPES = ("int32", "int64")

#: The widths the serving engine may keep cached context matrices at.
#: ``full`` stores them at the compute dtype; the narrower widths halve
#: (or quarter) the resident bytes and dequantise back to the compute
#: dtype on every decode.
SUPPORTED_CONTEXT_STORAGE = ("full", "float32", "float16", "int8")

#: The activation epilogues the fused kernels understand.  ``relu`` is
#: bitwise against ``np.maximum(x, 0.0)``; ``elu`` matches
#: :func:`repro.nn.functional.elu` exactly.
FUSED_ACTIVATIONS = (None, "relu", "elu")

DTypeLike = Union[str, type, np.dtype, "Precision"]


def _canonical_dtype(dtype: DTypeLike) -> np.dtype:
    """Validate and normalise ``dtype`` to a numpy dtype object."""
    if isinstance(dtype, Precision):
        return dtype.dtype
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        # np.dtype raises TypeError for unparseable names (e.g. "fp32");
        # normalise to the same ValueError the not-supported branch uses.
        raise ValueError(
            f"unsupported precision {dtype!r}; choose from "
            f"{SUPPORTED_DTYPES}") from exc
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported precision {resolved.name!r}; choose from "
            f"{SUPPORTED_DTYPES}")
    return resolved


def _canonical_index_dtype(dtype: DTypeLike) -> np.dtype:
    """Validate and normalise an index ``dtype`` to a numpy dtype object."""
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(
            f"unsupported index dtype {dtype!r}; choose from "
            f"{SUPPORTED_INDEX_DTYPES}") from exc
    if resolved.name not in SUPPORTED_INDEX_DTYPES:
        raise ValueError(
            f"unsupported index dtype {resolved.name!r}; choose from "
            f"{SUPPORTED_INDEX_DTYPES}")
    return resolved


class Precision:
    """A value object naming one supported element width.

    Mostly used through the module-level helpers (:func:`precision`,
    :func:`resolve_dtype`), but passing a ``Precision`` anywhere a dtype
    is accepted also works.

    >>> Precision("float32").name
    'float32'
    >>> Precision(np.float64) == Precision("float64")
    True
    >>> Precision("fp8")
    Traceback (most recent call last):
        ...
    ValueError: unsupported precision 'fp8'; choose from ('float32', 'float64')
    """

    __slots__ = ("dtype",)

    def __init__(self, dtype: DTypeLike):
        self.dtype = _canonical_dtype(dtype)

    @property
    def name(self) -> str:
        return self.dtype.name

    def __eq__(self, other) -> bool:
        if isinstance(other, Precision):
            return self.dtype == other.dtype
        try:
            return self.dtype == _canonical_dtype(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self) -> int:
        return hash(self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"Precision({self.name!r})"


def _precision_from_env() -> Precision:
    """The process default from ``REPRO_DTYPE``, failing with a message
    that names the environment variable (this runs at import time)."""
    value = os.environ.get("REPRO_DTYPE", "float64")
    try:
        return Precision(value)
    except ValueError as exc:
        raise ValueError(
            f"invalid REPRO_DTYPE environment variable: {exc}") from exc


def _index_dtype_from_env() -> np.dtype:
    """The process default from ``REPRO_INDEX_DTYPE`` (default int32)."""
    value = os.environ.get("REPRO_INDEX_DTYPE", "int32")
    try:
        return _canonical_index_dtype(value)
    except ValueError as exc:
        raise ValueError(
            f"invalid REPRO_INDEX_DTYPE environment variable: {exc}") from exc


def _canonical_context_storage(value: str) -> str:
    """Validate and normalise a context-storage policy name."""
    key = str(value).strip().lower()
    if key not in SUPPORTED_CONTEXT_STORAGE:
        raise ValueError(
            f"unsupported context storage {value!r}; choose from "
            f"{SUPPORTED_CONTEXT_STORAGE}")
    return key


#: Process-wide default precision; ``precision(...)`` overrides are
#: per-thread, but this base is shared so ``set_default_dtype`` is
#: visible from worker threads too.
_PROCESS_DEFAULT_PRECISION = _precision_from_env()

#: Process-wide default index width, fixed at import by
#: ``REPRO_INDEX_DTYPE``; ``index_precision(...)`` overrides are per-thread.
_PROCESS_DEFAULT_INDEX_DTYPE = _index_dtype_from_env()


class _PolicyState(threading.local):
    """Per-thread stacks of scoped policy overrides."""

    def __init__(self):
        self.stack = []
        self.index_stack = []
        self.storage_stack = []
        self.fused_stack = []


_POLICY = _PolicyState()


def default_dtype() -> np.dtype:
    """The ambient policy dtype (innermost ``precision`` context wins,
    falling back to the process-wide default)."""
    stack = _POLICY.stack
    return (stack[-1] if stack else _PROCESS_DEFAULT_PRECISION).dtype


def default_index_dtype() -> np.dtype:
    """The ambient index dtype (innermost ``index_precision`` context
    wins, falling back to the process-wide default)."""
    stack = _POLICY.index_stack
    return stack[-1] if stack else _PROCESS_DEFAULT_INDEX_DTYPE


def set_default_dtype(dtype: DTypeLike) -> None:
    """Replace the process-wide default precision (all threads).

    Prefer the scoped ``with precision(...):`` form; this setter exists
    for process entry points (CLI, benchmarks, test harnesses).
    """
    global _PROCESS_DEFAULT_PRECISION
    _PROCESS_DEFAULT_PRECISION = Precision(dtype)


def default_context_storage() -> str:
    """The ambient context-storage policy (innermost ``context_storage``
    context wins, falling back to ``"full"``)."""
    stack = _POLICY.storage_stack
    return stack[-1] if stack else "full"


def resolve_context_storage(storage: Optional[str] = None) -> str:
    """``storage`` normalised, or the ambient policy when ``None``.

    The one call every context-caching site makes (the serving engine,
    its ``from_bundle`` constructor and the CLI), mirroring
    :func:`resolve_dtype` for element widths.

    >>> resolve_context_storage()
    'full'
    >>> with context_storage("float16"):
    ...     resolve_context_storage()
    'float16'
    >>> resolve_context_storage("int8")
    'int8'
    """
    if storage is None:
        return default_context_storage()
    return _canonical_context_storage(storage)


@contextlib.contextmanager
def context_storage(storage: str) -> Iterator[str]:
    """Scoped context-storage override:
    ``with context_storage("int8"): ...``."""
    resolved = _canonical_context_storage(storage)
    _POLICY.storage_stack.append(resolved)
    try:
        yield resolved
    finally:
        _POLICY.storage_stack.pop()


def fused_inference_enabled() -> bool:
    """Whether the fused inference kernels are enabled right now (on
    unless a ``fused_inference(False)`` scope is open in this thread).

    This is a *policy*, not a capability probe: the encoder additionally
    requires eval mode and gradients off before it dispatches the fused
    path, so training numerics are never affected by this switch.

    >>> fused_inference_enabled()
    True
    >>> with fused_inference(False):
    ...     fused_inference_enabled()
    False
    """
    stack = _POLICY.fused_stack
    return stack[-1] if stack else True


@contextlib.contextmanager
def fused_inference(enabled: bool = True) -> Iterator[bool]:
    """Scoped fused-inference override:
    ``with fused_inference(False): ...`` forces the unfused reference
    path even in eval/no-grad mode (the reference the parity tests
    compare against)."""
    _POLICY.fused_stack.append(bool(enabled))
    try:
        yield bool(enabled)
    finally:
        _POLICY.fused_stack.pop()


@contextlib.contextmanager
def precision(dtype: DTypeLike) -> Iterator[Precision]:
    """Scoped precision override: ``with precision("float32"): ...``."""
    policy = Precision(dtype)
    _POLICY.stack.append(policy)
    try:
        yield policy
    finally:
        _POLICY.stack.pop()


@contextlib.contextmanager
def index_precision(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Scoped index-width override.

    >>> with index_precision("int64"):
    ...     resolve_index_dtype().name
    'int64'
    """
    resolved = _canonical_index_dtype(dtype)
    _POLICY.index_stack.append(resolved)
    try:
        yield resolved
    finally:
        _POLICY.index_stack.pop()


def resolve_dtype(dtype: Optional[DTypeLike] = None) -> np.dtype:
    """``dtype`` normalised, or the ambient policy dtype when ``None``.

    This is the one call every array-creating site in the stack makes
    instead of hardcoding an element width.
    """
    if dtype is None:
        return default_dtype()
    return _canonical_dtype(dtype)


def resolve_index_dtype(dtype: Optional[DTypeLike] = None) -> np.dtype:
    """``dtype`` normalised, or the ambient index dtype when ``None``.

    The one call every index-creating site (edge lists, CSR structure,
    gather/scatter/segment indices) makes instead of naming ``np.int64``.

    >>> with index_precision("int32"):
    ...     resolve_index_dtype().name
    'int32'
    >>> resolve_index_dtype("int64") is np.dtype(np.int64)
    True
    """
    if dtype is None:
        return default_index_dtype()
    return _canonical_index_dtype(dtype)


def index_dtype_for(max_value: int,
                    dtype: Optional[DTypeLike] = None) -> np.dtype:
    """The resolved index dtype, widened to int64 when ``max_value``
    genuinely overflows it — correctness beats bandwidth.

    Every site that narrows an int64-staged index array (edge lists,
    batch offsets, validated query ids) routes through this so the
    overflow guard lives in exactly one place.

    >>> with index_precision("int32"):
    ...     (index_dtype_for(100).name, index_dtype_for(2 ** 40).name)
    ('int32', 'int64')
    """
    resolved = resolve_index_dtype(dtype)
    # Signed index max 2**(bits - 1) - 1, without a per-call np.iinfo.
    if max_value >= 1 << (8 * resolved.itemsize - 1):
        return np.dtype(np.int64)
    return resolved


def as_index_array(indices) -> np.ndarray:
    """``indices`` as an integer array at the ambient index policy width.

    Arrays that are already integral pass through unchanged — they were
    materialised under some policy, and re-casting per call would waste
    the bandwidth the policy saves.  The gather (``Tensor.take_rows``)
    and scatter/segment (``repro.nn.functional``) paths share this
    coercion so they can never diverge.
    """
    if isinstance(indices, np.ndarray) and np.issubdtype(indices.dtype,
                                                         np.integer):
        return indices
    return np.asarray(indices, dtype=resolve_index_dtype())


def _check_act(act: Optional[str]) -> None:
    if act not in FUSED_ACTIVATIONS:
        raise ValueError(
            f"unsupported fused activation {act!r}; choose from "
            f"{FUSED_ACTIVATIONS}")


def _apply_act_inplace(out: np.ndarray, act: Optional[str]) -> None:
    """Apply a fused activation epilogue to an array the caller owns.

    ``relu`` is ``np.maximum(x, 0.0)`` (bitwise against ``Tensor.relu``);
    ``elu`` is the exact alpha=1 formula of
    :func:`repro.nn.functional.elu` — ``where(x > 0, x, exp(min(x, 0)) -
    1)`` — so the fused and unfused encoder forwards agree bitwise on
    the numpy path.
    """
    if act == "relu":
        np.maximum(out, 0.0, out=out)
    elif act == "elu":
        np.copyto(out, np.where(out > 0,
                                out, np.exp(np.minimum(out, 0.0)) - 1.0))


def _apply_bias_act_inplace(out: np.ndarray, bias: Optional[np.ndarray],
                            act: Optional[str]) -> None:
    """Bias-add then activation, mutating ``out`` (a freshly-computed
    product the caller owns — never a caller-visible input)."""
    _check_act(act)
    if bias is not None:
        out += bias
    _apply_act_inplace(out, act)


class ArrayBackend:
    """Protocol for the dense/sparse kernels the autograd engine dispatches.

    The base class documents the surface; :class:`NumpyBackend` is the
    implementation.  A substitute subclasses it, overrides the kernels
    it changes, and is installed via :func:`set_backend` (process-wide)
    or ``with use_backend(...)`` (scoped).  All methods take and return
    numpy-compatible arrays so a substitute never touches the layers
    above.  See ``docs/backends.md``.

    >>> class NegatingBackend(NumpyBackend):
    ...     name = "negating"
    ...     def matmul(self, a, b):
    ...         return -np.matmul(a, b)
    >>> with use_backend(NegatingBackend()):
    ...     float(get_backend().matmul(np.eye(2), np.eye(2))[0, 0])
    -1.0
    """

    #: Human-readable backend identifier (recorded in provenance).
    name = "abstract"

    # -- array creation -------------------------------------------------
    def asarray(self, data, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    def zeros(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    def ones(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    def full(self, shape, value, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    # -- dense kernels --------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense (possibly batched) matrix product."""
        raise NotImplementedError

    def bias_act(self, x: np.ndarray, bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None) -> np.ndarray:
        """Fused ``act(x + bias)`` epilogue (one elementwise pass).

        ``bias`` broadcasts over rows (or is ``None``); ``act`` is one of
        :data:`FUSED_ACTIVATIONS`.  The input is never mutated.  Numerics
        contract: bitwise-identical to the unfused ``x + bias`` followed
        by the reference activation.  Serves the inference-mode epilogue
        of layers whose main kernel is dense (GAT's head combination,
        SAGE's linear mix).
        """
        raise NotImplementedError

    # -- sparse kernels -------------------------------------------------
    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        """Sparse @ dense product; ``matrix`` is a constant operator."""
        raise NotImplementedError

    def spmm_bias_act(self, matrix: sp.spmatrix, dense: np.ndarray,
                      bias: Optional[np.ndarray] = None,
                      act: Optional[str] = None) -> np.ndarray:
        """Fused ``act(matrix @ dense + bias)`` — one pass over the CSR.

        The serving hot path of the GCN layer: the unfused form allocates
        an output per step (spmm, bias add, activation); the fused form
        finishes the epilogue in place on the spmm's fresh output.  Same
        numerics contract as :meth:`bias_act`: bitwise against the
        unfused reference.  ``act=None, bias=None`` degrades to
        :meth:`spmm`.
        """
        raise NotImplementedError

    def to_operator(self, matrix: sp.spmatrix,
                    dtype: Optional[DTypeLike] = None,
                    index_dtype: Optional[DTypeLike] = None) -> sp.csr_matrix:
        """Canonicalise a sparse matrix into this backend's operator form
        (CSR at the resolved element *and* index dtypes), copying only
        when necessary."""
        raise NotImplementedError

    # -- edge-path kernels (gather / scatter / segment softmax) ---------
    def gather_rows(self, source: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
        """``source[indices]`` — row gather along axis 0 (exact)."""
        raise NotImplementedError

    def scatter_add_rows(self, source: np.ndarray, indices: np.ndarray,
                         num_rows: int) -> np.ndarray:
        """Rows of ``source`` summed into ``num_rows`` output rows:
        ``out[indices[e]] += source[e]``.  Each output row starts from
        zero and adds its rows **in edge order** (ascending ``e``), so
        the result is bitwise-defined whatever kernel a backend runs
        (save which NaN survives where two different NaNs meet)."""
        raise NotImplementedError

    def segment_softmax(self, scores: np.ndarray, segments: np.ndarray,
                        num_segments: int) -> np.ndarray:
        """Stable softmax of 1-D ``scores`` normalised within each
        segment: per-segment max subtraction, exp, per-segment sum (in
        edge order) and a ``1e-16`` denominator guard at the scores'
        dtype.  Backends may fuse the passes; only the transcendental may
        differ (by ulps), never the accumulation order."""
        raise NotImplementedError

    # -- randomness -----------------------------------------------------
    def rng(self, seed: int) -> np.random.Generator:
        """A fresh seeded generator for parameter init / sampling."""
        raise NotImplementedError


class NumpyBackend(ArrayBackend):
    """The default backend: NumPy dense kernels + SciPy sparse kernels."""

    name = "numpy"

    def asarray(self, data, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.asarray(data, dtype=resolve_dtype(dtype))

    def zeros(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.zeros(shape, dtype=resolve_dtype(dtype))

    def ones(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.ones(shape, dtype=resolve_dtype(dtype))

    def full(self, shape, value, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.full(shape, value, dtype=resolve_dtype(dtype))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)

    def bias_act(self, x: np.ndarray, bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None) -> np.ndarray:
        _check_act(act)
        if bias is not None:
            x = x + bias                   # fresh array; finish in place
            _apply_act_inplace(x, act)
            return x
        if act == "relu":
            return np.maximum(x, 0.0)
        if act == "elu":
            return np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0)
        return x

    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        return matrix @ dense

    def spmm_bias_act(self, matrix: sp.spmatrix, dense: np.ndarray,
                      bias: Optional[np.ndarray] = None,
                      act: Optional[str] = None) -> np.ndarray:
        out = matrix @ dense               # fresh array; epilogue in place
        _apply_bias_act_inplace(out, bias, act)
        return out

    def to_operator(self, matrix: sp.spmatrix,
                    dtype: Optional[DTypeLike] = None,
                    index_dtype: Optional[DTypeLike] = None) -> sp.csr_matrix:
        target = resolve_dtype(dtype)
        operator = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
        if operator.dtype != target:
            operator = operator.astype(target)
        return _canonicalise_operator_indices(
            operator, resolve_index_dtype(index_dtype))

    def gather_rows(self, source: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
        return source[indices]

    def scatter_add_rows(self, source: np.ndarray, indices: np.ndarray,
                         num_rows: int) -> np.ndarray:
        if source.ndim == 2 and source.dtype in _POOLABLE:
            # One 0/1 pooling product: COO->CSR keeps the input order
            # within a row and the CSR kernel adds into zeros in that
            # order, ``1.0 * x`` being exact — the edge-order sum,
            # without the unbuffered ``ufunc.at`` loop.  1-D sources
            # stay on ``np.add.at``, which is faster there.
            m = source.shape[0]
            pool = sp.csr_matrix(
                (np.ones(m, dtype=source.dtype), (indices, np.arange(m))),
                shape=(num_rows, m))
            return pool @ source
        out = np.zeros((num_rows,) + source.shape[1:], dtype=source.dtype)
        np.add.at(out, indices, source)
        return out

    def segment_softmax(self, scores: np.ndarray, segments: np.ndarray,
                        num_segments: int) -> np.ndarray:
        seg_max = np.full(num_segments, -np.inf, dtype=scores.dtype)
        np.maximum.at(seg_max, segments, scores)
        seg_max[~np.isfinite(seg_max)] = 0.0
        exp = np.exp(scores - seg_max[segments])
        denom = np.zeros(num_segments, dtype=scores.dtype)
        np.add.at(denom, segments, exp)
        return exp / (denom + scores.dtype.type(1e-16))[segments]

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)


#: Source dtypes :meth:`NumpyBackend.scatter_add_rows` pools as a CSR
#: product (SciPy's sparse kernels have no float16).
_POOLABLE = (np.dtype(np.float32), np.dtype(np.float64))


def _canonicalise_operator_indices(operator: sp.csr_matrix,
                                   index_dtype: np.dtype) -> sp.csr_matrix:
    """CSR with ``indices``/``indptr`` at ``index_dtype``, sharing data.

    Falls back to int64 when the matrix genuinely needs it (shape or nnz
    beyond the int32 range) — correctness beats bandwidth.  Never mutates
    the input: a fresh container shares the data array and casts only the
    structure arrays that differ.
    """
    index_dtype = index_dtype_for(max(max(operator.shape), operator.nnz),
                                  index_dtype)
    if (operator.indices.dtype == index_dtype
            and operator.indptr.dtype == index_dtype):
        return operator
    recast = sp.csr_matrix(operator.shape, dtype=operator.dtype)
    recast.data = operator.data
    recast.indices = operator.indices.astype(index_dtype, copy=False)
    recast.indptr = operator.indptr.astype(index_dtype, copy=False)
    return recast


#: Process-wide default backend (shared across threads, like the
#: precision default); ``use_backend`` overrides are per-thread.
_PROCESS_DEFAULT_BACKEND: ArrayBackend = NumpyBackend()


class _BackendState(threading.local):
    """Per-thread stack of scoped ``use_backend(...)`` overrides."""

    def __init__(self):
        self.stack = []


_BACKEND_STATE = _BackendState()


def get_backend() -> ArrayBackend:
    """The active backend (innermost ``use_backend`` context wins,
    falling back to the process-wide default)."""
    stack = _BACKEND_STATE.stack
    return stack[-1] if stack else _PROCESS_DEFAULT_BACKEND


def _check_backend(backend: ArrayBackend) -> ArrayBackend:
    if not isinstance(backend, ArrayBackend):
        raise TypeError(
            f"expected an ArrayBackend instance, got "
            f"{type(backend).__name__}")
    return backend


def set_backend(backend: ArrayBackend) -> None:
    """Install a backend instance as the process-wide default (all
    threads)."""
    global _PROCESS_DEFAULT_BACKEND
    _PROCESS_DEFAULT_BACKEND = _check_backend(backend)


@contextlib.contextmanager
def use_backend(backend: ArrayBackend) -> Iterator[ArrayBackend]:
    """Scoped backend override: ``with use_backend(NumpyBackend()): ...``."""
    _BACKEND_STATE.stack.append(_check_backend(backend))
    try:
        yield backend
    finally:
        _BACKEND_STATE.stack.pop()
