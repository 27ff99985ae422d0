"""Reverse-mode automatic differentiation over numpy arrays.

This module is the numerical core of the repository: a small, exact,
tape-based autograd engine in the spirit of PyTorch's eager autograd.  Every
learned model in the reproduction (CGNP and all learned baselines) trains
through :class:`Tensor`.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (created in the ambient
  :mod:`~repro.nn.backend` precision-policy dtype — ``float64`` by
  default, for numerically-tight gradient checks) plus an optional
  gradient and a closure that propagates an upstream gradient to its
  parents.  Dense matmuls dispatch through the active
  :class:`~repro.nn.backend.ArrayBackend`.
* ``backward()`` runs a topological sort of the recorded graph and applies
  each node's vector-Jacobian product exactly once.
* Broadcasting in forward ops is undone in backward by
  :func:`_unbroadcast`, so gradients always match the parent's shape.
* A per-thread switch (:func:`no_grad`) disables taping, which the
  inference paths use to avoid building graphs; a serving thread's
  ``no_grad`` never stops another thread from training.

The op surface is intentionally small but complete for graph neural
networks: arithmetic with broadcasting, (batched) matmul, reductions,
row gathering / fancy indexing, elementwise nonlinearities, and shape ops.
Sparse message passing lives in :mod:`repro.nn.sparse`; the remaining
functional ops in :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import as_index_array, get_backend, resolve_dtype

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "zeros",
    "ones",
    "full",
]

Number = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Number, Sequence]


class _GradMode(threading.local):
    """Per-thread grad mode: every thread starts with taping on."""

    def __init__(self):
        self.enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient taping.

    Inside the block, newly created tensors never require gradients and no
    backward closures are recorded, mirroring ``torch.no_grad``.  The
    switch is per thread: other threads keep taping.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for backward
    (in the calling thread)."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape``.

    Numpy broadcasting can expand a parent operand along new leading axes or
    along axes of size one; the VJP must sum over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away broadcasted leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original operand.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy *basic* indexing (ints, slices,
    ``Ellipsis``, ``None`` or a tuple of these), which never selects an
    element twice.  Booleans and arrays are advanced indexing."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is None or part is Ellipsis or isinstance(part, slice)
        or (isinstance(part, (int, np.integer))
            and not isinstance(part, (bool, np.bool_)))
        for part in parts)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.  Floating arrays keep their
        dtype; integers and Python scalars are promoted to the ambient
        :func:`~repro.nn.backend.resolve_dtype` policy dtype.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    dtype:
        Explicit element dtype.  When given, the data is cast to it
        regardless of the input dtype — the entry-point cast model code
        uses to pin features to the model's own precision.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = "",
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if dtype is not None:
            target = resolve_dtype(dtype)
            if array.dtype != target:
                array = array.astype(target)
        elif array.dtype.kind != "f":
            array = array.astype(resolve_dtype())
        elif not isinstance(data, np.ndarray):
            # Python scalars/lists adopt the policy dtype (np.asarray
            # makes them float64 regardless); only explicit ndarrays keep
            # their own width, so e.g. the `loss * (1.0 / n)` scaling in
            # a float32 forward never upcasts the graph to float64.
            target = resolve_dtype()
            if array.dtype != target:
                array = array.astype(target)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_MODE.enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy, detached from the graph)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Differentiable element-width cast; gradients cast back."""
        target = resolve_dtype(dtype)
        if self.data.dtype == target:
            return self
        out_data = self.data.astype(target)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.astype(self.data.dtype))

        return Tensor._make(out_data, (self,), backward)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data and the same ``requires_grad``."""
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a non-leaf tensor, recording the tape if grad is enabled."""
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        if isinstance(data, np.generic):
            # A full reduction or 0-d arithmetic yields a numpy scalar,
            # which the constructor would recast to the policy dtype; a
            # 0-d array keeps the width the op computed at.
            data = np.asarray(data)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def _accumulate(tensor: "Tensor", grad: np.ndarray) -> None:
        """Add ``grad`` into ``tensor.grad`` after un-broadcasting."""
        if not tensor.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad), tensor.data.shape)
        if tensor.grad is None:
            tensor.grad = grad.copy()
        else:
            tensor.grad = tensor.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ones, which is the usual choice
            for scalar losses.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _operand(self, other: TensorLike) -> "Tensor":
        """Coerce the other operand of a binary op.

        Python scalars/lists adopt THIS tensor's dtype (mirroring numpy's
        value-based scalar promotion) rather than the ambient policy, so
        ``x + 1e-16`` on a float32 ``x`` stays float32 even when the
        ambient default is float64 — the case of a float32-serving model
        running inside a float64 process.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, np.ndarray):
            return Tensor(other)
        return Tensor(other, dtype=self.data.dtype)

    def __add__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad)
            Tensor._accumulate(other, grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, -grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad)
            Tensor._accumulate(other, -grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._operand(other).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * other.data)
            Tensor._accumulate(other, grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad / other.data)
            Tensor._accumulate(other, -grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._operand(other).__truediv__(self)

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: TensorLike) -> "Tensor":
        """Matrix product supporting 1-D, 2-D and batched (>2-D) operands.

        Forward and both VJPs dispatch through the active
        :class:`~repro.nn.backend.ArrayBackend`.
        """
        other = as_tensor(other)
        xp = get_backend()
        out_data = xp.matmul(self.data, other.data)
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            # Each operand's VJP can be a large matmul of its own, so skip
            # it outright when that operand does not require grad (e.g. the
            # constant input-feature matrix of a first GNN layer).
            a_data, b_data = a.data, b.data
            if a_data.ndim == 1 and b_data.ndim == 1:
                # dot product: grad is scalar
                if a.requires_grad:
                    Tensor._accumulate(a, grad * b_data)
                if b.requires_grad:
                    Tensor._accumulate(b, grad * a_data)
                return
            if a_data.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                if a.requires_grad:
                    ga = xp.matmul(b_data, np.expand_dims(grad, -1)).squeeze(-1)
                    Tensor._accumulate(a, ga)
                if b.requires_grad:
                    gb = np.expand_dims(a_data, -1) * np.expand_dims(grad, -2)
                    Tensor._accumulate(b, gb)
                return
            if b_data.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                if a.requires_grad:
                    ga = np.expand_dims(grad, -1) * b_data
                    Tensor._accumulate(a, ga)
                if b.requires_grad:
                    gb = xp.matmul(np.swapaxes(a_data, -1, -2),
                                   np.expand_dims(grad, -1))
                    Tensor._accumulate(b, gb.squeeze(-1))
                return
            if a.requires_grad:
                Tensor._accumulate(a, xp.matmul(grad, np.swapaxes(b_data, -1, -2)))
            if b.requires_grad:
                Tensor._accumulate(b, xp.matmul(np.swapaxes(a_data, -1, -2), grad))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            Tensor._accumulate(self, np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; ties split gradient evenly among the argmaxes."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (self.data == out).astype(self.data.dtype)
            mask_sum = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            Tensor._accumulate(self, g * mask / mask_sum)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise transcendental
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def sigmoid(self) -> "Tensor":
        # Numerically-stable logistic: never exponentiates a positive number.
        x = self.data
        e = np.exp(-np.abs(x))
        out_data = np.where(x >= 0, 1.0, e) / (1.0 + e)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            inside = (self.data >= low) & (self.data <= high)
            Tensor._accumulate(self, grad * inside)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = np.transpose(self.data, axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis=axis)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        """Differentiable indexing (slices, integer arrays, masks)."""
        out_data = self.data[index]
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            full_grad = np.zeros_like(self.data)
            if basic:
                # A basic index selects each element at most once, so a
                # plain store equals the (much slower) unbuffered scatter.
                full_grad[index] = grad
            else:
                np.add.at(full_grad, index, grad)
            Tensor._accumulate(self, full_grad)

        return Tensor._make(out_data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows along axis 0 (repeated indices are supported).

        Forward (gather) and backward (scatter-add of the upstream
        gradient) dispatch through the active
        :class:`~repro.nn.backend.ArrayBackend`.
        """
        indices = as_index_array(indices)
        xp = get_backend()
        out_data = xp.gather_rows(self.data, indices)

        def backward(grad: np.ndarray) -> None:
            Tensor._accumulate(
                self, xp.scatter_add_rows(grad, indices, self.data.shape[0]))

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value: TensorLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy for existing tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(get_backend().zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(get_backend().ones(shape), requires_grad=requires_grad)


def full(shape: Iterable[int], value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(get_backend().full(tuple(shape), value),
                  requires_grad=requires_grad)
