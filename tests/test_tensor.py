"""Unit tests for the autograd Tensor: every op's forward values and exact
gradients against central finite differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, as_tensor, no_grad, is_grad_enabled, zeros, ones, full

from helpers import gradcheck, gradcheck_multi


class TestConstruction:
    def test_wraps_arrays_as_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_preserves_float32(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_factories(self):
        assert zeros(2, 3).shape == (2, 3)
        assert ones(4).data.sum() == 4.0
        assert full((2, 2), 7.0).data[0, 0] == 7.0

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_item(self):
        assert Tensor([[3.5]]).item() == 3.5

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4
        assert t.size == 8


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_shape_check(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward(np.ones(3))

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 3).backward(np.ones(1))
        (t * 3).backward(np.ones(1))
        np.testing.assert_allclose(t.grad, [6.0])

    def test_diamond_graph_gradient(self):
        # y = x*x + x*x must give dy/dx = 4x (shared subexpression).
        x = Tensor([3.0], requires_grad=True)
        a = x * x
        y = a + a
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_disables_taping(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # A serving thread inside no_grad must not stop this thread taping.
        import threading

        entered, release = threading.Event(), threading.Event()

        def serve():
            with no_grad():
                entered.set()
                release.wait(5.0)

        worker = threading.Thread(target=serve)
        worker.start()
        try:
            assert entered.wait(5.0)
            assert is_grad_enabled()
            x = Tensor([1.0], requires_grad=True)
            assert x.requires_grad
            assert (x * 2).requires_grad
        finally:
            release.set()
            worker.join()
        assert is_grad_enabled()

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).backward(np.ones(1))
        t.zero_grad()
        assert t.grad is None


class TestArithmeticGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.a = self.rng.normal(size=(3, 4))
        self.b = self.rng.normal(size=(3, 4)) + 2.5  # keep away from 0 for div

    def test_add(self):
        gradcheck_multi(lambda x, y: x + y, self.a, self.b)

    def test_add_broadcast(self):
        gradcheck_multi(lambda x, y: x + y, self.a, self.rng.normal(size=(4,)))

    def test_sub(self):
        gradcheck_multi(lambda x, y: x - y, self.a, self.b)

    def test_rsub_scalar(self):
        gradcheck(lambda x: 1.0 - x, self.a)

    def test_mul(self):
        gradcheck_multi(lambda x, y: x * y, self.a, self.b)

    def test_mul_broadcast_column(self):
        gradcheck_multi(lambda x, y: x * y, self.a,
                        self.rng.normal(size=(3, 1)))

    def test_div(self):
        gradcheck_multi(lambda x, y: x / y, self.a, self.b)

    def test_rdiv_scalar(self):
        gradcheck(lambda x: 2.0 / x, self.b)

    def test_neg(self):
        gradcheck(lambda x: -x, self.a)

    def test_pow(self):
        gradcheck(lambda x: x ** 3, self.a)
        gradcheck(lambda x: x ** 0.5, np.abs(self.a) + 1.0)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestMatmulGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(1)

    def test_2d_2d(self):
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(4, 5))
        gradcheck_multi(lambda x, y: x.matmul(y), a, b)

    def test_1d_1d_dot(self):
        a = self.rng.normal(size=(6,))
        b = self.rng.normal(size=(6,))
        gradcheck_multi(lambda x, y: x.matmul(y), a, b)

    def test_2d_1d(self):
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(4,))
        gradcheck_multi(lambda x, y: x.matmul(y), a, b)

    def test_1d_2d(self):
        a = self.rng.normal(size=(4,))
        b = self.rng.normal(size=(4, 3))
        gradcheck_multi(lambda x, y: x.matmul(y), a, b)

    def test_batched(self):
        a = self.rng.normal(size=(5, 3, 4))
        b = self.rng.normal(size=(5, 4, 2))
        gradcheck_multi(lambda x, y: x.matmul(y), a, b)

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose((a @ b).data, 2 * np.eye(2))


class TestReductionGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(2)
        self.a = self.rng.normal(size=(4, 5))

    def test_sum_all(self):
        gradcheck(lambda x: x.sum(), self.a)

    def test_sum_axis(self):
        gradcheck(lambda x: x.sum(axis=0), self.a)
        gradcheck(lambda x: x.sum(axis=1, keepdims=True), self.a)

    def test_mean(self):
        gradcheck(lambda x: x.mean(), self.a)
        gradcheck(lambda x: x.mean(axis=1), self.a)

    def test_max_unique(self):
        # Distinct entries avoid tie-splitting ambiguity vs finite diffs.
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        gradcheck(lambda x: x.max(), a)
        gradcheck(lambda x: x.max(axis=0), a)

    def test_max_tie_splits_gradient(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_min(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        gradcheck(lambda x: x.min(axis=1), a)

    @pytest.mark.parametrize("reduce", ["sum", "max", "mean"])
    def test_full_reduction_keeps_float32(self, reduce):
        """A full reduction of float32 data stays float32 (forward and
        gradient) even under the float64 policy: numpy hands back a 0-d
        scalar, which must not adopt the ambient width."""
        from repro.nn.backend import precision

        with precision("float64"):
            x = Tensor(self.a.astype(np.float32), requires_grad=True)
            out = getattr(x, reduce)()
            assert out.data.dtype == np.float32
            out.backward()
            assert x.grad.dtype == np.float32


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(3)
        self.a = self.rng.normal(size=(3, 4))

    def test_exp(self):
        gradcheck(lambda x: x.exp(), self.a)

    def test_log(self):
        gradcheck(lambda x: x.log(), np.abs(self.a) + 0.5)

    def test_sigmoid(self):
        gradcheck(lambda x: x.sigmoid(), self.a)

    def test_sigmoid_extreme_values_stable(self):
        out = Tensor([1000.0, -1000.0]).sigmoid()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    @given(data=st.data(), dtype=st.sampled_from(["float32", "float64"]))
    @settings(max_examples=150, deadline=None)
    def test_sigmoid_bitwise_equals_three_exp_formula(self, data, dtype):
        # The one-exp form must reproduce the former
        # where(x >= 0, 1/(1+e), e/(1+e)) with e = exp(-|x|), which
        # evaluated e three times, bit for bit at either width.
        width = 32 if dtype == "float32" else 64
        values = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                                       101.0, -101.0, 1e4, -1e4]),
                      st.floats(width=width)),
            min_size=1, max_size=40))
        x = np.array(values, dtype=dtype)
        e = np.exp(-np.abs(x))
        expected = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            e / (1.0 + np.exp(-np.abs(x))))
        out = Tensor(x).sigmoid().data
        assert out.dtype == np.dtype(dtype) == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_tanh(self):
        gradcheck(lambda x: x.tanh(), self.a)

    def test_relu(self):
        # Keep inputs away from the kink at 0.
        a = self.a.copy()
        a[np.abs(a) < 0.1] = 0.5
        gradcheck(lambda x: x.relu(), a)

    def test_abs(self):
        a = self.a.copy()
        a[np.abs(a) < 0.1] = 0.5
        gradcheck(lambda x: x.abs(), a)

    def test_sqrt(self):
        gradcheck(lambda x: x.sqrt(), np.abs(self.a) + 1.0)

    def test_clip(self):
        a = np.linspace(-2, 2, 12).reshape(3, 4) + 0.013  # avoid boundaries
        gradcheck(lambda x: x.clip(-1.0, 1.0), a)


class TestShapeGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(4)
        self.a = self.rng.normal(size=(2, 3, 4))

    def test_reshape(self):
        gradcheck(lambda x: x.reshape(6, 4), self.a)
        gradcheck(lambda x: x.reshape(-1), self.a)

    def test_transpose_default(self):
        gradcheck(lambda x: x.T, self.rng.normal(size=(3, 5)))

    def test_transpose_axes(self):
        gradcheck(lambda x: x.transpose(1, 0, 2), self.a)

    def test_swapaxes(self):
        gradcheck(lambda x: x.swapaxes(0, 2), self.a)

    def test_squeeze_unsqueeze(self):
        gradcheck(lambda x: x.unsqueeze(1), self.rng.normal(size=(3, 4)))
        gradcheck(lambda x: x.squeeze(0), self.rng.normal(size=(1, 5)))

    def test_getitem_slice(self):
        gradcheck(lambda x: x[1:, :2], self.rng.normal(size=(4, 4)))

    def test_getitem_fancy_repeats_accumulate(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        x[np.array([0, 2, 0])].sum().backward()
        np.testing.assert_array_equal(x.grad, [[2, 2], [0, 0], [1, 1]])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_getitem_basic_backward_matches_add_at(self, data):
        """The basic-index backward (a plain store) is bitwise the
        np.add.at scatter it replaces."""
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1,
                                         max_size=3)))

        def part(size):
            return st.one_of(
                st.integers(-size, size - 1),
                st.builds(slice, st.none() | st.integers(-size, size),
                          st.none() | st.integers(-size, size),
                          st.none() | st.integers(1, 2).map(
                              lambda step: step * data.draw(
                                  st.sampled_from([1, -1])))))

        parts = [data.draw(part(size)) for size in shape]
        start = data.draw(st.integers(0, len(parts)))
        stop = data.draw(st.integers(start, len(parts)))
        if data.draw(st.booleans()):    # an Ellipsis spans parts[start:stop]
            parts[start:stop] = [Ellipsis]
        else:                           # trailing axes are left implicit
            parts = parts[:max(stop, 1)]
        if data.draw(st.booleans()):
            parts.insert(data.draw(st.integers(0, len(parts))), None)
        index = tuple(parts) if len(parts) > 1 or data.draw(
            st.booleans()) else parts[0]
        values = np.random.default_rng(0).normal(size=shape)
        x = Tensor(values, requires_grad=True)
        out = x[index]
        grad = np.random.default_rng(1).normal(size=out.data.shape)
        out.backward(grad)
        reference = np.zeros_like(values)
        np.add.at(reference, index, grad)
        assert x.grad.tobytes() == reference.tobytes()

    def test_take_rows_with_repeats(self):
        index = np.array([0, 2, 2, 1])
        gradcheck(lambda x: x.take_rows(index), self.rng.normal(size=(3, 4)))

    def test_take_rows_forward(self):
        t = Tensor(np.arange(6).reshape(3, 2))
        out = t.take_rows(np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4, 5], [0, 1]])
