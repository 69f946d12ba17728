"""Tests for the autograd engine core (Tensor, Function, backward)."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    as_tensor,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)


class TestTensorBasics:
    def test_wraps_numpy_array(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert t.dtype == np.float64

    def test_wraps_nested_tensor(self):
        inner = Tensor([1.0, 2.0])
        outer = Tensor(inner)
        assert np.array_equal(outer.data, inner.data)

    def test_requires_grad_defaults_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError, match="floating point"):
            Tensor(np.array([1, 2]), requires_grad=True)

    def test_item_on_scalar(self):
        assert Tensor([3.5]).item() == 3.5

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3.0).detach()
        assert not y.requires_grad
        assert y._ctx is None

    def test_copy_is_deep(self):
        x = Tensor([1.0, 2.0])
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0

    def test_astype(self):
        x = Tensor([1.0])
        assert x.astype(np.float32).dtype == np.float32

    def test_transpose_property(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.T.shape == (3, 2)


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [4.0, 6.0])

    def test_backward_requires_grad_flag(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError, match="does not require grad"):
            x.backward()

    def test_non_scalar_needs_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError, match="non-scalar"):
            y.backward()

    def test_explicit_grad_shape_checked(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError, match="shape"):
            y.backward(np.ones(3))

    def test_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        assert np.allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates(self):
        # y = x*2, z = x*3, out = y + z -> d out / dx = 5
        x = Tensor([1.0], requires_grad=True)
        out = (x * 2.0 + x * 3.0).sum()
        out.backward()
        assert np.allclose(x.grad, [5.0])

    def test_reused_tensor_in_one_expression(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x * x).sum().backward()  # d/dx x^3 = 3x^2
        assert np.allclose(x.grad, [27.0])

    def test_deep_chain_does_not_recurse(self):
        # 5000 sequential ops would blow Python's recursion limit if the
        # topological sort were recursive.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])

    def test_constant_branch_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])  # no grad
        (x * c).sum().backward()
        assert c.grad is None
        assert np.allclose(x.grad, [2.0])


class TestBackwardInputs:
    """``backward(inputs=...)``: only the listed leaves get ``.grad``."""

    def _cnn_loss(self, x):
        from repro.models import mnist_cnn
        from repro.nn import cross_entropy

        model = mnist_cnn(seed=0)
        return model, cross_entropy(model(x), np.array([1, 7, 3]))

    def _batch(self):
        return np.random.default_rng(0).uniform(0, 1, size=(3, 1, 28, 28))

    def test_only_listed_leaves_get_grad(self):
        x = Tensor(self._batch(), requires_grad=True)
        model, loss = self._cnn_loss(x)
        loss.backward(inputs=(x,))
        assert x.grad is not None
        assert all(p.grad is None for p in model.parameters())

    def test_listed_parameter_without_input(self):
        x = Tensor(self._batch(), requires_grad=True)
        model, loss = self._cnn_loss(x)
        head = model.head.weight
        loss.backward(inputs=[head])
        assert x.grad is None
        assert head.grad is not None
        others = [p for p in model.parameters() if p is not head]
        assert all(p.grad is None for p in others)

    def test_input_grad_bitwise_equal_to_full_backward(self):
        data = self._batch()
        x_full = Tensor(data, requires_grad=True)
        self._cnn_loss(x_full)[1].backward()
        x_only = Tensor(data, requires_grad=True)
        self._cnn_loss(x_only)[1].backward(inputs=(x_only,))
        assert np.array_equal(x_only.grad, x_full.grad)

    def test_graph_keeps_its_masks(self):
        # The narrowing is per call: a later full backward of a graph that
        # keeps no consumed state still reaches every leaf.
        x = Tensor([2.0], requires_grad=True)
        w = Tensor([3.0], requires_grad=True)
        out = (x * w).sum()
        out.backward(inputs=[x])
        assert w.grad is None
        assert np.allclose(x.grad, [3.0])
        out.backward()
        assert np.allclose(x.grad, [6.0])
        assert np.allclose(w.grad, [2.0])

    def test_gradients_an_op_returns_anyway_are_dropped(self):
        # An op whose backward ignores ctx.needs() still must not reach
        # leaves outside ``inputs``.
        from repro.autograd import Function

        class Product(Function):
            @staticmethod
            def forward(ctx, a, b):
                ctx.save_for_backward(a, b)
                return a * b

            @staticmethod
            def backward(ctx, grad_output):
                a, b = ctx.saved
                return grad_output * b, grad_output * a

        x = Tensor([2.0], requires_grad=True)
        w = Tensor([3.0], requires_grad=True)
        Product.apply(x, w).sum().backward(inputs=[x])
        assert np.allclose(x.grad, [3.0])
        assert w.grad is None

    def test_unreachable_input_stays_none(self):
        x = Tensor([1.0], requires_grad=True)
        other = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward(inputs=[other])
        assert x.grad is None and other.grad is None

    def test_rejects_non_leaf_and_constant_inputs(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError, match="leaf"):
            y.sum().backward(inputs=[y])
        with pytest.raises(ValueError, match="requiring grad"):
            y.sum().backward(inputs=[Tensor([1.0])])


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._ctx is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_set_grad_enabled(self):
        set_grad_enabled(False)
        try:
            x = Tensor([1.0], requires_grad=True)
            assert (x * 2)._ctx is None
        finally:
            set_grad_enabled(True)


class TestAsTensor:
    def test_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_promotes_int_to_float(self):
        t = as_tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)

    def test_scalar(self):
        assert as_tensor(2.5).item() == 2.5

    def test_dtype_cast(self):
        t = as_tensor(np.ones(3, dtype=np.float64), dtype=np.float32)
        assert t.dtype == np.float32
