"""Which parameter gradients a white-box attack leaves behind.

Against a model in eval mode the attack backward is restricted to the
input (``backward(inputs=(x,))``), so no parameter's ``.grad`` is touched.
In train mode the backward also accumulates parameter gradients, exactly
as a plain ``loss.backward()`` per step does: the trainers zero gradients
*before* the attack, so those gradients are part of their update.
"""

import numpy as np

from repro.attacks import BIM, Attack, DeepFool
from repro.autograd import Tensor
from repro.models import build_model
from repro.nn import cross_entropy

_RNG = np.random.default_rng(11)
_X = np.clip(_RNG.random((6, 1, 28, 28)), 0.05, 0.95)
_Y = np.array([0, 1, 2, 3, 4, 5])


def _model(training):
    model = build_model("small_cnn", seed=0)
    model.train(training)
    return model


def test_eval_mode_bim_leaves_param_grads_none():
    model = _model(False)
    adv = BIM(model, 0.1, num_steps=4).generate(_X.copy(), _Y)
    assert not np.array_equal(adv, _X)
    assert all(p.grad is None for p in model.parameters())


def test_eval_mode_input_gradient_and_deepfool():
    model = _model(False)
    grad = Attack(model).input_gradient(_X, _Y)
    DeepFool(model, max_steps=2).generate(_X[:2].copy(), _Y[:2])
    assert np.abs(grad).sum() > 0
    assert all(p.grad is None for p in model.parameters())


def test_eval_mode_input_gradient_matches_full_backward():
    model = _model(False)
    x = Tensor(_X.copy(), requires_grad=True)
    cross_entropy(model(x), _Y).backward()
    model.zero_grad()
    attack = Attack(model)
    for _ in range(2):
        assert np.array_equal(attack.input_gradient(_X, _Y), x.grad)


def test_train_mode_bim_keeps_param_grads():
    """Pins what the trainers rely on: the attack's parameter gradients
    equal one plain full backward per step, accumulated in step order."""
    steps = 4
    model = _model(True)
    iterates = BIM(model, 0.1, num_steps=steps).generate_with_intermediates(
        _X.copy(), _Y
    )
    reference = _model(True)
    for x_step in [_X] + iterates[:-1]:
        x_t = Tensor(x_step.copy(), requires_grad=True)
        cross_entropy(reference(x_t), _Y).backward()
    for got, want in zip(model.parameters(), reference.parameters()):
        assert got.grad is not None
        assert np.array_equal(got.grad, want.grad)
