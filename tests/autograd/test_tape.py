"""Compiled tape engine: bit-exact replay, guards, fusion, fallbacks.

The contract under test is the one ``docs/compiled.md`` documents: a
replayed :class:`CompiledStep` is **bit-for-bit** identical to eager
execution — outputs, requested input gradients and parameter ``.grad``
side effects — and anything the tape cannot replay faithfully falls back
to eager, transparently.
"""

import numpy as np
import pytest

from repro.autograd import CompiledStep, Tensor
from repro.models import MODEL_BUILDERS, build_model
from repro.nn import BatchNorm1d, Dropout, cross_entropy
from repro.runtime import clear_workspace, get_workspace

_RNG = np.random.default_rng(3)
_X = _RNG.standard_normal((2, 1, 28, 28))
_Y = np.array([3, 7])


def _model_step(model):
    """A train-step body: forward + CE loss, loss first as required."""

    def step(x, y):
        logits = model(x)
        loss = cross_entropy(logits, y)
        return loss, logits

    return step


def _eager_reference(name):
    """Ground-truth eager step on a fresh model: loss, logits, grads."""
    model = build_model(name, seed=0)
    x = Tensor(_X.copy(), requires_grad=True)
    logits = model(x)
    loss = cross_entropy(logits, _Y)
    loss.backward()
    param_grads = [p.grad.copy() for p in model.parameters()]
    return loss.data.copy(), logits.data.copy(), x.grad.copy(), param_grads


# --------------------------------------------------------------------------
# Bit-exact equivalence
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_replay_bit_identical_to_eager(name):
    """Trace call and every replay match eager outputs/grads exactly."""
    ref_loss, ref_logits, ref_xgrad, ref_pgrads = _eager_reference(name)
    model = build_model(name, seed=0)
    step = CompiledStep(_model_step(model), grad_inputs=(0,))
    for call in range(3):
        model.zero_grad()
        result = step(_X.copy(), _Y.copy())
        assert np.array_equal(result.outputs[0], ref_loss), (name, call)
        assert np.array_equal(result.outputs[1], ref_logits), (name, call)
        assert np.array_equal(result.input_grads[0], ref_xgrad), (name, call)
        for param, ref in zip(model.parameters(), ref_pgrads):
            assert np.array_equal(param.grad, ref), (name, call)
    assert step.stats == {
        "traces": 1, "hits": 2, "variants": 1, "disabled": None,
    }


def test_consume_inputs_skips_param_grads():
    """consume=("inputs",) DCEs the parameter accumulation from the tape."""
    _, _, ref_xgrad, _ = _eager_reference("small_cnn")
    model = build_model("small_cnn", seed=0)
    step = CompiledStep(
        _model_step(model), grad_inputs=(0,), consume=("inputs",)
    )
    step(_X.copy(), _Y.copy())  # trace: eager backward(inputs=x)
    assert all(p.grad is None for p in model.parameters())
    result = step(_X.copy(), _Y.copy())
    assert step.stats["hits"] == 1
    assert np.array_equal(result.input_grads[0], ref_xgrad)
    assert all(p.grad is None for p in model.parameters())


def test_fusion_is_bitwise_transparent():
    """Fused elementwise chains replay bit-identically to unfused ones."""
    a = _RNG.standard_normal((16, 16))

    def body(x):
        # A linear single-consumer chain (relu -> neg -> sub -> mul) is
        # exactly what the fuser may collapse: every intermediate feeds
        # one op and the input has a single gradient contribution.
        u = (-(x.relu()) - 1.0) * 3.0
        return u.sum()

    results = {}
    for fuse in (False, True):
        step = CompiledStep(body, grad_inputs=(0,), fuse=fuse)
        step(a)  # trace
        results[fuse] = step(a)  # replay
        assert step.stats["hits"] == 1
        program = next(iter(step._variants.values()))
        kinds = {
            type(entry).__name__
            for entry in (
                tuple(program.forward_entries)
                + tuple(program.backward_entries)
            )
        }
        assert ("_FusedForward" in kinds) is fuse
        assert ("_FusedBackward" in kinds) is fuse
    for fused_v, plain_v in zip(
        results[True].outputs + results[True].input_grads,
        results[False].outputs + results[False].input_grads,
    ):
        assert np.array_equal(fused_v, plain_v)


# --------------------------------------------------------------------------
# Guards, variants, LRU
# --------------------------------------------------------------------------


def test_shape_and_dtype_changes_trace_new_variants():
    model = build_model("mnist_mlp", seed=0)
    step = CompiledStep(_model_step(model), grad_inputs=(0,))
    x2 = _RNG.standard_normal((2, 1, 28, 28))
    x3 = _RNG.standard_normal((3, 1, 28, 28))
    step(x2, np.array([0, 1]))
    step(x3, np.array([0, 1, 2]))           # new batch size -> new variant
    step(x2.astype(np.float32), np.array([0, 1]))  # new dtype -> new variant
    assert step.stats["traces"] == 3
    assert step.stats["variants"] == 3
    step(x2, np.array([4, 5]))              # same signature -> replay
    assert step.stats["hits"] == 1


def test_guard_token_invalidates_variant():
    token = {"mode": "train"}
    model = build_model("mnist_mlp", seed=0)
    step = CompiledStep(
        _model_step(model), grad_inputs=(0,),
        guard=lambda: token["mode"],
    )
    y = np.array([0, 1])
    step(_X, y)
    step(_X, y)
    assert step.stats == {
        "traces": 1, "hits": 1, "variants": 1, "disabled": None,
    }
    token["mode"] = "eval"
    step(_X, y)                             # guard changed -> retrace
    assert step.stats["traces"] == 2
    token["mode"] = "train"
    step(_X, y)                             # old variant still cached
    assert step.stats["hits"] == 2


def test_lru_evicts_oldest_variant():
    model = build_model("mnist_mlp", seed=0)
    step = CompiledStep(_model_step(model), grad_inputs=(0,), max_variants=2)
    for batch in (1, 2, 3):
        x = _RNG.standard_normal((batch, 1, 28, 28))
        step(x, np.arange(batch))
    assert step.stats["variants"] == 2
    step(_RNG.standard_normal((1, 1, 28, 28)), np.array([0]))  # evicted
    assert step.stats["traces"] == 4


def test_reset_releases_variants_and_reenables():
    model = build_model("mnist_mlp", seed=0)
    step = CompiledStep(_model_step(model), grad_inputs=(0,))
    step(_X, _Y)
    assert get_workspace().leased_bytes > 0 or step.stats["variants"] == 1
    step.reset()
    assert step.stats == {
        "traces": 0, "hits": 0, "variants": 0, "disabled": None,
    }


# --------------------------------------------------------------------------
# Eager fallbacks
# --------------------------------------------------------------------------


def test_dropout_falls_back_to_eager():
    """Fresh-RNG ops cannot replay: the step disables itself, stays correct."""
    drop = Dropout(rate=0.5, rng=11)
    dense_in = _RNG.standard_normal((4, 6))

    def body(x):
        return (drop(x) * x).sum()

    step = CompiledStep(body, grad_inputs=(0,))
    first = step(dense_in)
    assert step.stats["disabled"] is not None
    assert "replay" in step.stats["disabled"]
    assert step.stats["variants"] == 0
    second = step(dense_in)
    assert step.stats["hits"] == 0
    # Different dropout masks per call: both finite, both eager.
    assert np.isfinite(first.outputs[0]) and np.isfinite(second.outputs[0])
    assert first.input_grads[0].shape == dense_in.shape


def test_batchnorm_poisons_the_trace():
    """Out-of-graph running statistics discard the tape, not the result."""
    bn = BatchNorm1d(6)
    x = _RNG.standard_normal((8, 6))

    def body(inp):
        return (bn(inp) ** 2).sum()

    step = CompiledStep(body, grad_inputs=(0,))
    result = step(x)
    assert step.stats["disabled"] is not None
    assert "statistics" in step.stats["disabled"]
    # The fallen-back step still produced the eager result.
    eager_x = Tensor(x.copy(), requires_grad=True)
    loss = (bn(eager_x) ** 2).sum()
    loss.backward()
    assert result.input_grads[0].shape == x.shape
    assert np.isfinite(result.outputs[0])


def test_opaque_output_falls_back():
    """A step output computed outside the graph cannot be replayed."""

    def body(x):
        loss = (x * x).sum()
        return loss, np.asarray(loss.data) * 2.0  # constant to the tape

    step = CompiledStep(body, grad_inputs=(0,))
    step(_RNG.standard_normal((3, 3)))
    assert step.stats["disabled"] is not None
    assert "outside the autograd graph" in step.stats["disabled"]


# --------------------------------------------------------------------------
# Workspace discipline
# --------------------------------------------------------------------------


def test_replay_does_not_grow_the_workspace():
    """100 replays: leased bytes and pooled bytes stay flat."""
    clear_workspace()
    model = build_model("small_cnn", seed=0)
    step = CompiledStep(_model_step(model), grad_inputs=(0,))
    for _ in range(3):  # trace + settle the pool's steady state
        model.zero_grad()
        step(_X, _Y)
    pool = get_workspace()
    leased = pool.leased_bytes
    cached = pool.cached_bytes
    program = next(iter(step._variants.values()))
    lease_size = len(program.lease)
    for _ in range(100):
        model.zero_grad()
        step(_X, _Y)
    assert step.stats["hits"] >= 102
    assert pool.leased_bytes == leased
    assert pool.cached_bytes == cached
    assert len(program.lease) == lease_size
    assert all(v is None or isinstance(v, np.ndarray) for v in program.values)
