"""The experiment pipeline must also work with the ConvNet models.

The headline benchmarks use the MLP for speed; these tests pin that the
same pipeline runs end-to-end with the CNN architectures (the paper's
model family), so a full-fidelity CNN rerun is a config change away.
"""

import pytest

from repro.autograd.ops_nn import Conv2d, MatMul
from repro.data import DataLoader
from repro.eval import RobustnessEvaluator
from repro.experiments import ClassifierPool, smoke_scale


@pytest.fixture(scope="module")
def cnn_pool():
    config = smoke_scale("digits", epochs=3, warmup_epochs=1).with_overrides(
        model="small_cnn"
    )
    return ClassifierPool(config)


class TestCnnPipeline:
    def test_trains_proposed_defense(self, cnn_pool):
        defense = cnn_pool.get("proposed")
        assert defense.time_per_epoch > 0

    def test_evaluates_paper_suite(self, cnn_pool):
        defense = cnn_pool.get("proposed")
        suite = RobustnessEvaluator.paper_suite(cnn_pool.epsilon)
        results = suite.evaluate(
            defense.model, cnn_pool.test_x, cnn_pool.test_y
        )
        assert set(results) == {"original", "fgsm", "bim10", "bim30"}

    def test_cnn_costs_more_than_mlp(self, monkeypatch):
        """The paper's CNN costs more per training batch than the MLP.

        Counted as forward multiply-adds per batch rather than timed, so
        CPU contention cannot flake it.  ``small_cnn`` is not compared: it
        is a test-speed CNN with fewer multiply-adds than the MLP.
        """
        macs = {"n": 0}
        matmul, conv = MatMul.forward, Conv2d.forward

        def counting_matmul(ctx, a, b):
            macs["n"] += a.size * b.shape[-1]
            return matmul(ctx, a, b)

        def counting_conv(ctx, x, weight, *args, **kwargs):
            out = conv(ctx, x, weight, *args, **kwargs)
            macs["n"] += out.size * weight[0].size
            return out

        monkeypatch.setattr(MatMul, "forward", staticmethod(counting_matmul))
        monkeypatch.setattr(Conv2d, "forward", staticmethod(counting_conv))

        def macs_per_batch(model):
            config = smoke_scale(
                "digits", epochs=2, warmup_epochs=1
            ).with_overrides(model=model)
            pool = ClassifierPool(config)
            macs["n"] = 0
            pool.get("vanilla")
            loader = DataLoader(pool.train_set, batch_size=config.batch_size)
            return macs["n"] / (len(loader) * config.epochs)

        assert macs_per_batch("mnist_cnn") > macs_per_batch("mnist_mlp") > 0
