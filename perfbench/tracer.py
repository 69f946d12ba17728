"""Span tracing from outside the program.

:class:`Tracer` wraps the public entry points of every ``repro`` layer
(class attributes are swapped for timing wrappers while the tracer is
installed and restored afterwards).  Each wrapper call keeps one span in
memory — name, start, end, parent span and thread — and nothing else, so
the program's arithmetic is untouched.  :meth:`Tracer.write` dumps the
spans as JSON lines when the run ends, and :func:`self_times` turns them
into per-name self time: a span's duration minus the part covered by its
child spans.

Span names are ``<layer>.<what>``; the layer is the ``repro`` subpackage
whose entry point the span wraps.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

#: Autograd ops reported on their own; every other Function is "other".
OP_NAMES = {
    "Conv2d": "conv2d",
    "MaxPool2d": "maxpool2d",
    "ReLU": "relu",
    "MatMul": "matmul",
    "SoftmaxCrossEntropy": "loss",
}

_LIVE: "weakref.WeakSet[Tracer]" = weakref.WeakSet()
_FORK_HOOK = []


def _stop_in_child() -> None:
    # A forked worker inherits the installed wrappers; its spans could
    # never reach the parent's report, so it stops recording at once.
    for tracer in list(_LIVE):
        tracer.active = False


class Span:
    """One timed call of a wrapped entry point."""

    __slots__ = ("name", "parent", "thread", "start", "end", "extra")

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _TimedIterator:
    """Iterator proxy whose ``__next__`` is one ``data.next`` span."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call("data.next", self._inner.__next__)


class Tracer:
    """Record spans around ``repro``'s public entry points.

    Use as a context manager: entering installs the wrappers and starts
    recording, leaving stops and restores every original attribute.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._local = threading.local()
        self._patches: list = []
        _LIVE.add(self)
        if not _FORK_HOOK:
            os.register_at_fork(after_in_child=_stop_in_child)
            _FORK_HOOK.append(True)

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.get_ident()
        return stack

    def call(self, name: str, func: Callable, *args, extra=None, **kwargs):
        """Run ``func(*args, **kwargs)`` inside one span named ``name``."""
        if not self.active:
            return func(*args, **kwargs)
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self._local.thread)
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
        if extra is not None:
            span.extra = extra(span, args, result)
        return result

    # -- installation ---------------------------------------------------
    def wrap(self, owner, attr: str, name: str, extra=None, pre=None) -> None:
        """Swap ``owner.attr`` for a span-recording wrapper.

        ``extra(span, args, result)`` may attach a value to the span
        after the call; ``pre(args)`` computes one before it (for
        arguments the call consumes).
        """
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            if pre is None:
                return tracer.call(name, func, *args, extra=extra, **kwargs)
            value = pre(args)
            return tracer.call(
                name, func, *args, extra=lambda *_: value, **kwargs
            )

        wrapper.__name__ = getattr(func, "__name__", attr)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_defined(self, classes: Iterable[type], attr: str, name: str) -> None:
        """Wrap ``attr`` on each class that defines it itself."""
        for cls in classes:
            if attr in cls.__dict__:
                self.wrap(cls, attr, name)

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        from repro.attacks import Attack, BackpropGradient, GradientStep
        from repro.autograd import Function, Tensor
        from repro.data import DataLoader
        from repro.defenses import Trainer
        from repro.defenses.delta import DeltaStore
        from repro.eval import RobustnessEvaluator
        from repro.models import FeatureClassifier
        from repro.nn import Module
        from repro.optim import Optimizer
        from repro.parallel import DataParallelTrainer
        from repro.runtime import Workspace
        from repro.serving import InferenceService

        for cls in _subclasses(Function):
            op = OP_NAMES.get(cls.__name__, "other")
            if "forward" in cls.__dict__:
                self.wrap(
                    cls, "forward", f"autograd.{op}.fwd",
                    extra=_conv_fwd_flops if op == "conv2d" else None,
                )
            if "backward" in cls.__dict__:
                self.wrap(
                    cls, "backward", f"autograd.{op}.bwd",
                    pre=_conv_bwd_flops if op == "conv2d" else None,
                )
        self.wrap(Tensor, "backward", "autograd.engine")
        self.wrap(Module, "__call__", "nn.call", extra=_root_batch)
        self.wrap(FeatureClassifier, "forward", "nn.model")
        self.wrap(FeatureClassifier, "predict", "eval.predict")
        self.wrap(RobustnessEvaluator, "evaluate", "eval.evaluate")
        self.wrap_defined(_subclasses(Optimizer), "step", "optim.step")
        self.wrap_defined(
            [Attack, *_subclasses(Attack)], "generate", "attacks.generate"
        )
        self.wrap(BackpropGradient, "__call__", "attacks.grad")
        self.wrap(GradientStep, "apply", "attacks.update")
        self.wrap(DeltaStore, "lookup", "defenses.delta")
        self.wrap(DeltaStore, "store", "defenses.delta")
        self.wrap(Trainer, "train_epoch", "defenses.epoch")
        self.wrap_defined(
            [Trainer, *_subclasses(Trainer)], "compute_batch_loss",
            "defenses.batch_loss",
        )
        self.wrap(DataParallelTrainer, "train_epoch", "parallel.epoch")
        self.wrap(InferenceService, "classify_many", "serving.classify_many")
        self.wrap(Workspace, "acquire", "runtime.pool")
        self.wrap(Workspace, "release", "runtime.pool")
        original_iter = DataLoader.__dict__["__iter__"]
        tracer = self

        def timed_iter(loader):
            inner = original_iter(loader)
            return _TimedIterator(inner, tracer) if tracer.active else inner

        setattr(DataLoader, "__iter__", timed_iter)
        self._patches.append((DataLoader, "__iter__", original_iter))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        self.active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.active = False
        self.uninstall()

    # -- output ---------------------------------------------------------
    def write(self, path: str) -> None:
        """Dump the spans as JSON lines (ids are list positions)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = span.parent
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if parent is None else ids[id(parent)],
                    "thread": span.thread,
                }) + "\n")


def _subclasses(cls: type) -> List[type]:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in found:
            found.append(sub)
            todo.extend(sub.__subclasses__())
    return found


def _conv_fwd_flops(span, args, result) -> float:
    """Multiply-adds of the forward GEMM, counted as two FLOPs each."""
    weight = args[2]
    return 2.0 * result.size * (weight.size // weight.shape[0])


def _conv_bwd_flops(args) -> float:
    """Input- and weight-gradient GEMMs (each as costly as the forward)."""
    ctx, grad_output = args[0], args[1]
    weight = ctx.saved[1]
    gemms = int(ctx.needs(0)) + int(ctx.needs(1))
    return 2.0 * grad_output.size * (weight.size // weight.shape[0]) * gemms


def _root_batch(span, args, result):
    """Batch size and workspace high water of a thread's outermost forward."""
    if span.parent is not None:
        return None
    from repro.runtime import get_workspace

    x = args[1] if len(args) > 1 else None
    shape = getattr(x, "shape", None)
    return (shape[0] if shape else 0, get_workspace().high_water_bytes)


def self_times(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """``{name: [calls, total_s, self_s]}`` over a list of spans."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    table: Dict[str, List[float]] = {}
    for span in spans:
        row = table.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += span.duration - covered[id(span)]
    return table


def layer_self_times(table: Dict[str, List[float]]) -> Dict[str, float]:
    """Self seconds summed by layer (the span-name prefix)."""
    layers: Dict[str, float] = defaultdict(float)
    for name, (_calls, _total, own) in table.items():
        layers[name.split(".", 1)[0]] += own
    return dict(layers)
