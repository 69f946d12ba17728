"""Wall-clock instrumentation used by the training-time experiments.

The paper's efficiency metric is *training time per epoch* (Table I);
:meth:`repro.defenses.Trainer.fit` records it in
``TrainingHistory.epoch_seconds``.

:class:`Timer` is a thin layer over :class:`repro.telemetry.Stopwatch` — the
same ``perf_counter`` primitive telemetry spans are built on — so stopwatch
readings and the span records emitted by instrumented trainers agree.
"""

from __future__ import annotations

from ..telemetry import Stopwatch

__all__ = ["Timer"]


class Timer(Stopwatch):
    """Context-manager stopwatch, reusable across start/stop cycles.

    ``elapsed`` holds the duration of the most recent segment; ``total``
    accumulates every completed segment, so one Timer can meter repeated
    regions (e.g. each batch of an epoch) without losing earlier segments.

    Exiting the context behaves exactly like :meth:`stop`: the segment is
    accumulated and an unbalanced exit (the timer is not running, e.g.
    ``stop()`` was already called inside the block) raises ``RuntimeError``
    — unless an exception is already propagating, which is never masked.

    Example
    -------
    >>> t = Timer()
    >>> for _ in range(3):
    ...     with t:
    ...         _ = sum(range(1000))
    >>> t.total >= t.elapsed >= 0.0
    True
    """

    __slots__ = ()
