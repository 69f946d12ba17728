"""Tests for timing utilities."""

import time

import pytest

from repro.telemetry import Stopwatch
from repro.utils import Timer


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.01

    def test_start_stop(self):
        t = Timer()
        t.start()
        time.sleep(0.005)
        elapsed = t.stop()
        assert elapsed >= 0.005
        assert t.elapsed == elapsed

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_total_accumulates_across_segments(self):
        t = Timer()
        segments = []
        for _ in range(3):
            t.start()
            time.sleep(0.003)
            segments.append(t.stop())
        assert t.elapsed == segments[-1]
        assert t.total == pytest.approx(sum(segments))
        assert t.total >= 0.009

    def test_context_manager_accumulates(self):
        t = Timer()
        for _ in range(2):
            with t:
                time.sleep(0.003)
        assert t.total >= 0.006
        assert t.elapsed <= t.total

    def test_reset_clears_total(self):
        t = Timer()
        with t:
            time.sleep(0.002)
        assert t.total > 0.0
        t.reset()
        assert t.total == 0.0
        assert t.elapsed == 0.0

    def test_is_telemetry_stopwatch(self):
        """Timer is the telemetry Stopwatch under a compatibility name."""
        assert issubclass(Timer, Stopwatch)

    def test_unbalanced_exit_raises_like_stop(self):
        """``__exit__`` on a stopped timer fails exactly like ``stop()``.

        Regression test: ``__exit__`` used to swallow the unbalanced-exit
        case that ``stop()`` reports, so ``with`` blocks and manual
        start/stop disagreed about misuse.
        """
        t = Timer()
        with pytest.raises(RuntimeError, match="before start"):
            with t:
                t.stop()  # consumes the running segment mid-block

    def test_exit_does_not_mask_inflight_exception(self):
        t = Timer()
        with pytest.raises(ValueError, match="original"):
            with t:
                t.stop()
                raise ValueError("original")

    def test_exit_matches_stop_when_balanced(self):
        by_exit = Timer()
        by_stop = Timer()
        with by_exit:
            time.sleep(0.002)
        by_stop.start()
        time.sleep(0.002)
        by_stop.stop()
        assert by_exit.total > 0.0
        assert by_stop.total > 0.0
        assert not by_exit.running
        assert not by_stop.running

