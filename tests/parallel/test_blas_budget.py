"""Each forked worker runs its share of numpy's OpenBLAS threads."""

import pytest

from repro import telemetry as tel
from repro.parallel import WorkerPool
from repro.runtime import blas

needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None,
    reason="numpy does not bundle an OpenBLAS whose threads can be set",
)


def report_threads(worker_id, message):
    return blas.blas_threads()


def expected_budget(inherited, num_workers):
    if num_workers == 1:
        return inherited
    return max(1, min(inherited, blas.usable_cores() // num_workers))


def gather_threads(pool):
    pool.broadcast(None)
    return pool.gather()


@pytest.fixture
def parent_threads():
    """The parent's thread count, restored after the test."""
    before = blas.blas_threads()
    yield before
    blas.set_blas_threads(before)


@needs_openblas
class TestWorkerBudget:
    @pytest.mark.parametrize("num_workers", [1, 2])
    @pytest.mark.parametrize("parent", ["inherited", "above_cores"])
    def test_each_worker_gets_the_formula(self, parent_threads, parent,
                                          num_workers):
        # "above_cores" is a user's OPENBLAS_NUM_THREADS above the affinity
        # core count: a lone worker must still run the parent's count.
        inherited = parent_threads
        if parent == "above_cores":
            inherited = blas.usable_cores() + 2
            blas.set_blas_threads(inherited)
            if blas.blas_threads() != inherited:
                pytest.skip("OpenBLAS caps its thread count at the core count")
        pool = WorkerPool(num_workers, report_threads).start()
        try:
            threads = gather_threads(pool)
        finally:
            pool.shutdown()
        budget = expected_budget(inherited, num_workers)
        assert threads == [budget] * num_workers
        assert pool.worker_blas_threads == budget

    def test_parent_cap_bounds_the_workers(self, parent_threads):
        # A user's OPENBLAS_NUM_THREADS=1 leaves the parent at one thread;
        # no worker may then run more.
        blas.set_blas_threads(1)
        pool = WorkerPool(2, report_threads).start()
        try:
            assert gather_threads(pool) == [1, 1]
        finally:
            pool.shutdown()

    def test_restarted_worker_gets_the_same_budget(self, parent_threads):
        pool = WorkerPool(2, report_threads).start()
        try:
            before = gather_threads(pool)
            pool.kill(1)
            pool.restart(1)
            assert pool.call(1, None) == before[1]
            assert gather_threads(pool) == before
        finally:
            pool.shutdown()

    def test_parent_count_is_untouched(self, parent_threads):
        pool = WorkerPool(2, report_threads).start()
        try:
            assert blas.blas_threads() == parent_threads
            gather_threads(pool)
            assert blas.blas_threads() == parent_threads
        finally:
            pool.shutdown()
        assert blas.blas_threads() == parent_threads

    def test_budget_is_recorded_as_a_gauge(self, parent_threads):
        previous = tel.set_enabled(True)
        tel.reset_metrics()
        try:
            pool = WorkerPool(2, report_threads).start()
            pool.shutdown()
            gauges = tel.get_metrics().snapshot()["gauges"]
        finally:
            tel.set_enabled(previous)
            tel.reset_metrics()
        assert gauges["parallel.worker_blas_threads"] == expected_budget(
            parent_threads, 2
        )


class TestWithoutOpenBLAS:
    @pytest.fixture
    def no_library(self, monkeypatch):
        monkeypatch.setattr(blas, "_candidate_paths", lambda: [])
        blas._library.cache_clear()
        yield
        blas._library.cache_clear()

    def test_lookup_failure_is_a_silent_no_op(self, no_library):
        assert blas.blas_threads() is None
        assert blas.worker_blas_threads(2) is None
        blas.set_blas_threads(1)  # must not raise

    def test_pool_runs_without_a_budget(self, no_library):
        pool = WorkerPool(2, lambda worker_id, message: message).start()
        try:
            assert pool.worker_blas_threads is None
            pool.broadcast("ok")
            assert pool.gather() == ["ok", "ok"]
        finally:
            pool.shutdown()
