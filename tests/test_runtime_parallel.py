"""Tests for the shared worker pool (:mod:`repro.runtime.pool`)."""

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro.runtime.pool import PoolClosed, WorkerPool, resolve_workers


def square_offset(state, item):
    offset = state if state is not None else 0
    return item * item + offset


def make_offset(offset):
    return offset


def no_state():
    return None


def failing(state, item):
    if item == 3:
        raise ValueError("boom")
    return item


class BuiltIn:
    """State that remembers which process ran its factory."""

    def __init__(self):
        self.pid = os.getpid()


def built_pid(state, item):
    return state.pid


def wait_for_file(state, path):
    while not os.path.exists(path):
        time.sleep(0.01)
    return path


def touch(state, path):
    Path(path).touch()
    return path


class TestInline:
    def test_maps_in_order(self):
        pool = WorkerPool(no_state, workers=1)
        assert list(pool.map(square_offset, range(7), chunk_size=2)) == [
            i * i for i in range(7)
        ]

    def test_state_factory_runs_once(self):
        calls = []

        def counting_offset(offset):
            calls.append(offset)
            return offset

        pool = WorkerPool(counting_offset, (100,), workers=1)
        assert list(pool.map(square_offset, [1, 2], chunk_size=1)) == [101, 104]
        assert calls == [100]

    def test_errors_propagate(self):
        pool = WorkerPool(no_state, workers=1)
        with pytest.raises(ValueError):
            list(pool.map(failing, [1, 2, 3], chunk_size=32))

    def test_empty_input(self):
        pool = WorkerPool(no_state, workers=1)
        assert list(pool.map(square_offset, [], chunk_size=32)) == []

    def test_submit_returns_completed_future(self):
        pool = WorkerPool(make_offset, (5,), workers=1)
        future = pool.submit(square_offset, 3)
        assert isinstance(future, Future) and future.done()
        assert future.result() == 14
        assert isinstance(pool.submit(failing, 3).exception(), ValueError)
        assert pool.pids() == []

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(no_state, workers=1)
        pool.shutdown()
        with pytest.raises(PoolClosed):
            pool.submit(square_offset, 1)


@pytest.mark.slow
class TestPool:
    def test_order_preserved_across_workers(self):
        with WorkerPool(no_state, workers=2) as pool:
            results = list(pool.map(square_offset, range(20), chunk_size=3))
        assert results == [i * i for i in range(20)]

    def test_worker_state_built_by_initializer(self):
        with WorkerPool(make_offset, (1000,), workers=2) as pool:
            results = list(pool.map(square_offset, range(6), chunk_size=2))
        assert results == [i * i + 1000 for i in range(6)]

    def test_backpressure_window_still_ordered(self):
        pulled = []

        def items():
            for item in range(10):
                pulled.append(item)
                yield item

        with WorkerPool(no_state, workers=2) as pool:
            results = pool.map(square_offset, items(), chunk_size=1)
            assert next(results) == 0
            # The first result is ready once the window (2 * workers
            # chunks of one item) is full; nothing past it is pulled.
            assert len(pulled) == 4
            assert [0, *results] == [i * i for i in range(10)]

    def test_errors_propagate_from_pool(self):
        with WorkerPool(no_state, workers=2) as pool:
            with pytest.raises(ValueError):
                list(pool.map(failing, [1, 2, 3, 4], chunk_size=1))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="copy-on-write adoption needs the fork start method",
    )
    def test_fork_adopts_parent_built_state(self):
        with WorkerPool(BuiltIn, workers=2) as pool:
            assert pool.state.pid == os.getpid()
            pids = list(pool.map(built_pid, range(8), chunk_size=1))
        # Every worker reports the parent's pid: the state it holds was
        # built in the parent, and the factory never ran in the worker.
        assert pids == [os.getpid()] * 8

    def test_pids_and_rebuild(self):
        with WorkerPool(no_state, workers=2) as pool:
            assert pool.submit(square_offset, 2).result() == 4
            first = pool.pids()
            assert 1 <= len(first) <= 2 and os.getpid() not in first
            pool.rebuild()
            assert pool.submit(square_offset, 3).result() == 9
            second = pool.pids()
            assert second and not set(first) & set(second)
        assert pool.pids() == []


def test_resolved_workers_defaults_to_cpus():
    assert resolve_workers(None) == (os.cpu_count() or 1)
    assert resolve_workers(0) == 1
    assert WorkerPool(no_state, workers=0).workers == 1


class TestExclusive:
    def test_bisection_has_the_pool_to_itself(self, tmp_path):
        """exclusive() starts only once the task in flight has finished;
        while a thread holds it, that thread's own submits run and
        another thread's submit does not reach the workers."""
        release, ran = tmp_path / "release", tmp_path / "ran"
        entered, leave = threading.Event(), threading.Event()
        own, outside = [], []

        with WorkerPool(no_state, workers=2) as pool:
            in_flight = pool.submit(wait_for_file, str(release))

            def bisect():
                with pool.exclusive():
                    entered.set()
                    own.append(pool.submit(square_offset, 3).result(timeout=10))
                    leave.wait(timeout=10)

            holder = threading.Thread(target=bisect)
            submitter = threading.Thread(
                target=lambda: outside.append(pool.submit(touch, str(ran)))
            )
            try:
                holder.start()
                assert not entered.wait(timeout=0.3)
                release.touch()
                assert entered.wait(timeout=10)
                assert in_flight.result(timeout=10) == str(release)
                submitter.start()
                submitter.join(timeout=0.3)
                assert submitter.is_alive() and not outside and not ran.exists()
            finally:
                release.touch()
                leave.set()
                holder.join(timeout=10)
            submitter.join(timeout=10)
            assert own == [9]
            assert outside[0].result(timeout=10) == str(ran)
