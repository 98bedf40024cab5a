"""Supervised worker pool: heartbeats, respawn, crash-proof queueing."""

import queue
import threading
import time

import pytest

from repro.resilience.faults import InjectedWorkerCrash
from repro.resilience.supervisor import SupervisedWorkerPool


def wait_until(predicate, timeout_s=5.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestBasicPool:
    def test_runs_submitted_items(self):
        pool = SupervisedWorkerPool(workers=2, capacity=8)
        done = []
        for i in range(6):
            pool.submit_nowait(lambda i=i: done.append(i))
        assert pool.shutdown(wait=True) == 0
        assert sorted(done) == list(range(6))

    def test_priority_order(self):
        pool = SupervisedWorkerPool(workers=1, capacity=8)
        gate = threading.Event()
        order = []
        pool.submit_nowait(lambda: gate.wait(5.0))  # occupy the worker
        time.sleep(0.1)
        pool.submit_nowait(lambda: order.append("low"), priority=0)
        pool.submit_nowait(lambda: order.append("high"), priority=10)
        gate.set()
        pool.shutdown(wait=True)
        assert order == ["high", "low"]

    def test_fifo_within_same_priority(self):
        pool = SupervisedWorkerPool(workers=1, capacity=8)
        gate = threading.Event()
        order = []
        pool.submit_nowait(lambda: gate.wait(5.0))  # occupy the worker
        time.sleep(0.1)
        for i in range(4):
            pool.submit_nowait(lambda i=i: order.append(i))
        gate.set()
        pool.shutdown(wait=True)
        assert order == [0, 1, 2, 3]

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            SupervisedWorkerPool(workers=0)
        with pytest.raises(ValueError, match="capacity"):
            SupervisedWorkerPool(capacity=0)
        with pytest.raises(ValueError, match="stall_timeout_s"):
            SupervisedWorkerPool(stall_timeout_s=0)

    def test_queue_full_raises(self):
        pool = SupervisedWorkerPool(workers=1, capacity=1)
        gate = threading.Event()
        pool.submit_nowait(lambda: gate.wait(5.0))
        time.sleep(0.1)
        pool.submit_nowait(lambda: None)  # fills the only slot
        with pytest.raises(queue.Full):
            pool.submit_nowait(lambda: None)
        gate.set()
        pool.shutdown(wait=True)

    def test_submit_after_shutdown_raises(self):
        pool = SupervisedWorkerPool(workers=1, capacity=4)
        pool.shutdown(wait=True)
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit_nowait(lambda: None)

    def test_item_exception_does_not_kill_worker(self):
        errors = []
        pool = SupervisedWorkerPool(
            workers=1, capacity=8, on_item_error=errors.append
        )
        done = threading.Event()
        pool.submit_nowait(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        pool.submit_nowait(done.set)
        assert done.wait(5.0)
        pool.shutdown(wait=True)
        assert pool.item_errors == 1
        assert pool.respawns == {"dead": 0, "stuck": 0}
        assert len(errors) == 1 and "boom" in str(errors[0])


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestSupervision:
    def test_dead_worker_is_respawned(self):
        respawns = []
        pool = SupervisedWorkerPool(
            workers=1,
            capacity=8,
            supervise_interval_s=0.01,
            on_respawn=respawns.append,
        )

        def crash():
            raise InjectedWorkerCrash("injected")

        done = threading.Event()
        pool.submit_nowait(crash)
        pool.submit_nowait(done.set)
        # the replacement worker must pick up the queued item
        assert done.wait(5.0)
        assert wait_until(lambda: pool.respawns["dead"] >= 1)
        assert respawns.count("dead") >= 1
        assert pool.num_workers == 1
        assert pool.shutdown(wait=True) == 0

    def test_stuck_worker_is_abandoned_and_replaced(self):
        respawns = []
        release = threading.Event()
        pool = SupervisedWorkerPool(
            workers=1,
            capacity=8,
            stall_timeout_s=0.1,
            supervise_interval_s=0.01,
            on_respawn=respawns.append,
        )
        done = threading.Event()
        pool.submit_nowait(lambda: release.wait(10.0))  # non-cooperative hang
        pool.submit_nowait(done.set)
        # the supervisor declares the hung worker stuck and replaces it;
        # the replacement serves the queue while the hang is still going.
        assert done.wait(5.0)
        assert wait_until(lambda: pool.respawns["stuck"] >= 1)
        assert pool.abandoned_count() >= 1
        assert "stuck" in respawns
        release.set()  # let the abandoned thread retire before shutdown
        assert pool.shutdown(wait=True) == 0

    def test_no_queued_work_lost_across_crashes(self):
        pool = SupervisedWorkerPool(
            workers=2, capacity=64, supervise_interval_s=0.01
        )
        done = []
        crashes = 3
        for _ in range(crashes):
            pool.submit_nowait(
                lambda: (_ for _ in ()).throw(InjectedWorkerCrash("x"))
            )
        for i in range(20):
            pool.submit_nowait(lambda i=i: done.append(i))
        assert wait_until(lambda: len(done) == 20, timeout_s=10.0)
        # every crashed thread eventually gets noticed and replaced
        assert wait_until(lambda: pool.respawns["dead"] == crashes)
        assert pool.shutdown(wait=True) == 0
        assert sorted(done) == list(range(20))


class TestShutdownRace:
    def test_admission_is_atomic_against_shutdown(self):
        """No submit can slip an item into a stopped pool (the backfill
        shutdown race): concurrent submitters either succeed before the
        drain or get RuntimeError, and every accepted item runs."""
        for _ in range(10):
            pool = SupervisedWorkerPool(workers=2, capacity=128)
            accepted = []
            refused = []
            start = threading.Barrier(5)

            def submitter(tid):
                start.wait(5.0)
                for i in range(20):
                    try:
                        pool.submit_nowait(
                            lambda t=tid, i=i: accepted.append((t, i))
                        )
                    except RuntimeError:
                        refused.append((tid, i))

            threads = [
                threading.Thread(target=submitter, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()

            def closer():
                start.wait(5.0)
                pool.shutdown(wait=True)

            close_thread = threading.Thread(target=closer)
            close_thread.start()
            for t in threads:
                t.join(5.0)
            close_thread.join(10.0)
            assert not close_thread.is_alive()
            # drained everything that was admitted: 80 total asks split
            # between ran and refused, nothing dropped.
            assert len(accepted) + len(refused) == 80
