"""Supervised worker pool: heartbeats, crash detection, respawn.

A bounded priority queue (higher priority first, FIFO within one
priority), strictly non-blocking admission (a full queue raises
:class:`queue.Full`, which the service turns into a reject-with-reason
response) and drain-then-stop shutdown, plus a supervisor thread that
keeps the worker roster at full strength:

* **dead workers** — a worker thread killed by an escaped exception (a
  real bug, or an injected :class:`~repro.resilience.faults.InjectedWorkerCrash`)
  is detected via ``Thread.is_alive`` and replaced.  Queued work items
  are untouched: they live in the queue, not in the thread.
* **stuck workers** — a worker whose heartbeat goes stale mid-item (a
  non-cooperative hang) is *abandoned*: removed from the roster so a
  fresh replacement thread picks up the queue, while the stuck daemon
  thread is left to either finish and exit (it notices it left the
  roster) or linger harmlessly until process exit.

Respawns are reported through ``on_respawn(reason)`` so the serving
layer can emit ``resilience_worker_respawns_total{reason=dead|stuck}``.
Ordinary exceptions raised by a work item do **not** kill the worker —
they are swallowed, counted, and reported via ``on_item_error``.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["SupervisedWorkerPool"]


@dataclass(order=True)
class _WorkItem:
    #: (-priority, admission sequence): higher priority first, FIFO within.
    sort_key: tuple[int, int]
    fn: Callable[[], None] = field(compare=False)


class SupervisedWorkerPool:
    """Bounded priority pool whose workers are supervised and respawned."""

    def __init__(
        self,
        workers: int = 4,
        capacity: int = 64,
        name: str = "serve",
        stall_timeout_s: float = 30.0,
        supervise_interval_s: float = 0.05,
        on_respawn: Callable[[str], None] | None = None,
        on_item_error: Callable[[BaseException], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if stall_timeout_s <= 0:
            raise ValueError(f"stall_timeout_s must be > 0, got {stall_timeout_s}")
        self.capacity = capacity
        self.name = name
        self.stall_timeout_s = stall_timeout_s
        self.supervise_interval_s = supervise_interval_s
        self._on_respawn = on_respawn
        self._on_item_error = on_item_error
        self._queue: queue.PriorityQueue[_WorkItem] = queue.PriorityQueue(
            maxsize=capacity
        )
        self._seq = itertools.count()
        self._spawn_seq = itertools.count()
        self._stop = threading.Event()
        #: serializes admission against shutdown: no item can be enqueued
        #: after the stop decision (closes the check-then-put race).
        self._admit_lock = threading.Lock()
        self._roster_lock = threading.Lock()
        self._roster: set[threading.Thread] = set()
        self._beats: dict[threading.Thread, float] = {}
        self._busy: dict[threading.Thread, float] = {}
        self._abandoned: set[threading.Thread] = set()
        self.respawns: dict[str, int] = {"dead": 0, "stuck": 0}
        self.item_errors = 0
        for _ in range(workers):
            self._spawn()
        self._target_workers = workers
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{name}-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- admission ---------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        with self._roster_lock:
            return len(self._roster)

    def depth(self) -> int:
        """Current queue backlog (approximate, racy by nature)."""
        return self._queue.qsize()

    @property
    def target_workers(self) -> int:
        """Roster size the supervisor maintains (autoscaling moves this)."""
        with self._roster_lock:
            return self._target_workers

    def resize(self, target: int) -> int:
        """Grow or shrink the worker roster toward ``target`` threads.

        Growing spawns immediately.  Shrinking retires *idle* workers
        (they drop off the roster and exit on their next loop); busy
        workers finish their current item and are trimmed by later resize
        ticks, so shrink never abandons in-flight work.  Returns the
        roster size after the call.  The autoscaler drives this from
        queue-depth/queue-wait signals.
        """
        if target < 1:
            raise ValueError(f"target must be >= 1, got {target}")
        spawn = 0
        with self._roster_lock:
            self._target_workers = target
            current = len(self._roster)
            if current < target:
                spawn = target - current
            elif current > target:
                idle = [t for t in self._roster if t not in self._busy]
                for t in idle[: current - target]:
                    self._roster.discard(t)
                    self._beats.pop(t, None)
        for _ in range(spawn):
            self._spawn()
        return self.num_workers

    def submit_nowait(self, fn: Callable[[], None], priority: int = 0) -> None:
        """Admit one work item or fail fast.

        Raises :class:`queue.Full` when saturated and :class:`RuntimeError`
        after :meth:`shutdown` — the caller owns turning either into a
        rejection response.
        """
        with self._admit_lock:
            if self._stop.is_set():
                raise RuntimeError("worker pool is shut down")
            self._queue.put_nowait(_WorkItem((-priority, next(self._seq)), fn))

    def shutdown(self, wait: bool = True, join_timeout_s: float = 10.0) -> int:
        """Stop admission, drain admitted items, stop workers and supervisor.

        Returns the number of threads that failed to join within
        ``join_timeout_s`` each (0 in a healthy pool); leaked threads are
        daemons abandoned mid-hang and die with the process.
        """
        with self._admit_lock:
            self._stop.set()
        leaked = 0
        if wait:
            self._supervisor.join(timeout=join_timeout_s)
            with self._roster_lock:
                workers = list(self._roster)
            for t in workers:
                t.join(timeout=join_timeout_s)
                if t.is_alive():
                    leaked += 1
                    with self._roster_lock:
                        self._roster.discard(t)
                        self._abandoned.add(t)
        return leaked

    # -- supervision -------------------------------------------------------------

    def abandoned_count(self) -> int:
        with self._roster_lock:
            return len(self._abandoned)

    def _spawn(self) -> threading.Thread:
        t = threading.Thread(
            target=self._run,
            name=f"{self.name}-worker-{next(self._spawn_seq)}",
            daemon=True,
        )
        with self._roster_lock:
            self._roster.add(t)
            self._beats[t] = time.monotonic()
        t.start()
        return t

    def _respawn(self, dead: threading.Thread, reason: str) -> None:
        with self._roster_lock:
            if dead not in self._roster:
                return
            self._roster.discard(dead)
            self._beats.pop(dead, None)
            if reason == "stuck":
                self._abandoned.add(dead)
            self.respawns[reason] = self.respawns.get(reason, 0) + 1
            # After a shrink, deaths among the surplus are not replaced.
            replace = len(self._roster) < self._target_workers
        # Report before spawning the replacement, so anyone who sees the
        # replacement's work also sees the callback.
        if self._on_respawn is not None:
            self._on_respawn(reason)
        if replace:
            self._spawn()

    def _supervise(self) -> None:
        while not self._stop.wait(self.supervise_interval_s):
            now = time.monotonic()
            with self._roster_lock:
                snapshot = [
                    (t, self._beats.get(t, now), t in self._busy)
                    for t in self._roster
                ]
            for t, beat, busy in snapshot:
                if not t.is_alive():
                    self._respawn(t, "dead")
                elif busy and now - beat > self.stall_timeout_s:
                    self._respawn(t, "stuck")

    def _run(self) -> None:
        me = threading.current_thread()
        while True:
            with self._roster_lock:
                if me not in self._roster:
                    return  # abandoned by the supervisor: retire quietly
                self._beats[me] = time.monotonic()
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    self._retire(me)
                    return
                continue
            with self._roster_lock:
                self._beats[me] = time.monotonic()
                self._busy[me] = self._beats[me]
            try:
                item.fn()
            except Exception as exc:  # repro: ignore[broad-except] - pool contract: item failures stay with the item
                # Item failures are the item's problem, not the worker's;
                # counted on item_errors and surfaced via _on_item_error.
                self.item_errors += 1
                if self._on_item_error is not None:
                    self._on_item_error(exc)
            except BaseException:
                # Worker-fatal (injected crash, interpreter teardown): die
                # like a real crashed thread; the supervisor respawns.
                self._queue.task_done()
                with self._roster_lock:
                    self._busy.pop(me, None)
                raise
            self._queue.task_done()
            with self._roster_lock:
                self._busy.pop(me, None)
                self._beats[me] = time.monotonic()

    def _retire(self, me: threading.Thread) -> None:
        with self._roster_lock:
            self._roster.discard(me)
            self._beats.pop(me, None)
            self._busy.pop(me, None)
