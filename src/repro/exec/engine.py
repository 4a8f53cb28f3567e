"""The sweep engine: a C worker pool for compiled tables, a Python
pool with work stealing for NumPy tasks.

One engine serves one (virtual-MPI) rank.  A *round* is one sweep of
one time step: a :class:`SweepRound` — the
:class:`~repro.lbm.kernels.compiled.EntryTable` of every block the
generated library sweeps plus the :class:`SweepTask` items of the
others — or a plain list of tasks.  Items must write disjoint regions
(the decompositions in :mod:`repro.exec.partition` and the drivers
guarantee this), so execution order is irrelevant and results are
bit-identical to a serial sweep.  The worker count alone picks the
engine (:func:`make_engine`): one worker runs inline on the calling
thread (:class:`SerialEngine`, a table in one C call), more run on a
pool.

Scheduling (``ThreadedEngine``)
-------------------------------
A round's table runs on the C pool
(:class:`~repro.lbm.kernels.compiled.SweepPool`): ``workers - 1``
pthreads and the thread that waits for the round claim entries from
one atomic counter, with no Python between entries.  NumPy tasks are
sharded deterministically onto per-worker deques of Python threads by
greedy LPT (largest cost first, onto the least-loaded queue).  A
worker claims from the *front* of its own deque (counted as
``exec.claims``) and, when empty, steals from the *back* of a peer's
(``exec.steals``) — the classic work-stealing split that keeps owner
and thief on opposite ends; the GIL is released inside the large
contiguous NumPy ufunc chunks of the kernels.  Both pools are
persistent: each starts its threads on the first round that needs
them (none during set-up) and reuses them every step, so the steady
state performs no thread churn and no field-sized allocation.

Accounting
----------
Per round the engine accumulates, per worker, busy wall seconds and
busy *CPU* seconds (``time.thread_time`` in Python, the per-participant
records of the C pool).  The CPU measure is what makes the SMT-ladder
analog honest on a time-shared host: the critical path
``max_w(cpu_w)`` is the wall time the round would take if every worker
owned a hardware thread, which is exactly the quantity the paper's
Figure 5 varies.  With a timing tree attached the engine emits the
``exec.*`` counters and files per-worker busy times as ``worker:<i>``
children of the dispatching sweep's scope; the drivers always attach
their time loop's tree, so these counters are the one report of the
engine's work.  A table records its own per-kernel ``tier:<name>``
timers once per round.  A round with both a table and NumPy tasks runs
the C participants beside the Python workers (up to ``2 * workers - 1``
threads at once): worker slot ``w`` sums C participant ``w`` and
Python worker ``w``, and the critical path is the largest single
thread's CPU time.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..perf.timing import TimingNode, TimingTree

__all__ = [
    "SweepTask",
    "SweepRound",
    "RoundHandle",
    "ExecutionEngine",
    "SerialEngine",
    "ThreadedEngine",
    "make_engine",
]

class SweepTask:
    """One independent unit of sweep work.

    ``fn`` is a zero-argument callable (typically a closure over a
    kernel, a field pair, and a slab box — re-reading ``field.src`` at
    call time so the two-grid swap stays transparent).  ``cost`` guides
    the LPT sharding (use interior cell counts); ``name`` is purely
    diagnostic.
    """

    __slots__ = ("fn", "cost", "name")

    def __init__(self, fn: Callable[[], None], cost: float = 1.0, name: str = ""):
        self.fn = fn
        self.cost = float(cost)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepTask {self.name or self.fn!r} cost={self.cost:g}>"


class SweepRound:
    """One round of a sweep: a compiled entry table plus NumPy tasks.

    ``table`` is an :class:`~repro.lbm.kernels.compiled.EntryTable` of
    every block the generated library sweeps (``None`` when there is
    none): the engine refreshes its grid pointers before anything runs
    (a rejected grid raises :class:`ValueError` with nothing started),
    walks it in one C call per participant, and records its kernel
    timers after.  ``tasks`` are the :class:`SweepTask` items of the
    other blocks.  Either part may be empty.
    """

    __slots__ = ("table", "tasks")

    def __init__(self, table=None, tasks: Sequence[SweepTask] = ()):
        self.table = table
        self.tasks = list(tasks)


#: What ``run`` / ``run_async`` take: a round or a plain list of tasks.
Work = Union[SweepRound, Sequence[SweepTask]]


def _parts(work: Work):
    """``(table, tasks)`` of a round or a list of tasks."""
    if isinstance(work, SweepRound):
        return work.table, work.tasks
    return None, work


class RoundHandle:
    """Completion handle for one dispatched round.

    ``wait()`` blocks until every task of the round has executed, then
    folds the round's statistics into the engine (and re-raises the
    first task exception, if any).  The serial engine returns handles
    that are already complete.
    """

    __slots__ = ("_engine", "_finished")

    def __init__(self, engine: "ExecutionEngine", finished: bool = False):
        self._engine = engine
        self._finished = finished

    def wait(self) -> None:
        """Block until the round completes; idempotent."""
        if self._finished:
            return
        self._finished = True
        self._engine._wait_round()

    @property
    def done(self) -> bool:
        """True once :meth:`wait` has returned."""
        return self._finished


class ExecutionEngine:
    """Common state and accounting shared by the serial/threaded engines.

    Cumulative statistics (across all rounds since construction):

    ``tasks_run`` / ``claims`` / ``steals``
        work items executed, split by how they were acquired;
    ``busy_wall_seconds`` / ``dispatch_wall_seconds``
        summed per-worker busy wall time vs. the wall time rounds were
        in flight (their ratio over ``workers`` is the busy fraction);
    ``critical_path_seconds``
        summed per-round ``max`` over workers of busy CPU seconds — the
        parallel-execution-time analog used by the MLUPS ladder;
    ``worker_cpu_seconds``
        per-worker cumulative busy CPU seconds.
    """

    mode = "serial"

    def __init__(self, workers: int, tree: Optional[TimingTree] = None):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.tree = tree
        self.tasks_run = 0
        self.claims = 0
        self.steals = 0
        self.busy_wall_seconds = 0.0
        self.dispatch_wall_seconds = 0.0
        self.critical_path_seconds = 0.0
        self.worker_cpu_seconds = [0.0] * self.workers
        self._pool = None

    # -- the driver-facing protocol -----------------------------------------
    def run(self, work: Work) -> None:
        """Execute a round and block until it is done."""
        self.run_async(work).wait()

    def run_async(self, work: Work) -> RoundHandle:
        """Dispatch a round (a :class:`SweepRound` or a list of tasks)
        and return a :class:`RoundHandle`.

        At most one round may be in flight per engine; the threaded
        engine computes concurrently with the caller (the overlap
        schedules finish the ghost exchange while inner slabs run).
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Join the C pool's threads, if any (idempotent; a later round
        starts a new pool)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def _table_pool(self):
        """The C pool of this engine, started on first use — and again
        in a forked child, which has none of its parent's threads."""
        pool = self._pool
        if pool is None or pool.pid != os.getpid():
            from ..lbm.kernels.compiled import SweepPool

            pool = self._pool = SweepPool(self.workers)
        return pool

    # -- shared bookkeeping --------------------------------------------------
    def _wait_round(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _account_round(
        self,
        n_tasks: int,
        claims: int,
        steals: int,
        wall: Sequence[float],
        cpu: Sequence[float],
        counts: Sequence[int],
        dispatch_wall: float,
        anchor: Optional[TimingNode],
        critical: Optional[float] = None,
    ) -> None:
        """Fold one finished round into the cumulative statistics and
        (when a tree is attached) the timing counters/scopes.
        ``critical`` is the round's critical path when a slot sums more
        than one thread (default: the largest ``cpu[w]``)."""
        self.tasks_run += n_tasks
        self.claims += claims
        self.steals += steals
        busy = 0.0
        slot_max = 0.0
        for w in range(self.workers):
            busy += wall[w]
            self.worker_cpu_seconds[w] += cpu[w]
            if cpu[w] > slot_max:
                slot_max = cpu[w]
        if critical is None:
            critical = slot_max
        self.busy_wall_seconds += busy
        self.dispatch_wall_seconds += dispatch_wall
        self.critical_path_seconds += critical
        tree = self.tree
        if tree is None:
            return
        tree.add_counter("exec.tasks", n_tasks)
        tree.add_counter("exec.claims", claims)
        tree.add_counter("exec.steals", steals)
        tree.add_counter("exec.critical_path_seconds", critical)
        denom = self.workers * self.dispatch_wall_seconds
        if denom > 0.0:
            tree.set_counter(
                "exec.worker_busy_fraction", self.busy_wall_seconds / denom
            )
        if anchor is not None:
            for w in range(self.workers):
                if counts[w]:
                    tree.record_at(anchor, f"worker:{w}", wall[w])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialEngine(ExecutionEngine):
    """Inline execution on the calling thread (``workers=1``).

    Emits the same ``exec.*`` accounting as the threaded engine (with
    every task a claim and the critical path equal to the full busy CPU
    time), so the workers=1 rung of the MLUPS ladder comes from the
    same instruments as the parallel rungs.
    """

    mode = "serial"

    def __init__(self, tree: Optional[TimingTree] = None):
        super().__init__(1, tree)

    def run_async(self, work: Work) -> RoundHandle:
        """Execute the round on this thread — its table in one C call,
        then its tasks; the handle is already done."""
        table, tasks = _parts(work)
        if table is not None:
            table.prepare()
        t0w = time.perf_counter()
        t0c = time.thread_time()
        if table is not None:
            table.run()
        for task in tasks:
            task.fn()
        wall = time.perf_counter() - t0w
        cpu = time.thread_time() - t0c
        n = len(tasks) + (len(table) if table is not None else 0)
        anchor = self.tree.current if self.tree is not None else None
        self._account_round(
            n, n, 0, (wall,), (cpu,), (n,), wall, anchor
        )
        if table is not None:
            table.finish()
        return RoundHandle(self, finished=True)

    def _wait_round(self) -> None:
        """Nothing to wait for: rounds complete inside :meth:`run_async`."""


class ThreadedEngine(ExecutionEngine):
    """A pool of ``workers`` participants (``workers > 1``).

    A round's entry table runs on the C pool (``workers - 1`` pthreads
    of the generated library, started on the first table round, plus
    the thread that waits); its NumPy tasks run on persistent Python
    worker threads with per-worker deques and stealing, started on the
    first round that has any.  Call :meth:`shutdown` for a
    deterministic teardown (the drivers and the benchmarks do).  One
    round may be in flight at a time.  A forked child starts its own
    threads on first use.
    """

    mode = "threads"

    def __init__(self, workers: int, tree: Optional[TimingTree] = None):
        super().__init__(workers, tree)
        self._queues: List[deque] = [deque() for _ in range(self.workers)]
        self._cond = threading.Condition()
        self._pending = 0
        self._epoch = 0
        self._stop = False
        self._pid = 0
        self._in_flight = False
        self._anchor: Optional[TimingNode] = None
        self._dispatch_t0 = 0.0
        self._round_table = None
        self._threads: List[threading.Thread] = []
        self._errors: List[BaseException] = []
        # Per-round, per-worker accumulators (reset at dispatch, read at
        # completion; reused so the steady state allocates nothing).
        self._round_wall = [0.0] * self.workers
        self._round_cpu = [0.0] * self.workers
        self._round_claims = [0] * self.workers
        self._round_steals = [0] * self.workers
        self._round_counts = [0] * self.workers

    # -- lifecycle -----------------------------------------------------------
    def _ensure_started(self) -> None:
        """Start the Python workers, once per process (a forked child
        has none of its parent's threads) and again after
        :meth:`shutdown`."""
        pid = os.getpid()
        if self._pid == pid:
            return
        if self._pid:
            self._cond = threading.Condition()
            self._queues = [deque() for _ in range(self.workers)]
            self._threads = []
        self._pid = pid
        self._stop = False
        for w in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop,
                args=(w,),
                name=f"repro-exec-{w}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()

    def shutdown(self) -> None:
        """Stop and join the worker threads (idempotent; a later round
        starts new ones)."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
        self._pid = 0
        super().shutdown()

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            with self._cond:
                self._stop = True
                self._cond.notify_all()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------------
    def run_async(self, work: Work) -> RoundHandle:
        """Start the round's table on the C pool and shard its tasks
        onto the Python worker deques; returns at once."""
        if self._in_flight:
            raise ConfigurationError(
                "a round is already in flight on this engine"
            )
        table, tasks = _parts(work)
        anchor = self.tree.current if self.tree is not None else None
        if table is None and not tasks:
            zeros = [0.0] * self.workers
            self._account_round(
                0, 0, 0, zeros, zeros, [0] * self.workers, 0.0, anchor
            )
            return RoundHandle(self, finished=True)
        pool = None
        if table is not None:
            table.prepare()
            pool = self._table_pool()
        if tasks:
            self._ensure_started()
        # Deterministic greedy LPT: heaviest task first onto the
        # least-loaded queue (ties broken by worker index).
        order = sorted(range(len(tasks)), key=lambda i: (-tasks[i].cost, i))
        loads = [0.0] * self.workers
        with self._cond:
            for w in range(self.workers):
                self._round_wall[w] = 0.0
                self._round_cpu[w] = 0.0
                self._round_claims[w] = 0
                self._round_steals[w] = 0
                self._round_counts[w] = 0
            del self._errors[:]
            for i in order:
                w = min(range(self.workers), key=lambda k: (loads[k], k))
                loads[w] += tasks[i].cost
                self._queues[w].append(tasks[i])
            self._anchor = anchor
            self._round_table = table
            self._pending = len(tasks)
            self._in_flight = True
            self._dispatch_t0 = time.perf_counter()
            if tasks:
                self._epoch += 1
                self._cond.notify_all()
        if pool is not None:
            pool.start(table)
        return RoundHandle(self)

    def _wait_round(self) -> None:
        """Join the table's round on this thread, wait for the tasks to
        drain, then account the round.

        In a round with both parts, C participant ``w`` (``0`` is this
        thread) and Python worker ``w`` are two threads that ran at the
        same time: slot ``w`` (``worker:<w>``, ``worker_cpu_seconds``)
        sums both, and the critical path is the largest of the
        ``2 * workers`` per-thread CPU times, not of the slot sums."""
        table, self._round_table = self._round_table, None
        if table is not None:
            self._pool.wait()
        with self._cond:
            while self._pending > 0:
                self._cond.wait()
            dispatch_wall = time.perf_counter() - self._dispatch_t0
            anchor = self._anchor
            self._anchor = None
            self._in_flight = False
            errors = list(self._errors)
            del self._errors[:]
        critical = max(self._round_cpu)
        if table is not None:
            pool = self._pool
            for w in range(self.workers):
                k = int(pool.count[w])
                if k:
                    cpu = float(pool.cpu[w])
                    if cpu > critical:
                        critical = cpu
                    self._round_wall[w] += float(pool.wall[w])
                    self._round_cpu[w] += cpu
                    self._round_claims[w] += k
                    self._round_counts[w] += k
            table.finish()
        self._account_round(
            sum(self._round_counts), sum(self._round_claims), sum(self._round_steals),
            self._round_wall, self._round_cpu, self._round_counts, dispatch_wall, anchor,
            critical,
        )
        if errors:
            raise errors[0]

    # -- the worker side -----------------------------------------------------
    def _grab(self, wid: int):
        """Claim from the own queue's front, else steal from a peer's
        back; returns ``(task, stolen)`` or ``(None, False)``."""
        try:
            return self._queues[wid].popleft(), False
        except IndexError:
            pass
        for off in range(1, self.workers):
            try:
                return self._queues[(wid + off) % self.workers].pop(), True
            except IndexError:
                continue
        return None, False

    def _worker_loop(self, wid: int) -> None:
        """Persistent worker: wait for an epoch, drain, repeat."""
        last_epoch = 0
        cond = self._cond
        tree = self.tree
        while True:
            with cond:
                while not self._stop and self._epoch == last_epoch:
                    cond.wait()
                if self._stop:
                    return
                last_epoch = self._epoch
            while True:
                task, stolen = self._grab(wid)
                if task is None:
                    break
                t0w = time.perf_counter()
                t0c = time.thread_time()
                try:
                    if tree is not None and self._anchor is not None:
                        with tree.at(self._anchor):
                            task.fn()
                    else:
                        task.fn()
                except BaseException as exc:  # propagate via wait()
                    with cond:
                        self._errors.append(exc)
                finally:
                    self._round_wall[wid] += time.perf_counter() - t0w
                    self._round_cpu[wid] += time.thread_time() - t0c
                    if stolen:
                        self._round_steals[wid] += 1
                    else:
                        self._round_claims[wid] += 1
                    self._round_counts[wid] += 1
                    with cond:
                        self._pending -= 1
                        if self._pending == 0:
                            cond.notify_all()


def make_engine(workers: int = 1, tree: Optional[TimingTree] = None) -> ExecutionEngine:
    """Build a rank's sweep engine: a :class:`SerialEngine` for one
    worker, a :class:`ThreadedEngine` pool of ``workers`` persistent
    threads for more (``workers < 1`` is rejected)."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialEngine(tree)
    return ThreadedEngine(workers, tree)
