"""The worker pool of the generated library and the rounds it runs.

* lifecycle: one worker starts no OS thread, ``workers=w`` starts
  ``w - 1`` on the first round (none during set-up), ``close()`` joins
  them and is idempotent, a closed simulation steps again on new
  threads, an unclosed simulation's pool is joined when it is
  garbage-collected, build/close cycles leak no thread, and a rejected
  grid leaves the pool usable;
* fork: a child forked after a threaded step steps on its own pool;
* a round with a table and NumPy tasks gives the serial bits, and its
  critical path is the longest single thread, C or Python;
* tables stay valid across ``update_boundary``, bit for bit against
  the NumPy path;
* the overlap re-apply of the ghost-shell links matches a re-apply of
  every link, bit for bit;
* per-step counts of the three benchmark workloads: engine tasks,
  messages and kernel timer records, and the critical path within the
  summed busy CPU time.

Without a C compiler the compiled cases skip and the fallback cases
check that the NumPy path ran.
"""

import gc
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation
from repro.geometry import AABB
from repro.lbm import TRT, UBB, NoSlip, PressureABB
from repro.lbm.boundary import BoundaryHandling
from repro.lbm.kernels import compiled
from repro.scenarios import channel_with_obstacle

from test_sweep_tables import (
    FORCED_FAILURE,
    _channel_sim,
    _grids,
    _lid_forest_sim,
    _slab_sim,
    _sparse_sim,
    _tier_calls,
    backend,  # noqa: F401  (fixture)
    needs_cc,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TASKS = Path("/proc/self/task")
needs_proc = pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task")


def _threads():
    """OS threads of this process."""
    return len(os.listdir(TASKS))


def _threads_after_join(expected):
    """OS threads of this process once joined threads have left (up to
    2 s): a joined Python thread may take a moment to leave the task
    list; a C pool thread has left when its join returns."""
    for _ in range(200):
        n = _threads()
        if n <= expected:
            break
        time.sleep(0.01)
    return n


def _rounds(sim):
    sched = sim.schedule
    if sched.overlap:
        return [sched.boundary_round, sched.inner_round, sched.frontier_round]
    return [sched.boundary_round, sched.kernel_round]


def _assert_path(sim, backend):
    """Compiled: every round is one table; NumPy: no round has one."""
    tables = [r.table is not None for r in _rounds(sim)]
    if backend == "compiled":
        assert all(tables) and not any(r.tasks for r in _rounds(sim))
    else:
        assert not any(tables)


@needs_proc
def test_one_worker_starts_no_thread(backend):
    before = _threads()
    sim = _lid_forest_sim("overlap", 1)
    try:
        sim.run(3)
        _assert_path(sim, backend)
        assert _threads() == before
    finally:
        sim.close()


@needs_proc
@pytest.mark.parametrize("workers", [2, 4])
def test_threads_start_with_the_first_round(backend, workers):
    before = _threads()
    sim = _lid_forest_sim("overlap", workers)
    try:
        assert _threads() == before  # none during set-up
        sim.run(1)
        _assert_path(sim, backend)
        # C: workers - 1 beside the caller; NumPy: the Python pool.
        started = workers - 1 if backend == "compiled" else workers
        assert _threads() == before + started
        sim.run(2)
        assert _threads() == before + started
    finally:
        sim.close()
    assert _threads_after_join(before) == before
    sim.close()
    assert _threads() == before


@needs_proc
def test_a_closed_simulation_steps_again(backend):
    """``close()`` joins the threads; a later step starts new ones."""
    before = _threads()
    straight = _lid_forest_sim("overlap", 2)
    straight.run(4)
    straight.close()
    assert _threads_after_join(before) == before
    sim = _lid_forest_sim("overlap", 2)
    try:
        sim.run(2)
        sim.close()
        assert _threads_after_join(before) == before
        sim.run(2)
        a, b = _grids(straight), _grids(sim)
        for k in a:
            assert np.array_equal(a[k], b[k]), k
    finally:
        sim.close()
    assert _threads_after_join(before) == before


@needs_cc
@needs_proc
def test_unclosed_simulation_pool_joined_on_gc():
    gc.collect()
    before = _threads()
    sim = _lid_forest_sim("coalesced", 3)
    sim.run(1)
    assert _threads() == before + 2
    del sim
    gc.collect()
    assert _threads() == before


@needs_proc
def test_build_close_cycles_leak_no_thread(backend):
    before = _threads()
    for _ in range(50):
        sim = _slab_sim(workers=2)
        sim.run(1)
        sim.close()
    _assert_path(sim, backend)
    assert _threads_after_join(before) == before


@needs_cc
def test_rejected_grid_leaves_the_pool_usable():
    straight = _lid_forest_sim("overlap", 2)
    rejected = _lid_forest_sim("overlap", 2)
    try:
        straight.run(3)
        rejected.run(3)
        key = next(iter(rejected.fields))
        field = rejected.fields[key]
        good = field.src
        field.src = good.astype(np.float32)
        for sweep in _rounds(rejected):
            with pytest.raises(ValueError):
                rejected.engine.run(sweep)
        field.src = good
        straight.run(4)
        rejected.run(4)
        a, b = _grids(straight), _grids(rejected)
        for k in a:
            assert np.array_equal(a[k], b[k]), k
    finally:
        straight.close()
        rejected.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_steps_on_its_own_pool(backend):
    straight = _lid_forest_sim("overlap", 2)
    sim = _lid_forest_sim("overlap", 2)
    try:
        straight.run(4)
        sim.run(2)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                signal.alarm(30)
                sim.run(2)
                pool = sim.engine._pool
                own = pool is None if backend == "numpy" else pool.pid == os.getpid()
                code = 0 if own else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status), status
        assert os.WEXITSTATUS(status) == 0
        sim.run(2)
        a, b = _grids(straight), _grids(sim)
        for k in a:
            assert np.array_equal(a[k], b[k]), k
    finally:
        straight.close()
        sim.close()


def _mixed_sim(workers):
    """A channel whose obstacle block has OUTSIDE cells: five dense
    blocks on the compiled table, one ``conditional`` block as a NumPy
    task, in the same kernel round."""
    grid, cells = (3, 2, 1), (6, 6, 6)
    walls = channel_with_obstacle(grid, cells, (7, 1, 1), (11, 5, 5))

    def setter(blk, ff):
        walls(blk, ff)
        if tuple(blk.grid_index) == (1, 0, 0):
            ff.interior[2:4, 2:4, 2:4] = fl.OUTSIDE  # the obstacle's core

    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, cells
    )
    balance_forest(forest, 2, strategy="morton")
    return DistributedSimulation(
        forest, TRT.from_tau(0.6),
        boundaries=[NoSlip(), UBB(velocity=(0.03, 0.0, 0.0)), PressureABB(rho_w=1.0)],
        flag_setter=setter, comm_mode="coalesced", workers=workers,
        sparse_kernel="conditional",
    )


@needs_cc
@pytest.mark.parametrize("workers", [2, 4])
def test_mixed_round_bits_and_critical_path(workers):
    serial = _mixed_sim(1)
    sim = _mixed_sim(workers)
    try:
        sweep = sim.schedule.kernel_round
        assert sweep.table is not None and len(sweep.table) == 5
        assert [t.name for t in sweep.tasks] == [
            f"{k}:block" for k, rt in sim.runtimes.items() if rt.kernel_name == "conditional"
        ]
        serial.run(10)
        sim.run(10)
        a, b = _grids(serial), _grids(sim)
        for k in a:
            assert np.array_equal(a[k], b[k]), k
        engine = sim.engine
        cp0, tasks0 = engine.critical_path_seconds, engine.tasks_run
        cpu0 = sum(engine.worker_cpu_seconds)
        engine.run(sweep)
        assert engine.tasks_run - tasks0 == len(sim.runtimes)
        # Slot w sums C participant w and Python worker w; the critical
        # path is the longest of those threads, not of the sums.
        pool = engine._pool
        threads = []
        for w in range(workers):
            c = float(pool.cpu[w]) if pool.count[w] else 0.0
            threads += [c, engine._round_cpu[w] - c]
        cp = engine.critical_path_seconds - cp0
        assert cp == pytest.approx(max(threads), rel=1e-9, abs=1e-12)
        assert cp <= sum(engine.worker_cpu_seconds) - cpu0
    finally:
        serial.close()
        sim.close()


def _updated_mid_run(workers):
    sim = _lid_forest_sim("overlap", workers)
    try:
        sim.run(5)
        sim.update_boundary(
            UBB(velocity=(0.05, 0.0, 0.0)), UBB(velocity=(0.08, 0.02, 0.0))
        )
        sim.run(5)
        return _grids(sim)
    finally:
        sim.close()


@needs_cc
@pytest.mark.parametrize("workers", [1, 2])
def test_tables_follow_update_boundary(workers, monkeypatch):
    """A UBB velocity changed mid-run reaches the boundary tables: the
    table path equals the NumPy path bit for bit."""
    tables = _updated_mid_run(workers)
    monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
    numpy = _updated_mid_run(workers)
    for k in tables:
        assert np.array_equal(tables[k], numpy[k]), k


def _run(build, steps=20):
    sim = build()
    try:
        sim.run(steps)
        return sim.schedule, _grids(sim)
    finally:
        sim.close()


@needs_cc
@pytest.mark.parametrize(
    "build",
    [lambda: _channel_sim("overlap", 2), lambda: _sparse_sim("overlap", 2),
     lambda: _lid_forest_sim("overlap", 1)],
    ids=["channel", "sparse", "lid"],
)
def test_ghost_shell_reapply_matches_full_reapply(build, monkeypatch):
    """The re-apply after the unpack runs only the links that write or
    read a ghost-shell cell, in one table; a re-apply of every link
    gives the same bits."""
    sched, ghost = _run(build)
    assert sched.reapply
    table = sched._reapply_round.table
    assert table is not None and len(table) == len(sched.reapply)
    assert not sched._reapply_round.tasks
    full = BoundaryHandling.table_links
    monkeypatch.setattr(
        BoundaryHandling, "table_links", lambda self, ghost_only=False: full(self)
    )
    _, every = _run(build)
    for k in ghost:
        assert np.array_equal(ghost[k], every[k]), k


def _workload(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        from tracing import NullRecorder
    finally:
        sys.path.remove(str(PERFBENCH))
    spec = json.loads((PERFBENCH / "spec.json").read_text())
    sim, _ = workloads.build(workloads.params_for(spec, name, 0), NullRecorder())
    return sim


#: Per step: engine tasks, messages, and kernel timer records of the
#: table path (one per kernel round and kernel name).
COUNTS = {
    "cavity-dense": (16, 48, 1),
    "coronary": (134, 274, 1),
    "channel-overlap": (96, 144, 2),
}


@pytest.mark.parametrize("name", list(COUNTS))
def test_per_step_counts_of_the_workloads(name, backend):
    tasks, messages, records = COUNTS[name]
    sim = _workload(name)
    try:
        sim.run(1)
        tree = sim.timeloop.tree
        t0, c0 = tree.counter("exec.tasks"), tree.counter("exec.critical_path_seconds")
        m0, r0 = sim.comm_stats, _tier_calls(sim)
        m0 = m0.local_messages + m0.remote_messages
        steps = 2
        sim.run(steps)
        stats = sim.comm_stats
        assert (tree.counter("exec.tasks") - t0) / steps == tasks
        assert (stats.local_messages + stats.remote_messages - m0) / steps == messages
        per_step = (_tier_calls(sim) - r0) / steps
        sched = sim.schedule
        if backend == "compiled":
            _assert_path(sim, backend)
            assert per_step == records
        else:
            items = sched.inner_tasks + sched.frontier_tasks if sched.overlap else sched.kernel_tasks
            assert per_step >= len(items)
        critical = tree.counter("exec.critical_path_seconds") - c0
        assert 0.0 < critical <= sum(sim.engine.worker_cpu_seconds)
    finally:
        sim.close()
