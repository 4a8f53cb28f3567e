"""One compiled table per sweep round: box, run and link tables.

* bits: whole ``src`` grids after 30 steps of the entry tables against
  the per-region path (the compiled kernels' ``table_entry`` removed, so
  every box is its own call on region views) — dense slabs, overlap
  inner and frontier boxes on 2 ranks with 1, 2 and 4 workers,
  coalesced sparse blocks and a channel with an obstacle — and against
  the NumPy tiers;
* a checkpoint save and load, then 5 more steps, bit-identical;
* a grid the loop cannot read as-is is rejected before any address
  reaches C;
* one ``tier:compiled`` record per kernel round and kernel name;
* without the compiled tier, the NumPy kernels run once per box.
"""

import shutil

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation
from repro.core import Simulation
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.lbm import TRT, UBB, NoSlip, PressureABB
from repro.lbm.kernels import compiled
from repro.scenarios import channel_with_obstacle, enclose_walls, lid_driven_cavity

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler ('cc') on PATH")

FORCED_FAILURE = compiled._Build(reason="forced failure")
STEPS = 30


def _lid_forest_sim(mode, workers, grid=(2, 2, 1), cells=(6, 6, 6), ranks=2):
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, cells
    )
    balance_forest(forest, ranks, strategy="morton")
    return DistributedSimulation(
        forest, TRT.from_tau(0.7),
        boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=lid_driven_cavity(grid), comm_mode=mode, workers=workers,
    )


def _channel_sim(mode="overlap", workers=2):
    grid, cells = (3, 2, 1), (6, 6, 6)
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, cells
    )
    balance_forest(forest, 2, strategy="morton")
    return DistributedSimulation(
        forest, TRT.from_tau(0.6),
        boundaries=[NoSlip(), UBB(velocity=(0.03, 0.0, 0.0)), PressureABB(rho_w=1.0)],
        flag_setter=channel_with_obstacle(grid, cells, (7, 4, 2), (10, 7, 4)),
        comm_mode=mode, workers=workers,
    )


def _sparse_sim(mode="coalesced", workers=2):
    tree = CoronaryTree.generate(generations=2, seed=4)
    geom = CapsuleTreeGeometry(tree)
    forest = SetupBlockForest.create(geom.aabb(), (2, 2, 3), (8, 8, 8), geometry=geom)
    balance_forest(forest, 2, strategy="metis")
    return DistributedSimulation(
        forest, TRT.from_tau(0.8), geometry=geom,
        boundaries=[NoSlip(), UBB(velocity=(0.0, 0.0, 0.01)), PressureABB(rho_w=1.0)],
        comm_mode=mode, workers=workers,
    )


def _slab_sim(workers=4):
    """One dense block, cut into one slab per worker."""
    sim = Simulation(cells=(12, 10, 8), collision=TRT.from_tau(0.65), workers=workers)
    sim.flags.fill(fl.FLUID)
    enclose_walls(sim.flags)
    sim.flags.data[:, :, -1] = fl.VELOCITY_BC
    sim.add_boundary(NoSlip())
    sim.add_boundary(UBB(velocity=(0.05, 0.0, 0.0)))
    sim.finalize()
    return sim


CASES = {
    "dense-slabs": _slab_sim,
    "overlap-w1": lambda: _lid_forest_sim("overlap", 1),
    "overlap-w2": lambda: _lid_forest_sim("overlap", 2),
    "overlap-w4": lambda: _lid_forest_sim("overlap", 4),
    "coalesced-sparse": _sparse_sim,
    "channel-obstacle": _channel_sim,
}


def _grids(sim):
    return {key: rt.field.src.copy() for key, rt in sim.runtimes.items()}


def _tier_calls(sim):
    return sum(
        node.stats.calls
        for _, node in sim.timeloop.tree.root.walk()
        if node.name.startswith("tier:")
    )


def _tasks(sim):
    sched = sim.schedule
    return sched.kernel_tasks + sched.inner_tasks + sched.frontier_tasks


def _round_names(sim):
    """Kernel timer records per step of the table path: one per kernel
    round and kernel name it sweeps."""
    sched = sim.schedule
    rounds = (
        [sched.inner_tasks, sched.frontier_tasks] if sched.overlap else [sched.kernel_tasks]
    )
    keys = {str(key): key for key in sim.runtimes}
    return sum(
        len({sim.runtimes[keys[t.name.rsplit(":", 1)[0]]].kernel_name for t in tasks})
        for tasks in rounds
    )


def _run(build, steps):
    sim = build()
    try:
        sim.run(steps)
        return _grids(sim), _tier_calls(sim) / steps, (_round_names(sim), len(_tasks(sim)))
    finally:
        sim.close()


@pytest.fixture
def per_region(monkeypatch):
    """Force the per-region path: the compiled kernels give no table
    entries."""

    def force():
        monkeypatch.delattr(compiled.CompiledD3Q19Kernel, "table_entry")
        monkeypatch.delattr(compiled.CompiledIntervalKernel, "table_entry")

    return force


@needs_cc
@pytest.mark.parametrize("case", list(CASES))
def test_bound_sweeps_match_the_per_region_path(case, per_region):
    bound, calls, (names, tasks) = _run(CASES[case], STEPS)
    # One timer record per kernel round and kernel name, per step.
    assert calls == names
    per_region()
    reference, ref_calls, (_, ref_tasks) = _run(CASES[case], STEPS)
    assert ref_tasks == tasks
    if case.startswith("overlap") or case == "channel-obstacle":
        assert ref_calls > calls  # six frontier calls per dense block
    assert bound.keys() == reference.keys()
    for key in bound:
        assert np.array_equal(bound[key], reference[key]), key


@needs_cc
@pytest.mark.parametrize("case", list(CASES))
def test_bound_sweeps_match_numpy(case, monkeypatch):
    """The box and run tables against the NumPy tiers (a forced failed
    build), which share no code with the C loops."""
    bound, _, _ = _run(CASES[case], STEPS)
    monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
    reference, _, _ = _run(CASES[case], STEPS)
    for key in bound:
        assert np.array_equal(bound[key], reference[key]), key


@needs_cc
@pytest.mark.parametrize("case", ["overlap-w2", "coalesced-sparse"])
def test_restore_then_more_steps_is_bit_identical(case, tmp_path):
    path = str(tmp_path / "ckpt.npz")
    straight = CASES[case]()
    restarted = CASES[case]()
    try:
        straight.run(10)
        restarted.run(10)
        save_checkpoint(restarted, path)
        for field in restarted.fields.values():
            field.src.fill(np.nan)
            field.dst.fill(np.nan)
        load_checkpoint(restarted, path)
        straight.run(5)
        restarted.run(5)
        a, b = _grids(straight), _grids(restarted)
        for key in a:
            assert np.array_equal(a[key], b[key]), key
    finally:
        straight.close()
        restarted.close()


BAD_GRIDS = {
    "float32": lambda g: g.astype(np.float32),
    "fortran": lambda g: np.asfortranarray(g),
    "shape": lambda g: np.zeros(g.shape[:-1] + (g.shape[-1] + 1,)),
}


@needs_cc
@pytest.mark.parametrize("grid", list(BAD_GRIDS))
@pytest.mark.parametrize(
    "case, task", [("coalesced", ":block"), ("overlap", ":frontier"), ("sparse", ":block")]
)
def test_grid_the_sweep_cannot_address_rejected(case, task, grid):
    """A block grid replaced by one the loop cannot read as-is is
    rejected before any address reaches C: the round sweeping the
    block's ``task`` item leaves every ``dst`` untouched."""
    sim = _sparse_sim() if case == "sparse" else _lid_forest_sim(case, 1)
    try:
        sim.run(2)
        key = next(iter(sim.fields))
        assert len([t for t in _tasks(sim) if t.name == f"{key}{task}"]) == 1
        sweep = sim.schedule.frontier_round if task == ":frontier" else sim.schedule.kernel_round
        field = sim.fields[key]
        field.src = BAD_GRIDS[grid](field.src)
        before = {k: f.dst.copy() for k, f in sim.fields.items()}
        with pytest.raises(ValueError):
            sim.engine.run(sweep)
        for k, f in sim.fields.items():
            assert np.array_equal(f.dst, before[k]), k
    finally:
        sim.close()


@needs_cc
def test_a_consistent_pair_of_another_shape_rejected():
    """Both grids replaced by a bigger pair: the boxes were cut for the
    block, so the pair is rejected too."""
    sim = _lid_forest_sim("overlap", 1)
    try:
        sim.run(1)
        key = next(iter(sim.fields))
        field = sim.fields[key]
        shape = field.src.shape[:-1] + (field.src.shape[-1] + 2,)
        field.src, field.dst = np.ones(shape), np.zeros(shape)
        with pytest.raises(ValueError, match="bound to"):
            sim.engine.run(sim.schedule.frontier_round)
        assert not field.dst.any()
    finally:
        sim.close()


@needs_cc
def test_a_replaced_grid_that_fits_is_rebound():
    """A fresh grid pair the loop can read is checked once and used."""
    straight = _lid_forest_sim("overlap", 2)
    copied = _lid_forest_sim("overlap", 2)
    try:
        straight.run(4)
        copied.run(4)
        for field in copied.fields.values():
            field.src, field.dst = field.src.copy(), field.dst.copy()
        straight.run(3)
        copied.run(3)
        a, b = _grids(straight), _grids(copied)
        for key in a:
            assert np.array_equal(a[key], b[key]), key
    finally:
        straight.close()
        copied.close()


def _frontier_records(sim):
    node = sim.timeloop.tree.node("frontier kernel")
    return sum(child.stats.calls for child in node.children.values()
               if child.name.startswith("tier:"))


@pytest.fixture(params=["compiled", "numpy"])
def backend(request, monkeypatch):
    if request.param == "compiled":
        if not HAS_CC:
            pytest.skip("no C compiler ('cc') on PATH")
    else:
        monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
    return request.param


@pytest.mark.parametrize("workers", [1, 2])
def test_frontier_records_per_step(backend, workers):
    """Compiled: one ``tier:compiled`` record per frontier round (one
    kernel name) and step.  NumPy: the per-region path, one record per
    frontier box."""
    steps = 3
    sim = _lid_forest_sim("overlap", workers)
    try:
        sim.run(steps)
        kernels = [rt.kernel for rt in sim.runtimes.values()]
        n_tasks = len(sim.schedule.frontier_tasks)
        assert n_tasks == len(sim.fields)
        if backend == "compiled":
            assert all(isinstance(k, compiled.CompiledD3Q19Kernel) for k in kernels)
            assert _frontier_records(sim) == steps
            assert sim.timeloop.tree.node("frontier kernel", "tier:compiled")
        else:
            assert not any(hasattr(k, "table_entry") for k in kernels)
            assert {rt.kernel_name for rt in sim.runtimes.values()} == {"vectorized"}
            assert _frontier_records(sim) == steps * n_tasks * 6
    finally:
        sim.close()


def test_sparse_blocks_without_the_compiled_tier(backend):
    """Sparse blocks are one task each either way; without the compiled
    tier the NumPy ``interval`` kernel runs (it gives no table entry)
    once per block, with it the table records once per kernel name."""
    sim = _sparse_sim(workers=1)
    try:
        sim.run(2)
        kernels = [rt.kernel for rt in sim.runtimes.values() if rt.kernel_name == "interval"]
        assert kernels
        tables = [hasattr(k, "table_entry") for k in kernels]
        assert all(tables) if backend == "compiled" else not any(tables)
        per_step = _round_names(sim) if backend == "compiled" else len(sim.schedule.kernel_tasks)
        assert _tier_calls(sim) == 2 * per_step
    finally:
        sim.close()
