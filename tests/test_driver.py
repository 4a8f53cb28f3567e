"""One block runtime, one time step and one driver surface for every
driver: the single-block ``Simulation`` is the one-block case of the
schedule and driver base the distributed drivers run."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation
from repro.core import FlagField, Simulation, make_block_kernel
from repro.errors import ConfigurationError
from repro.geometry import AABB
from repro.lbm import D2Q9, D3Q19, NoSlip, TRT, UBB
from repro.lbm.kernels import default_dense_kernel
from repro.scenarios import lid_driven_cavity

CELLS = (6, 6, 6)
STEPS = 3
COUNTERS = ("cells_updated", "fluid_cell_updates", "exec.tasks")


def _conditions():
    return [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]


def _single(workers):
    sim = Simulation(cells=CELLS, collision=TRT.from_tau(0.7), workers=workers)
    sim.flags.fill(fl.FLUID)
    lid_driven_cavity((1, 1, 1))(None, sim.flags)
    for bc in _conditions():
        sim.add_boundary(bc)
    return sim.finalize()


def _one_block(workers):
    forest = SetupBlockForest.create(AABB((0, 0, 0), (1, 1, 1)), (1, 1, 1), CELLS)
    balance_forest(forest, 1, strategy="morton")
    return DistributedSimulation(
        forest,
        TRT.from_tau(0.7),
        boundaries=_conditions(),
        flag_setter=lid_driven_cavity((1, 1, 1)),
        workers=workers,
    )


def _record(sim):
    """Sweep names, kernel sub-scopes and per-step counters of a run."""
    try:
        sim.run(STEPS)
        tree = sim.timeloop.tree
        return (
            [s.name for s in sim.timeloop.sweeps],
            sorted(tree.node("kernel").children),
            {name: tree.counter(name) / STEPS for name in COUNTERS},
        )
    finally:
        sim.close()


class TestSingleBlockParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulation_is_the_one_block_case(self, workers):
        single, one_block = _single(workers), _one_block(workers)
        sweeps_a, scopes_a, counts_a = _record(single)
        sweeps_b, scopes_b, counts_b = _record(one_block)
        assert sweeps_a == sweeps_b == ["communication", "boundary", "kernel", "swap"]
        # ``worker:N`` scopes name the pool threads that picked up a slab,
        # which varies from run to run; every other sub-scope must match.
        pool = {f"worker:{i}" for i in range(workers)}
        for scopes in (scopes_a, scopes_b):
            assert {s for s in scopes if s.startswith("worker:")} <= pool
        others_a = [s for s in scopes_a if not s.startswith("worker:")]
        others_b = [s for s in scopes_b if not s.startswith("worker:")]
        assert others_a == others_b
        tiers = [name for name in scopes_a if name.startswith("tier:")]
        assert tiers == [f"tier:{default_dense_kernel()}"]
        assert counts_a == counts_b
        # One boundary task, then one kernel task per slab.
        assert counts_a["exec.tasks"] == 1 + workers
        assert counts_a["cells_updated"] == np.prod(CELLS)
        (field,) = one_block.fields.values()
        assert np.array_equal(single.pdfs.src, field.src)

    def test_single_block_is_block_zero(self):
        sim = _single(1)
        assert list(sim.runtimes) == [0]
        rt = sim.runtimes[0]
        assert rt.flags is sim.flags and rt.field is sim.pdfs
        assert rt.cells == CELLS and rt.fluid_cells == sim.fluid_cells
        sim.close()

    def test_observables_are_the_block_zero_case(self):
        single, one_block = _single(1), _one_block(1)
        try:
            single.run(STEPS)
            one_block.run(STEPS)
            (key,) = one_block.runtimes
            assert np.array_equal(single.density(), one_block.block_density(key))
            assert np.array_equal(single.velocity(), one_block.block_velocity(key))
            assert single.max_velocity() == one_block.max_velocity() > 0.0
        finally:
            single.close()
            one_block.close()

    def test_body_force_runs_after_the_swap(self):
        sim = Simulation(
            cells=(4, 4, 4), collision=TRT.from_tau(0.8),
            body_force=(1e-5, 0.0, 0.0), periodic=(True, True, True),
        )
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        names = [s.name for s in sim.timeloop.sweeps]
        assert names == ["communication", "boundary", "kernel", "swap", "force"]

    def test_unfinalized_simulation_refuses_to_run(self):
        sim = Simulation(cells=(4, 4, 4), collision=TRT.from_tau(0.8))
        for call in (
            lambda: sim.run(1),
            sim.mlups,
            sim.timing_report,
            lambda: sim.enable_checkpointing("unused.npz", 1),
        ):
            with pytest.raises(ConfigurationError, match="finalize"):
                call()

    def test_unfinalized_simulation_observables_read_its_fields(self):
        sim = Simulation(cells=(4, 4, 4), collision=TRT.from_tau(0.8))
        sim.flags.fill(fl.FLUID)
        sim.pdfs.set_equilibrium(rho=1.0, u=(0.02, 0.0, 0.0))
        assert np.allclose(sim.density(), 1.0)
        assert np.allclose(sim.velocity()[..., 0], 0.02)

    def test_update_boundary_on_single_block(self):
        sim = _single(1)
        lid = sim.runtimes[0].handler.conditions[1]
        faster = UBB(velocity=(0.08, 0.0, 0.0))
        sim.update_boundary(lid, faster)
        assert sim.runtimes[0].handler.conditions[1] is faster
        with pytest.raises(ConfigurationError, match="not active"):
            sim.update_boundary(lid, faster)
        sim.close()


class TestMakeBlockKernel:
    @staticmethod
    def _choose(outside: bool, name=None, model=D3Q19, cells=(4, 4, 4)):
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        if outside:
            ff.interior[0] = fl.OUTSIDE
        return make_block_kernel(ff, ff.fluid_mask(), model, TRT.from_tau(0.8), name)

    def test_default_dense_and_sparse(self):
        assert self._choose(False)[0] == default_dense_kernel()
        name, kern = self._choose(True)
        assert name == "interval"
        assert kern.processed_cells == 48

    def test_explicit_names(self):
        assert self._choose(False, "d3q19")[0] == "d3q19"
        assert self._choose(True, "indexlist")[0] == "indexlist"

    def test_dense_tier_on_outside_cells_rejected(self):
        with pytest.raises(ConfigurationError, match="OUTSIDE"):
            self._choose(True, "vectorized")

    def test_sparse_requires_d3q19(self):
        with pytest.raises(ConfigurationError, match="D3Q19"):
            self._choose(False, "interval", model=D2Q9, cells=(4, 4))
