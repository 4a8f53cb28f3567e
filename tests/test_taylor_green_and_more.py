"""Taylor-Green vortex decay (quantitative viscosity validation), 2-D
D2Q9 simulations, the stability guard, dynamic rebalancing, and the
timing report."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest, rebalance
from repro.blocks import SetupBlockForest
from repro.core import Simulation
from repro.errors import LoadBalanceError, NumericalError
from repro.geometry import AABB
from repro.lbm import D2Q9, NoSlip, SRT, TRT, UBB
from repro.lbm.equilibrium import equilibrium


class TestTaylorGreen:
    """The 2-D Taylor-Green vortex (in a 3-D periodic box, k_z = 0)
    decays as exp(-2 nu k^2 t): the measured decay rate *is* the
    kinematic viscosity, validating the collision operator's transport
    coefficient."""

    @pytest.mark.parametrize("tau", [0.65, 0.9])
    def test_viscosity_from_decay(self, tau):
        n = 24
        u0 = 0.02
        nu = (tau - 0.5) / 3.0
        sim = Simulation(
            cells=(n, n, n),
            collision=TRT.srt_equivalent(tau),
            periodic=(True, True, True),
        )
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        # Overwrite the uniform initialization with the vortex.
        k = 2.0 * np.pi / n
        shape = sim.pdfs.padded_shape
        idx = [np.arange(-1, n + 1) + 0.5 for _ in range(3)]
        X, Y, _Z = np.meshgrid(*idx, indexing="ij")
        u = np.zeros(shape + (3,))
        u[..., 0] = u0 * np.sin(k * X) * np.cos(k * Y)
        u[..., 1] = -u0 * np.cos(k * X) * np.sin(k * Y)
        rho = np.ones(shape)
        sim.pdfs.src[...] = equilibrium(sim.model, rho, u)
        sim.pdfs.dst[...] = sim.pdfs.src

        steps = 120
        a0 = np.nanmax(np.abs(sim.velocity()[..., 0]))
        sim.run(steps)
        a1 = np.nanmax(np.abs(sim.velocity()[..., 0]))
        # amplitude ~ exp(-2 nu k^2 t)
        nu_measured = -np.log(a1 / a0) / (2.0 * k**2 * steps)
        assert nu_measured == pytest.approx(nu, rel=0.03)

    def test_vortex_structure_preserved(self):
        n = 16
        sim = Simulation(
            cells=(n, n, n), collision=SRT(0.8), periodic=(True, True, True)
        )
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        k = 2.0 * np.pi / n
        shape = sim.pdfs.padded_shape
        idx = [np.arange(-1, n + 1) + 0.5 for _ in range(3)]
        X, Y, _Z = np.meshgrid(*idx, indexing="ij")
        u = np.zeros(shape + (3,))
        u[..., 0] = 0.02 * np.sin(k * X) * np.cos(k * Y)
        u[..., 1] = -0.02 * np.cos(k * X) * np.sin(k * Y)
        sim.pdfs.src[...] = equilibrium(sim.model, np.ones(shape), u)
        sim.pdfs.dst[...] = sim.pdfs.src
        u_before = sim.velocity()
        sim.run(50)
        u_after = sim.velocity()
        # The pattern only shrinks; the normalized fields stay aligned.
        corr = np.nansum(u_before[..., 0] * u_after[..., 0])
        norm = np.sqrt(
            np.nansum(u_before[..., 0] ** 2) * np.nansum(u_after[..., 0] ** 2)
        )
        assert corr / norm > 0.999


class TestD2Q9Simulation:
    def test_2d_couette(self):
        U, ny = 0.05, 8
        sim = Simulation(
            cells=(6, ny),
            collision=TRT.from_tau(0.9),
            model=D2Q9,
            kernel="generic",
            periodic=(True, False),
        )
        sim.flags.fill(fl.FLUID)
        sim.flags.data[:, 0] = fl.NO_SLIP
        sim.flags.data[:, -1] = fl.VELOCITY_BC
        sim.add_boundary(NoSlip())
        sim.add_boundary(UBB(velocity=(U, 0.0)))
        sim.finalize()
        sim.run(2000)
        ux = sim.velocity()[3, :, 0]
        expected = U * (np.arange(ny) + 0.5) / ny
        assert np.allclose(ux, expected, atol=3e-4)

    def test_2d_mass_conservation(self):
        sim = Simulation(
            cells=(8, 8), collision=SRT(0.8), model=D2Q9, kernel="generic"
        )
        sim.flags.fill(fl.FLUID)
        sim.flags.data[sim.flags.data == 0] = fl.NO_SLIP
        sim.add_boundary(NoSlip())
        sim.finalize()
        m0 = sim.total_mass()
        sim.run(50)
        assert np.isclose(sim.total_mass(), m0, rtol=1e-12)


class TestStabilityGuard:
    def test_divergence_detected(self):
        sim = Simulation(
            cells=(6, 6, 6),
            collision=SRT(0.51),
            body_force=(0.5, 0.0, 0.0),
            periodic=(True, True, True),
        )
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        with pytest.raises(NumericalError):
            sim.run(500, check_every=10)

    def test_stable_run_passes(self):
        sim = Simulation(cells=(6, 6, 6), collision=TRT.from_tau(0.8))
        sim.flags.fill(fl.FLUID)
        sim.flags.data[sim.flags.data == 0] = fl.NO_SLIP
        sim.add_boundary(NoSlip())
        sim.finalize()
        sim.run(30, check_every=10)
        sim.assert_stable()

    def test_distributed_guard(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        from repro.comm import DistributedSimulation

        sim = DistributedSimulation(forest, TRT.from_tau(0.8))
        sim.run(5, check_every=2)
        sim.assert_stable()
        # Corrupt a block and confirm detection.
        next(iter(sim.fields.values())).src[0, 2, 2, 2] = np.nan
        with pytest.raises(NumericalError):
            sim.assert_stable()


class TestRebalance:
    @pytest.fixture
    def forest(self):
        f = SetupBlockForest.create(AABB((0, 0, 0), (4, 4, 4)), (4, 4, 4), (8, 8, 8))
        balance_forest(f, 8, strategy="morton")
        return f

    def test_improves_skewed_loads(self, forest):
        loads = np.ones(forest.n_blocks)
        for i, b in enumerate(forest.blocks):
            if b.owner == 0:
                loads[i] = 5.0
        res = rebalance(forest, loads)
        assert res.imbalance_after < res.imbalance_before
        assert res.imbalance_after < 1.2

    def test_applies_owners(self, forest):
        loads = np.linspace(1.0, 3.0, forest.n_blocks)
        res = rebalance(forest, loads, apply=True)
        assert tuple(b.owner for b in forest.blocks) == res.owners

    def test_balanced_loads_move_little(self, forest):
        # Already balanced: relabeling keeps most blocks in place.
        loads = np.ones(forest.n_blocks)
        res = rebalance(forest, loads, apply=False)
        assert res.n_migrations < forest.n_blocks * 0.8

    def test_errors(self, forest):
        with pytest.raises(LoadBalanceError):
            rebalance(forest, np.ones(3))
        with pytest.raises(LoadBalanceError):
            rebalance(forest, np.zeros(forest.n_blocks))


class TestTimingReport:
    def test_report_contains_sweeps(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8))
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        sim.run(3)
        rep = sim.timeloop.timing_report()
        assert "kernel" in rep and "3 steps" in rep
        assert "%" in rep
