"""Integration tests for the single-block Simulation driver, including
physical validation against analytic solutions (Couette, lid cavity)."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core import Simulation
from repro.errors import ConfigurationError
from repro.lbm import NoSlip, TRT, UBB, SRT
from repro.lbm.kernels import default_dense_kernel


def closed_box(sim):
    d = sim.flags.data
    d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, :, 0], d[:, :, -1] = fl.NO_SLIP, fl.NO_SLIP


class TestLifecycle:
    def test_run_before_finalize_rejected(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8))
        with pytest.raises(ConfigurationError):
            sim.run(1)

    def test_double_finalize_rejected(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8))
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        with pytest.raises(ConfigurationError):
            sim.finalize()

    def test_no_fluid_rejected(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8))
        with pytest.raises(ConfigurationError):
            sim.finalize()

    def test_add_boundary_after_finalize_rejected(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8))
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        with pytest.raises(ConfigurationError):
            sim.add_boundary(NoSlip())

    def test_kernel_autoselect_dense(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8))
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        assert sim.kernel_name == default_dense_kernel()

    def test_kernel_autoselect_sparse(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8))
        sim.flags.interior[:2] = fl.FLUID  # half the block stays OUTSIDE
        sim.finalize()
        assert sim.kernel_name == "interval"

    def test_dense_kernel_with_outside_cells_rejected(self):
        sim = Simulation(cells=(4, 4, 4), collision=SRT(0.8), kernel="vectorized")
        sim.flags.interior[:2] = fl.FLUID
        with pytest.raises(ConfigurationError):
            sim.finalize()


class TestPhysics:
    def test_mass_conservation_closed_cavity(self):
        sim = Simulation(cells=(8, 8, 8), collision=TRT.from_tau(0.8))
        sim.flags.fill(fl.FLUID)
        closed_box(sim)
        sim.add_boundary(NoSlip())
        sim.finalize()
        m0 = sim.total_mass()
        sim.run(50)
        assert np.isclose(sim.total_mass(), m0, rtol=1e-12)

    def test_couette_profile(self):
        # Plane Couette flow between a wall at z=0 and a lid moving with
        # u_x = U at z = H: steady state is the linear profile
        # u_x(z) = U * (z + 1/2) / H  (mid-link walls).
        U = 0.05
        nz = 10
        sim = Simulation(cells=(4, 4, nz), collision=TRT.from_tau(0.9))
        sim.flags.fill(fl.FLUID)
        d = sim.flags.data
        d[:, :, 0] = fl.NO_SLIP
        d[:, :, -1] = fl.VELOCITY_BC
        sim.add_boundary(NoSlip())
        sim.add_boundary(UBB(velocity=(U, 0.0, 0.0)))
        # x and y are periodic: emulate by wrapping ghost layers each step.
        def periodic():
            for arr in (sim.pdfs.src,):
                arr[:, 0, :, :] = arr[:, -2, :, :]
                arr[:, -1, :, :] = arr[:, 1, :, :]
                arr[:, :, 0, :] = arr[:, :, -2, :]
                arr[:, :, -1, :] = arr[:, :, 1, :]
        sim.finalize()
        sim.timeloop.sweeps.insert(0, type(sim.timeloop.sweeps[0])("periodic", periodic))
        sim.run(3000)
        ux = sim.velocity()[2, 2, :, 0]
        z = np.arange(nz) + 0.5
        expected = U * z / nz
        assert np.allclose(ux, expected, atol=2e-4)

    def test_lid_driven_cavity_vortex(self):
        sim = Simulation(cells=(12, 12, 12), collision=TRT.from_tau(0.8))
        sim.flags.fill(fl.FLUID)
        closed_box(sim)
        sim.flags.data[:, :, -1] = fl.VELOCITY_BC
        sim.add_boundary(NoSlip())
        sim.add_boundary(UBB(velocity=(0.08, 0.0, 0.0)))
        sim.finalize()
        sim.run(400)
        u = sim.velocity()
        # Flow near the lid follows it; return flow appears lower down.
        assert np.nanmean(u[:, :, -1, 0]) > 0.02
        assert np.nanmean(u[:, :, 3, 0]) < 0.0
        # Velocities remain bounded (stability).
        assert np.nanmax(np.abs(u)) < 0.2

    def test_mlups_counters(self):
        sim = Simulation(cells=(8, 8, 8), collision=SRT(0.8))
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        assert sim.mlups() == 0.0
        sim.run(5)
        assert sim.mlups() > 0.0
        assert sim.mflups() > 0.0
        assert np.isclose(sim.mlups(), sim.mflups())  # fully fluid block

    def test_sparse_simulation_runs(self):
        # Tube along z, enclosed by no-slip, rest outside: stays at rest.
        sim = Simulation(cells=(8, 8, 8), collision=TRT.from_tau(0.8))
        inter = sim.flags.interior
        x, y = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        disk = (x - 3.5) ** 2 + (y - 3.5) ** 2 <= 4.0
        inter[disk] = fl.FLUID
        # hull: any OUTSIDE cell adjacent to fluid becomes NO_SLIP
        from scipy.ndimage import binary_dilation

        fluid3 = inter == fl.FLUID
        hull = binary_dilation(fluid3) & ~fluid3
        inter[hull] = fl.NO_SLIP
        # z faces of the tube in the ghost layer
        d = sim.flags.data
        pad_fluid = np.zeros_like(d, dtype=bool)
        pad_fluid[1:-1, 1:-1, 1:-1] = fluid3
        d[:, :, 0][pad_fluid[:, :, 1]] = fl.NO_SLIP
        d[:, :, -1][pad_fluid[:, :, -2]] = fl.NO_SLIP
        sim.add_boundary(NoSlip())
        sim.finalize()
        m0 = sim.total_mass()
        sim.run(20)
        assert np.isclose(sim.total_mass(), m0, rtol=1e-12)
        assert np.nanmax(np.abs(sim.velocity())) < 1e-12
