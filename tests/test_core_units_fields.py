"""Unit tests for lattice-unit conversion, PDF fields, flag fields, and
the time loop — the core plumbing modules."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core import PdfField, TimeLoop, UnitScales, blood_flow_scales
from repro.core.flags import FlagField
from repro.errors import ConfigurationError
from repro.lbm import D2Q9, D3Q19


class TestUnitScales:
    def test_paper_time_step(self):
        # §4.3: dx = 1.276 um -> dt = 0.64 us with u_lat 0.1, u_phys 0.2 m/s.
        scales = blood_flow_scales(1.276e-6)
        assert scales.dt == pytest.approx(0.64e-6, rel=5e-3)  # paper rounds to 0.64
        # "the time step length computes to half the spatial resolution"
        assert scales.dt == pytest.approx(scales.dx / 2.0, rel=1e-12)

    def test_velocity_roundtrip(self):
        s = UnitScales(dx=1e-4, dt=5e-5)
        u_lat = s.velocity_to_lattice(0.2)
        assert s.velocity_to_physical(u_lat) == pytest.approx(0.2)

    def test_viscosity_conversion(self):
        # Blood: nu ~ 3.3e-6 m^2/s.
        s = blood_flow_scales(1e-4)
        nu_lat = s.viscosity_to_lattice(3.3e-6)
        assert nu_lat == pytest.approx(3.3e-6 * s.dt / s.dx**2)

    def test_time_conversions(self):
        s = UnitScales(dx=1.0, dt=0.5)
        assert s.time_to_steps(10.0) == 20
        assert s.time_to_physical(20) == pytest.approx(10.0)
        assert s.length_to_physical(3) == pytest.approx(3.0)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            UnitScales(dx=-1.0, dt=1.0)
        with pytest.raises(ConfigurationError):
            UnitScales(dx=1.0, dt=0.0)
        with pytest.raises(ConfigurationError):
            blood_flow_scales(0.0)


class TestPdfField:
    def test_shapes(self):
        f = PdfField(D3Q19, (4, 5, 6))
        assert f.src.shape == (19, 6, 7, 8)
        assert f.interior_view.shape == (19, 4, 5, 6)

    def test_2d_model(self):
        f = PdfField(D2Q9, (4, 5))
        assert f.src.shape == (9, 6, 7)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PdfField(D3Q19, (4, 5))

    def test_swap(self):
        f = PdfField(D3Q19, (3, 3, 3))
        f.src[...] = 1.0
        f.dst[...] = 2.0
        f.swap()
        assert f.src[0, 0, 0, 0] == 2.0
        assert f.dst[0, 0, 0, 0] == 1.0

    def test_set_equilibrium_moments(self):
        f = PdfField(D3Q19, (3, 3, 3))
        f.set_equilibrium(rho=1.2, u=(0.02, 0.0, -0.01))
        rho = f.src.sum(axis=0)
        assert np.allclose(rho, 1.2)
        e = D3Q19.velocities.astype(float)
        j = np.tensordot(f.src, e, axes=(0, 0))
        assert np.allclose(j / rho[..., None], [0.02, 0.0, -0.01])

    def test_memory_accounting(self):
        f = PdfField(D3Q19, (4, 4, 4))
        assert f.memory_bytes() == 2 * 19 * 6**3 * 8


class TestFlagField:
    def test_interior_view(self):
        ff = FlagField((3, 4, 5))
        assert ff.data.shape == (5, 6, 7)
        assert ff.interior.shape == (3, 4, 5)

    def test_fill_and_count(self):
        ff = FlagField((3, 3, 3))
        ff.fill(fl.FLUID)
        assert ff.count(fl.FLUID) == 27
        assert ff.count(fl.FLUID, include_ghost=True) == 27
        ff.fill(fl.NO_SLIP, include_ghost=True)
        assert ff.count(fl.NO_SLIP, include_ghost=True) == 125

    def test_mask_bitwise(self):
        ff = FlagField((2, 2, 2))
        ff.interior[0, 0, 0] = fl.NO_SLIP | fl.VELOCITY_BC  # combined bits
        assert ff.mask(fl.NO_SLIP)[0, 0, 0]
        assert ff.mask(fl.VELOCITY_BC)[0, 0, 0]
        assert not ff.mask(fl.FLUID)[0, 0, 0]

    def test_validate_exclusive(self):
        ff = FlagField((2, 2, 2))
        ff.interior[0, 0, 0] = fl.FLUID | fl.NO_SLIP
        with pytest.raises(ValueError):
            ff.validate_exclusive()


class TestTimeLoop:
    def test_sweep_order(self):
        calls = []
        loop = (
            TimeLoop()
            .add("a", lambda: calls.append("a"))
            .add("b", lambda: calls.append("b"))
        )
        loop.run(2)
        assert calls == ["a", "b", "a", "b"]
        assert loop.steps_run == 2

    def test_timings_accumulate(self):
        loop = TimeLoop().add("x", lambda: None)
        loop.run(5)
        assert loop.timings()["x"] >= 0.0
        assert loop.tree.node("x").stats.calls == 5
        loop.reset_timings()
        assert loop.tree.node("x") is None
        assert loop.steps_run == 0

    def test_fraction(self):
        import time

        loop = (
            TimeLoop()
            .add("slow", lambda: time.sleep(0.002))
            .add("fast", lambda: None)
        )
        loop.run(3)
        assert loop.tree.fraction("slow") > 0.8
        assert loop.tree.fraction("missing") == 0.0

    def test_report_format(self):
        loop = TimeLoop().add("k", lambda: None)
        loop.run(1)
        rep = loop.timing_report()
        assert "1 steps" in rep and "k" in rep
