"""Boundary condition tests: link construction, physical behaviour,
condition updates, and the compiled link loops bit for bit against the
NumPy path."""

import shutil

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core.flags import FlagField
from repro.errors import ConfigurationError
from repro.lbm.boundary import BoundaryHandling, NoSlip, PressureABB, UBB
from repro.lbm.collision import SRT, TRT
from repro.lbm.equilibrium import equilibrium
from repro.lbm.kernels import compiled, make_kernel
from repro.lbm.lattice import D3Q19

from helpers import interior, random_pdfs


def make_channel_flags(cells):
    """Fluid interior, no-slip walls in the ghost layer on y and z faces."""
    ff = FlagField(cells)
    ff.fill(fl.FLUID)
    d = ff.data
    d[:, 0, :] = fl.NO_SLIP
    d[:, -1, :] = fl.NO_SLIP
    d[:, :, 0] = fl.NO_SLIP
    d[:, :, -1] = fl.NO_SLIP
    return ff


class TestLinkConstruction:
    def test_single_fluid_cell_fully_enclosed(self):
        ff = FlagField((1, 1, 1))
        ff.fill(fl.FLUID)
        ff.data[ff.data == 0] = fl.NO_SLIP
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        # Every non-rest direction has exactly one wall link.
        assert bh.link_count == 18

    def test_no_walls_no_links(self):
        ff = FlagField((3, 3, 3))
        ff.fill(fl.FLUID)
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        assert bh.link_count == 0

    def test_no_conditions(self):
        ff = make_channel_flags((3, 3, 3))
        bh = BoundaryHandling(D3Q19, ff, [])
        assert bh.link_count == 0 and bh.conditions == ()
        src = np.full((19, 5, 5, 5), 0.05)
        bh.apply(src)
        assert np.all(src == 0.05)

    def test_duplicate_flag_rejected(self):
        ff = FlagField((2, 2, 2))
        ff.fill(fl.FLUID)
        with pytest.raises(ConfigurationError):
            BoundaryHandling(D3Q19, ff, [NoSlip(), NoSlip()])


class TestNoSlip:
    def test_reflection_reverses_pulse(self):
        # One fluid cell enclosed in walls: after boundary apply + kernel
        # step, an outgoing population returns reversed.
        cells = (1, 1, 1)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        ff.data[ff.data == 0] = fl.NO_SLIP
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        src = np.zeros((19, 3, 3, 3))
        shape = src.shape[1:]
        src[...] = equilibrium(
            D3Q19, np.ones(shape), np.zeros(shape + (3,))
        )
        a = D3Q19.direction_index(1, 0, 0)
        abar = int(D3Q19.inverse[a])
        src[a, 1, 1, 1] += 0.1  # extra outgoing momentum in +x
        dst = np.zeros_like(src)
        bh.apply(src)
        make_kernel("d3q19", D3Q19, SRT(tau=1e9), (1, 1, 1))(src, dst)
        # The extra mass pulled from the +x wall went into direction -x.
        assert dst[abar, 1, 1, 1] > src[abar, 1, 1, 1] + 0.05

    def test_mass_conserved_in_closed_box(self):
        cells = (4, 4, 4)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        ff.data[ff.data == 0] = fl.NO_SLIP
        bh = BoundaryHandling(D3Q19, ff, [NoSlip()])
        rng = np.random.default_rng(3)
        src = np.zeros((19, 6, 6, 6))
        shape = src.shape[1:]
        u0 = 0.05 * (rng.random(shape + (3,)) - 0.5)
        src[...] = equilibrium(D3Q19, np.ones(shape), u0)
        dst = np.zeros_like(src)
        kern = make_kernel("vectorized", D3Q19, TRT.from_tau(0.8), cells)
        mask = ff.fluid_mask()
        m0 = interior(src)[:, mask].sum()
        for _ in range(20):
            bh.apply(src)
            kern(src, dst)
            src, dst = dst, src
        m1 = interior(src)[:, mask].sum()
        assert np.isclose(m1, m0, rtol=1e-12)


class TestUBB:
    def test_moving_wall_injects_momentum(self):
        cells = (4, 4, 4)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        d = ff.data
        d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, :, 0] = fl.NO_SLIP
        d[:, :, -1] = fl.VELOCITY_BC
        bh = BoundaryHandling(
            D3Q19, ff, [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]
        )
        src = np.zeros((19, 6, 6, 6))
        shape = src.shape[1:]
        src[...] = equilibrium(D3Q19, np.ones(shape), np.zeros(shape + (3,)))
        dst = np.zeros_like(src)
        kern = make_kernel("vectorized", D3Q19, TRT.from_tau(0.8), cells)
        for _ in range(10):
            bh.apply(src)
            kern(src, dst)
            src, dst = dst, src
        e = D3Q19.velocities.astype(float)
        jx = np.tensordot(interior(src), e[:, 0], axes=(0, 0))
        # Net +x momentum appears, strongest near the moving lid (z = max).
        assert jx[:, :, -1].mean() > 1e-4
        assert jx[:, :, -1].mean() > jx[:, :, 0].mean()

    def test_wrong_velocity_dim_rejected(self):
        cells = (2, 2, 2)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        ff.data[:, :, 0] = fl.VELOCITY_BC
        with pytest.raises(ConfigurationError, match="components"):
            BoundaryHandling(D3Q19, ff, [UBB(velocity=(0.1, 0.0))])

    def test_wrong_velocity_dim_rejected_without_links(self):
        """A block with no UBB links rejects the condition too, so every
        rank of an SPMD run fails alike."""
        ff = FlagField((2, 2, 2))
        ff.fill(fl.FLUID)
        with pytest.raises(ConfigurationError, match="components"):
            BoundaryHandling(D3Q19, ff, [NoSlip(), UBB(velocity=(0.1, 0.0))])


class TestPressureABB:
    def test_prescribed_density_pulls_towards_rho_w(self):
        # A box at rho = 1 with one pressure face at rho_w = 1.02: density
        # near that face must rise.
        cells = (4, 4, 8)
        ff = FlagField(cells)
        ff.fill(fl.FLUID)
        d = ff.data
        d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, :, -1] = fl.NO_SLIP
        d[:, :, 0] = fl.PRESSURE_BC
        bh = BoundaryHandling(D3Q19, ff, [NoSlip(), PressureABB(rho_w=1.02)])
        src = np.zeros((19, 6, 6, 10))
        shape = src.shape[1:]
        src[...] = equilibrium(D3Q19, np.ones(shape), np.zeros(shape + (3,)))
        dst = np.zeros_like(src)
        kern = make_kernel("vectorized", D3Q19, TRT.from_tau(0.8), cells)
        for _ in range(10):
            bh.apply(src)
            kern(src, dst)
            src, dst = dst, src
        rho = interior(src).sum(axis=0)
        near = rho[:, :, 0].mean()
        far = rho[:, :, -1].mean()
        assert near > 1.005
        assert near > far


needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler ('cc') on PATH"
)
CONDITIONS = [NoSlip(), UBB(velocity=(0.05, -0.02, 0.01)), PressureABB(rho_w=1.02)]


#: Padded extent of :func:`mixed_flags`' default block.
PADDED = (8, 7, 9)


def mixed_flags(cells=(6, 5, 7)):
    """Every condition on the ghost shell and on interior obstacles."""
    ff = FlagField(cells)
    ff.fill(fl.FLUID)
    d = ff.data
    d[0], d[-1] = fl.NO_SLIP, fl.PRESSURE_BC
    d[:, 0], d[:, -1] = fl.NO_SLIP, fl.VELOCITY_BC
    d[:, :, 0], d[:, :, -1] = fl.PRESSURE_BC, fl.VELOCITY_BC
    d[3, 2:4, 3] = fl.NO_SLIP
    d[2, 3, 5] = fl.PRESSURE_BC
    d[4, 1, 1] = fl.VELOCITY_BC
    return ff


def both_handlers(monkeypatch, ff, conditions):
    """The compiled and the NumPy boundary handling of one block."""
    fast = BoundaryHandling(D3Q19, ff, conditions)
    with monkeypatch.context() as m:
        m.setattr(compiled, "_build", compiled._Build(reason="forced failure"))
        slow = BoundaryHandling(D3Q19, ff, conditions)
    return fast, slow


def applied(handler, src):
    out = src.copy()
    handler.apply(out)
    return out


@needs_cc
class TestCompiledBoundary:
    """The compiled link loops give the NumPy path's bits."""

    @pytest.mark.parametrize(
        "conditions",
        [[CONDITIONS[0]], [CONDITIONS[1]], [CONDITIONS[2]], CONDITIONS],
        ids=["noslip", "ubb", "pressure", "all"],
    )
    def test_matches_numpy(self, monkeypatch, conditions):
        ff = mixed_flags()
        fast, slow = both_handlers(monkeypatch, ff, conditions)
        assert fast.link_count == slow.link_count > 0
        src = random_pdfs(np.random.default_rng(5), D3Q19, ff.cells)
        out = applied(fast, src)
        assert np.array_equal(out, applied(slow, src))
        assert not np.array_equal(out, src)

    def test_ghost_shell_walls(self, monkeypatch):
        ff = make_channel_flags((4, 5, 6))
        ff.data[0] = fl.VELOCITY_BC
        ff.data[-1] = fl.PRESSURE_BC
        fast, slow = both_handlers(monkeypatch, ff, CONDITIONS)
        assert fast.writes_ghost_cells()
        src = random_pdfs(np.random.default_rng(6), D3Q19, ff.cells)
        assert np.array_equal(applied(fast, src), applied(slow, src))

    def test_pressure_next_to_zero_density(self, monkeypatch):
        """Zero density makes u = j / rho 0/0 or +-inf; both paths zero
        it (the ``isfinite`` guard)."""
        ff = mixed_flags()
        fast, slow = both_handlers(monkeypatch, ff, CONDITIONS)
        src = random_pdfs(np.random.default_rng(7), D3Q19, ff.cells)
        src[:, 1, 2, 1] = 0.0  # rho = 0, j = 0: 0/0
        src[:, 1, 3, 1] = 0.0
        a, abar = D3Q19.direction_index(1, 0, 0), D3Q19.direction_index(-1, 0, 0)
        src[a, 1, 3, 1], src[abar, 1, 3, 1] = 0.1, -0.1  # rho = 0, jx != 0
        with np.errstate(all="raise"):
            out = applied(slow, src)
        assert np.isfinite(out).all()
        assert np.array_equal(applied(fast, src), out)

    def test_matches_numpy_over_time(self, monkeypatch):
        ff = mixed_flags()
        fast, slow = both_handlers(monkeypatch, ff, CONDITIONS)
        kern = make_kernel("compiled", D3Q19, TRT.from_tau(0.8), ff.cells)
        fields = []
        for handler in (fast, slow):
            src = random_pdfs(np.random.default_rng(8), D3Q19, ff.cells)
            dst = np.zeros_like(src)
            for _ in range(5):
                handler.apply(src)
                kern(src, dst)
                src, dst = dst, src
            fields.append(src)
        assert np.array_equal(*fields)

    @pytest.fixture
    def handler(self):
        return BoundaryHandling(D3Q19, mixed_flags(), CONDITIONS)

    def test_float32_rejected(self, handler):
        with pytest.raises(ValueError, match="float64"):
            handler.apply(np.full((19,) + PADDED, 0.05, dtype=np.float32))

    def test_read_only_rejected(self, handler):
        src = np.full((19,) + PADDED, 0.05)
        src.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            handler.apply(src)

    def test_misaligned_rejected(self, handler):
        n = 19 * 8 * 7 * 9
        raw = np.zeros(8 * n + 1, dtype=np.uint8)
        src = np.frombuffer(raw.data, dtype=np.float64, count=n, offset=1)
        with pytest.raises(ValueError, match="aligned"):
            handler.apply(src.reshape((19,) + PADDED))


class TestFieldChecks:
    def test_non_contiguous_rejected(self):
        handler = BoundaryHandling(D3Q19, mixed_flags(), CONDITIONS)
        with pytest.raises(ValueError, match="C-contiguous"):
            handler.apply(np.asfortranarray(np.full((19,) + PADDED, 0.05)))
        buf = np.full((19, 8, 7, 18), 0.05)
        with pytest.raises(ValueError, match="C-contiguous"):
            handler.apply(buf[..., ::2])

    def test_shape_mismatch_rejected(self):
        handler = BoundaryHandling(D3Q19, mixed_flags(), CONDITIONS)
        with pytest.raises(ValueError, match="shape"):
            handler.apply(np.full((19, 8, 7, 10), 0.05))


class TestReplace:
    def test_coefficients_follow_the_new_condition(self, monkeypatch):
        ff = mixed_flags()
        old = CONDITIONS[1]
        new = UBB(velocity=(-0.04, 0.03, 0.0))
        for handler in both_handlers(monkeypatch, ff, CONDITIONS):
            assert handler.replace(old, new) == 1
            assert handler.conditions == (CONDITIONS[0], new, CONDITIONS[2])
            fresh = BoundaryHandling(D3Q19, ff, [CONDITIONS[0], new, CONDITIONS[2]])
            src = random_pdfs(np.random.default_rng(9), D3Q19, ff.cells)
            assert np.array_equal(applied(handler, src), applied(fresh, src))

    def test_pressure_update(self):
        ff = mixed_flags()
        handler = BoundaryHandling(D3Q19, ff, CONDITIONS)
        new = PressureABB(rho_w=0.99)
        assert handler.replace(CONDITIONS[2], new) == 1
        fresh = BoundaryHandling(D3Q19, ff, [CONDITIONS[0], CONDITIONS[1], new])
        src = random_pdfs(np.random.default_rng(10), D3Q19, ff.cells)
        assert np.array_equal(applied(handler, src), applied(fresh, src))

    def test_rejections(self):
        handler = BoundaryHandling(D3Q19, mixed_flags(), CONDITIONS)
        with pytest.raises(ConfigurationError, match="flag bit"):
            handler.replace(CONDITIONS[1], PressureABB(rho_w=1.0))
        with pytest.raises(ConfigurationError, match="components"):
            handler.replace(CONDITIONS[1], UBB(velocity=(0.1, 0.0)))
        assert handler.replace(UBB(velocity=(9.0, 0.0, 0.0)), UBB(velocity=(1, 0, 0))) == 0
        assert handler.conditions == tuple(CONDITIONS)

    def test_conditions_are_read_only(self):
        handler = BoundaryHandling(D3Q19, mixed_flags(), CONDITIONS)
        with pytest.raises(TypeError):
            handler.conditions[0] = NoSlip()


class TestWritesGhostCells:
    def test_ghost_walls(self):
        handler = BoundaryHandling(D3Q19, make_channel_flags((3, 3, 3)), [NoSlip()])
        assert handler.writes_ghost_cells()

    def test_interior_walls_only(self):
        ff = FlagField((4, 4, 4))
        ff.fill(fl.FLUID)
        ff.data[2, 2, 2] = fl.NO_SLIP
        handler = BoundaryHandling(D3Q19, ff, [NoSlip()])
        assert handler.link_count == 18
        assert not handler.writes_ghost_cells()

    def test_no_links(self):
        ff = FlagField((3, 3, 3))
        ff.fill(fl.FLUID)
        assert not BoundaryHandling(D3Q19, ff, [NoSlip()]).writes_ghost_cells()
