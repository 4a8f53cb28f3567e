"""Tests for the three sparse-block kernel strategies (§4.3), and for
the compiled backend of ``interval`` bit for bit against its NumPy one."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation
from repro.core.flags import FlagField
from repro.core.schedule import make_block_kernel
from repro.geometry import CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, UBB
from repro.lbm.collision import SRT, TRT
from repro.lbm.kernels import (
    ConditionalSparseKernel,
    IndexListSparseKernel,
    IntervalSparseKernel,
    compiled,
    fluid_intervals,
    make_kernel,
)
from repro.lbm.kernels.sparse import fluid_runs
from repro.lbm.lattice import D3Q19

from helpers import interior, random_pdfs

STRATEGIES = [ConditionalSparseKernel, IndexListSparseKernel, IntervalSparseKernel]
IDS = ["conditional", "indexlist", "interval"]
HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler ('cc') on PATH")


def tube_mask(cells, radius=1.6):
    """A cylinder along z through the block center — consecutive fluid runs."""
    nx, ny, nz = cells
    x, y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    disk = (x - nx / 2 + 0.5) ** 2 + (y - ny / 2 + 0.5) ** 2 <= radius**2
    return np.broadcast_to(disk[:, :, None], cells).copy()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


class TestAgainstDense:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=IDS)
    @pytest.mark.parametrize("collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"])
    def test_fluid_cells_match_dense(self, strategy, collision, rng):
        cells = (6, 6, 6)
        mask = tube_mask(cells)
        src = random_pdfs(rng, D3Q19, cells)
        dense_dst = np.zeros_like(src)
        make_kernel("d3q19", D3Q19, collision, cells)(src, dense_dst)
        sparse_dst = np.zeros_like(src)
        strategy(mask, collision)(src, sparse_dst)
        d = interior(dense_dst)[:, mask]
        s = interior(sparse_dst)[:, mask]
        assert np.allclose(s, d, atol=1e-13)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=IDS)
    def test_non_fluid_cells_untouched(self, strategy, rng):
        cells = (6, 6, 6)
        mask = tube_mask(cells)
        src = random_pdfs(rng, D3Q19, cells)
        dst = np.full_like(src, -7.0)
        strategy(mask, SRT(0.8))(src, dst)
        # Interval kernel may write superfluous run cells *only* if they are
        # fluid; all strategies must leave non-fluid interior cells alone.
        untouched = interior(dst)[:, ~mask]
        assert np.all(untouched == -7.0)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=IDS)
    def test_full_mask_equals_dense(self, strategy, rng):
        """Packed strategies collide in the vectorized tier's operation
        order, so on an all-fluid block they give its bits; the
        conditional strategy runs the d3q19 tier."""
        cells = (5, 4, 6)
        mask = np.ones(cells, dtype=bool)
        src = random_pdfs(rng, D3Q19, cells)
        dense_dst = np.zeros_like(src)
        tier = "d3q19" if strategy is ConditionalSparseKernel else "vectorized"
        make_kernel(tier, D3Q19, TRT.from_tau(0.9), cells)(src, dense_dst)
        sparse_dst = np.zeros_like(src)
        strategy(mask, TRT.from_tau(0.9))(src, sparse_dst)
        if strategy is ConditionalSparseKernel:
            assert np.allclose(interior(sparse_dst), interior(dense_dst), atol=1e-13)
        else:
            assert np.array_equal(interior(sparse_dst), interior(dense_dst))

    def test_empty_mask_is_noop(self, rng):
        cells = (4, 4, 4)
        mask = np.zeros(cells, dtype=bool)
        src = random_pdfs(rng, D3Q19, cells)
        dst = np.full_like(src, 3.0)
        IntervalSparseKernel(mask, SRT(0.8))(src, dst)
        assert np.all(dst == 3.0)
        dst2 = np.full_like(src, 3.0)
        IndexListSparseKernel(mask, SRT(0.8))(src, dst2)
        assert np.all(dst2 == 3.0)


class TestIntervals:
    def test_simple_runs(self):
        mask = np.zeros((2, 2, 8), dtype=bool)
        mask[0, 0, 2:5] = True
        mask[1, 1, 0] = True
        mask[1, 1, 7] = True
        iv = fluid_intervals(mask)
        assert iv == [(0, 0, 2, 5), (1, 1, 0, 8)]

    def test_empty(self):
        assert fluid_intervals(np.zeros((2, 2, 2), dtype=bool)) == []
        assert fluid_runs(np.zeros((2, 2, 2), dtype=bool)).shape == (0, 4)

    def test_runs_split_at_gaps(self):
        mask = np.zeros((2, 2, 8), dtype=bool)
        mask[0, 0, 2:5] = True
        mask[1, 1, 0] = True
        mask[1, 1, 6:] = True
        runs = fluid_runs(mask)
        assert runs.dtype == np.int64
        assert runs.tolist() == [[0, 0, 2, 3], [1, 1, 0, 1], [1, 1, 6, 2]]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.floats(0.0, 1.0))
    def test_runs_and_intervals_match_line_loops(self, seed, p):
        """The vectorized run and interval builders against per-line
        Python loops."""
        mask = np.random.default_rng(seed).random((3, 4, 7)) < p
        runs, intervals = [], []
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                z = np.flatnonzero(mask[i, j])
                if z.size:
                    intervals.append((i, j, int(z[0]), int(z[-1]) + 1))
                for block in np.split(z, np.flatnonzero(np.diff(z) > 1) + 1):
                    if block.size:
                        runs.append([i, j, int(block[0]), block.size])
        assert fluid_intervals(mask) == intervals
        assert fluid_runs(mask).tolist() == runs

    def test_gappy_run_counts(self):
        # A run with interior gaps: interval covers the gap cells but the
        # kernel must only write back the true fluid ones.
        mask = np.zeros((1, 1, 10), dtype=bool)
        mask[0, 0, [1, 2, 5, 6]] = True
        k = IntervalSparseKernel(mask, SRT(0.8))
        assert k.fluid_cells == 4
        assert k.run_width == 6
        assert k.processed_cells == 6

    def test_accounting(self):
        cells = (6, 6, 6)
        mask = tube_mask(cells)
        cond = ConditionalSparseKernel(mask, SRT(0.8))
        idx = IndexListSparseKernel(mask, SRT(0.8))
        itv = IntervalSparseKernel(mask, SRT(0.8))
        n_fluid = int(mask.sum())
        assert cond.fluid_cells == idx.fluid_cells == itv.fluid_cells == n_fluid
        assert cond.processed_cells == mask.size
        assert idx.processed_cells == n_fluid
        assert itv.processed_cells >= n_fluid


class TestSparseValidation:
    def test_non_boolean_mask_rejected(self, rng):
        cells = (4, 4, 4)
        src = random_pdfs(rng, D3Q19, cells)
        k = IndexListSparseKernel(np.ones(cells, dtype=bool), SRT(0.8))
        k.mask = np.ones(cells, dtype=np.int32)  # corrupt it
        with pytest.raises(TypeError):
            k(src, np.zeros_like(src))

    def test_mask_shape_mismatch_rejected(self, rng):
        cells = (4, 4, 4)
        src = random_pdfs(rng, D3Q19, cells)
        k = IndexListSparseKernel(np.ones((3, 3, 3), dtype=bool), SRT(0.8))
        with pytest.raises(ValueError):
            k(src, np.zeros_like(src))


class TestSparseProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.floats(0.1, 0.9))
    def test_random_masks_match_dense(self, seed, p):
        rng = np.random.default_rng(seed)
        cells = (4, 4, 5)
        mask = rng.random(cells) < p
        if not mask.any():
            mask[0, 0, 0] = True
        src = random_pdfs(rng, D3Q19, cells)
        dense = np.zeros_like(src)
        make_kernel("d3q19", D3Q19, SRT(0.8), cells)(src, dense)
        for strategy in STRATEGIES:
            out = np.zeros_like(src)
            strategy(mask, SRT(0.8))(src, out)
            assert np.allclose(
                interior(out)[:, mask], interior(dense)[:, mask], atol=1e-12
            )


def _interval_pair(mask, collision):
    """The NumPy and the compiled backend of ``interval``."""
    return (
        IntervalSparseKernel(mask, collision),
        compiled.CompiledIntervalKernel(mask, collision),
    )


def _both_outputs(mask, collision, src, fill=-7.0):
    """Whole ``dst`` arrays of both backends, from a sentinel fill."""
    outs = []
    for kernel in _interval_pair(mask, collision):
        dst = np.full_like(src, fill)
        kernel(src, dst)
        outs.append(dst)
    return outs


@needs_cc
class TestCompiledInterval:
    """The compiled ``interval`` sweep against the NumPy one, on whole
    arrays: every fluid cell bit for bit, every other value untouched."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.floats(0.05, 1.0),
        trt=st.booleans(),
        cells=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9)),
    )
    def test_gappy_masks(self, seed, p, trt, cells):
        rng = np.random.default_rng(seed)
        mask = rng.random(cells) < p
        collision = TRT.from_tau(0.7) if trt else SRT(0.8)
        src = random_pdfs(rng, D3Q19, cells)
        numpy_dst, compiled_dst = _both_outputs(mask, collision, src)
        assert np.array_equal(compiled_dst, numpy_dst)

    @pytest.mark.parametrize("collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"])
    def test_single_cell_runs(self, collision, rng):
        cells = (4, 5, 8)
        mask = np.zeros(cells, dtype=bool)
        mask[:, :, ::2] = True  # every run is one cell long
        src = random_pdfs(rng, D3Q19, cells)
        numpy_dst, compiled_dst = _both_outputs(mask, collision, src)
        assert len(fluid_runs(mask)) == mask.sum()
        assert np.array_equal(compiled_dst, numpy_dst)

    @pytest.mark.parametrize("collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"])
    def test_runs_touching_block_faces(self, collision, rng):
        cells = (5, 4, 7)
        mask = np.zeros(cells, dtype=bool)
        mask[0, :, :] = True   # x faces
        mask[-1, :, 3:] = True
        mask[:, 0, :2] = True  # y face, run from z = 0
        mask[:, -1, -2:] = True  # y face, run up to z = nz - 1
        src = random_pdfs(rng, D3Q19, cells)
        numpy_dst, compiled_dst = _both_outputs(mask, collision, src)
        assert np.array_equal(compiled_dst, numpy_dst)
        assert np.all(interior(compiled_dst)[:, ~mask] == -7.0)

    def test_empty_mask_is_noop(self, rng):
        cells = (3, 4, 5)
        src = random_pdfs(rng, D3Q19, cells)
        numpy_dst, compiled_dst = _both_outputs(np.zeros(cells, dtype=bool), SRT(0.8), src)
        assert np.all(compiled_dst == -7.0)
        assert np.array_equal(compiled_dst, numpy_dst)

    def test_full_mask_equals_compiled_dense(self, rng):
        cells = (6, 5, 7)
        src = random_pdfs(rng, D3Q19, cells)
        dense = np.zeros_like(src)
        make_kernel("compiled", D3Q19, TRT.from_tau(0.9), cells)(src, dense)
        sparse = np.zeros_like(src)
        compiled.CompiledIntervalKernel(np.ones(cells, dtype=bool), TRT.from_tau(0.9))(src, sparse)
        assert np.array_equal(sparse, dense)

    def test_same_accounting_as_numpy(self):
        mask = tube_mask((6, 6, 6))
        mask[2, 3, 1] = False  # a gap inside a run
        numpy_k, compiled_k = _interval_pair(mask, SRT(0.8))
        assert compiled_k.name == numpy_k.name == "interval"
        for attr in ("fluid_cells", "processed_cells", "run_width", "intervals"):
            assert getattr(compiled_k, attr) == getattr(numpy_k, attr)


@needs_cc
class TestCompiledIntervalArguments:
    """Bad arguments are rejected before any pointer reaches C."""

    @pytest.fixture
    def kernel(self):
        return compiled.CompiledIntervalKernel(tube_mask((4, 4, 4)), SRT(0.8))

    def test_float32_rejected(self, kernel):
        src = np.full((19, 6, 6, 6), 0.05, dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            kernel(src, np.zeros_like(src))

    def test_non_contiguous_rows_rejected(self, kernel):
        src = np.asfortranarray(np.full((19, 6, 6, 6), 0.05))
        with pytest.raises(ValueError, match="contiguous rows"):
            kernel(src, np.asfortranarray(np.zeros_like(src)))
        buf = np.full((19, 6, 6, 12), 0.05)
        with pytest.raises(ValueError, match="contiguous rows"):
            kernel(buf[..., ::2], np.zeros_like(buf)[..., ::2])

    def test_overlapping_views_rejected(self, kernel):
        buf = np.full((19, 6, 6, 7), 0.05)
        with pytest.raises(ValueError, match="overlap"):
            kernel(buf[..., :6], buf[..., 1:])

    def test_read_only_dst_rejected(self, kernel):
        src = np.full((19, 6, 6, 6), 0.05)
        dst = np.zeros_like(src)
        dst.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            kernel(src, dst)

    def test_mask_shape_mismatch_rejected(self, kernel):
        src = np.full((19, 7, 6, 6), 0.05)
        with pytest.raises(ValueError, match="mask shape"):
            kernel(src, np.zeros_like(src))


def _forced_failed_build(monkeypatch):
    """Make this process's compiled build look failed (NumPy backends)."""
    monkeypatch.setattr(compiled, "_build", compiled._Build(reason="forced failure"))


class TestIntervalBackendChoice:
    @staticmethod
    def _sparse_block():
        ff = FlagField((4, 4, 4))
        ff.fill(fl.FLUID)
        ff.interior[0] = fl.OUTSIDE
        return ff

    def test_compiled_when_built(self):
        if not HAS_CC:
            pytest.skip("no C compiler ('cc') on PATH")
        ff = self._sparse_block()
        name, kernel = make_block_kernel(ff, ff.fluid_mask(), D3Q19, SRT(0.8))
        assert name == "interval"
        assert isinstance(kernel, compiled.CompiledIntervalKernel)

    def test_numpy_without_build(self, monkeypatch):
        _forced_failed_build(monkeypatch)
        ff = self._sparse_block()
        name, kernel = make_block_kernel(ff, ff.fluid_mask(), D3Q19, SRT(0.8))
        assert name == "interval"
        assert isinstance(kernel, IntervalSparseKernel)


def _coronary_run(steps=15):
    """A small coronary tree: interval blocks, all three conditions."""
    geom = CapsuleTreeGeometry(CoronaryTree.generate(generations=2, seed=4))
    forest = SetupBlockForest.create(geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom)
    balance_forest(forest, 2, strategy="metis")
    sim = DistributedSimulation(
        forest,
        TRT.from_tau(0.8),
        geometry=geom,
        boundaries=[NoSlip(), UBB(velocity=(0.0, 0.0, 0.02)), PressureABB(rho_w=1.0)],
    )
    try:
        sim.run(steps)
        kernels = {type(rt.kernel) for rt in sim.runtimes.values()}
        links = sum(rt.handler.link_count for rt in sim.runtimes.values())
        return kernels, links, {k: f.src.copy() for k, f in sim.fields.items()}
    finally:
        sim.close()


def test_coronary_run_same_bits_with_and_without_build(monkeypatch):
    """Kernels and boundary loops of a coronary-like run, compiled or
    NumPy, give the same PDF arrays."""
    kernels, links, fields = _coronary_run()
    _forced_failed_build(monkeypatch)
    numpy_kernels, numpy_links, numpy_fields = _coronary_run()
    assert IntervalSparseKernel in numpy_kernels
    assert compiled.CompiledIntervalKernel not in numpy_kernels
    if HAS_CC:
        assert compiled.CompiledIntervalKernel in kernels
    assert links == numpy_links > 0
    assert fields.keys() == numpy_fields.keys()
    for key in fields:
        assert np.array_equal(fields[key], numpy_fields[key])
