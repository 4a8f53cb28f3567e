"""Kernel-tier correctness tests: every optimized kernel against the
pure-Python reference, conservation laws, and equilibrium invariance;
the compiled tier bit for bit against the vectorized tier."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flagdefs as fl
from repro.core import Simulation
from repro.errors import ConfigurationError
from repro.exec import slab_boxes
from repro.lbm.collision import SRT, TRT
from repro.lbm.kernels import (
    alloc_pdf_field,
    compiled,
    default_dense_kernel,
    make_kernel,
    pull_slices,
)
from repro.lbm.kernels.common import check_pdf_args, interior_partition, region_view
from repro.lbm.kernels.generic import generic_step
from repro.lbm.kernels.reference import reference_step
from repro.lbm.lattice import D2Q9, D3Q19, D3Q27
from repro.lbm.equilibrium import equilibrium

from helpers import interior, periodic_ghost_fill, random_pdfs

COLLISIONS = [SRT(tau=0.8), TRT.from_tau(0.8), TRT(lambda_e=-1.6, lambda_o=-0.7)]
#: The compiled tier needs a C compiler; without one it is skipped here
#: and the fallback is tested instead (TestCompiledDefault).
HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler ('cc') on PATH")
OPT_TIERS = [
    "generic", "d3q19", "vectorized", pytest.param("compiled", marks=needs_cc),
]


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


class TestAgainstReference:
    @pytest.mark.parametrize("tier", OPT_TIERS)
    @pytest.mark.parametrize("collision", COLLISIONS, ids=["srt", "trt", "trt2"])
    def test_matches_reference(self, tier, collision, rng):
        cells = (4, 5, 3)
        src = random_pdfs(rng, D3Q19, cells)
        ref_dst = np.zeros_like(src)
        reference_step(D3Q19, src, ref_dst, collision)
        k = make_kernel(tier, D3Q19, collision, cells)
        dst = np.zeros_like(src)
        k(src, dst)
        assert np.allclose(interior(dst), interior(ref_dst), atol=1e-13)

    @pytest.mark.parametrize("model", [D3Q27, D2Q9], ids=lambda m: m.name)
    def test_generic_other_models(self, model, rng):
        cells = (4, 4, 4)[: model.dim]
        src = random_pdfs(rng, model, cells)
        ref_dst = np.zeros_like(src)
        reference_step(model, src, ref_dst, TRT.from_tau(0.9))
        dst = np.zeros_like(src)
        generic_step(model, src, dst, TRT.from_tau(0.9))
        assert np.allclose(interior(dst), interior(ref_dst), atol=1e-13)


class TestPhysicalInvariants:
    @pytest.mark.parametrize("tier", OPT_TIERS)
    def test_equilibrium_is_fixed_point(self, tier):
        cells = (6, 6, 6)
        u = np.array([0.04, -0.02, 0.01])
        src = alloc_pdf_field(D3Q19, cells)
        shape = src.shape[1:]
        rho = np.ones(shape)
        uf = np.broadcast_to(u, shape + (3,))
        src[...] = equilibrium(D3Q19, rho, uf)
        k = make_kernel(tier, D3Q19, TRT.from_tau(0.7), cells)
        dst = np.zeros_like(src)
        k(src, dst)
        # A uniform equilibrium streams into itself and collides into itself.
        assert np.allclose(interior(dst), interior(src), atol=1e-13)

    @pytest.mark.parametrize("tier", OPT_TIERS)
    @pytest.mark.parametrize("collision", COLLISIONS, ids=["srt", "trt", "trt2"])
    def test_mass_and_momentum_conserved_periodic(self, tier, collision, rng):
        cells = (5, 5, 5)
        src = random_pdfs(rng, D3Q19, cells)
        periodic_ghost_fill(src)
        k = make_kernel(tier, D3Q19, collision, cells)
        dst = np.zeros_like(src)
        k(src, dst)
        mass0 = interior(src).sum()
        mass1 = interior(dst).sum()
        assert np.isclose(mass1, mass0, rtol=1e-12)
        e = D3Q19.velocities.astype(float)
        j0 = np.tensordot(interior(src).reshape(19, -1).sum(axis=1), e, axes=(0, 0))
        j1 = np.tensordot(interior(dst).reshape(19, -1).sum(axis=1), e, axes=(0, 0))
        assert np.allclose(j0, j1, atol=1e-10)

    def test_trt_reduces_to_srt(self, rng):
        # lambda_e = lambda_o = -1/tau makes TRT identical to SRT (eq. 8).
        cells = (4, 4, 4)
        src = random_pdfs(rng, D3Q19, cells)
        d_srt = np.zeros_like(src)
        d_trt = np.zeros_like(src)
        k1 = make_kernel("vectorized", D3Q19, SRT(tau=0.73), cells)
        k2 = make_kernel("vectorized", D3Q19, TRT.srt_equivalent(0.73), cells)
        k1(src, d_srt)
        k2(src, d_trt)
        assert np.allclose(interior(d_srt), interior(d_trt), atol=1e-14)


class TestStreaming:
    def test_pull_moves_data_one_cell(self):
        # A pulse in direction a at cell x must arrive at x + e_a.
        cells = (5, 5, 5)
        src = alloc_pdf_field(D3Q19, cells)
        a = D3Q19.direction_index(1, 0, 0)
        # Uniform rest background (so density is positive everywhere) plus a
        # pulse in direction a; tau -> inf makes collision a near no-op.
        src[0] = 1.0
        src[a, 2, 3, 3] += 1.0
        dst = np.zeros_like(src)
        k = make_kernel("d3q19", D3Q19, SRT(tau=1e9), cells)
        k(src, dst)
        # The pulse should now be at (3, 3, 3).
        assert dst[a, 3, 3, 3] > 0.99
        assert abs(dst[a, 2, 3, 3]) < 1e-6

    def test_pull_slices_shapes(self):
        for a in range(19):
            sl = pull_slices(D3Q19.velocities[a])
            arr = np.zeros((7, 8, 9))
            assert arr[sl].shape == (5, 6, 7)


class TestValidation:
    def test_mismatched_shapes_rejected(self):
        a = np.zeros((19, 5, 5, 5))
        b = np.zeros((19, 5, 5, 6))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, b)

    def test_same_array_rejected(self):
        a = np.zeros((19, 5, 5, 5))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, a)

    def test_wrong_q_rejected(self):
        a = np.zeros((9, 5, 5, 5))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, a.copy())

    def test_too_small_extent_rejected(self):
        a = np.zeros((19, 2, 5, 5))
        with pytest.raises(ValueError):
            check_pdf_args(D3Q19, a, a.copy())

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            make_kernel("warp", D3Q19, SRT(0.8))

    def test_d3q19_tier_needs_d3q19(self):
        with pytest.raises(ValueError):
            make_kernel("d3q19", D3Q27, SRT(0.8))

    def test_vectorized_needs_cells(self):
        with pytest.raises(ValueError):
            make_kernel("vectorized", D3Q19, SRT(0.8))

    def test_vectorized_shape_checked(self):
        k = make_kernel("vectorized", D3Q19, SRT(0.8), (4, 4, 4))
        # Invalid argument pairs are still rejected ...
        with pytest.raises(ValueError):
            k(np.zeros((18, 6, 6, 6)), np.zeros((18, 6, 6, 6)))
        bad = np.zeros((19, 6, 6, 6))
        with pytest.raises(ValueError):
            k(bad, bad)  # src is dst
        # ... but other *valid* interior shapes are now accepted: the
        # kernel caches scratch per (worker thread, shape) so it can run
        # on subregion views for communication/computation overlap.
        src = np.full((19, 7, 6, 6), 0.05)
        k(src, np.zeros_like(src))
        shapes = k.scratch_shapes()
        assert (5, 4, 4) in shapes and (4, 4, 4) in shapes


class TestKernelProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        tau=st.floats(0.55, 3.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_vectorized_matches_reference_random(self, tau, seed):
        rng = np.random.default_rng(seed)
        cells = (3, 4, 3)
        src = random_pdfs(rng, D3Q19, cells)
        collision = TRT.from_tau(tau)
        ref = np.zeros_like(src)
        reference_step(D3Q19, src, ref, collision)
        k = make_kernel("vectorized", D3Q19, collision, cells)
        dst = np.zeros_like(src)
        k(src, dst)
        assert np.allclose(interior(dst), interior(ref), atol=1e-12)


def _pair(rng, cells):
    """A random source field and a zero destination of the same shape."""
    src = random_pdfs(rng, D3Q19, cells)
    return src, np.zeros_like(src)


def _both_tiers(collision, cells):
    return (
        make_kernel("vectorized", D3Q19, collision, cells),
        make_kernel("compiled", D3Q19, collision, cells),
    )


@needs_cc
class TestCompiledBitIdentity:
    """The compiled tier performs the vectorized tier's IEEE operations
    in the same order: results are equal bit for bit, not just close."""

    @pytest.mark.parametrize("collision", COLLISIONS, ids=["srt", "trt", "trt2"])
    @pytest.mark.parametrize(
        "cells", [(16, 16, 16), (5, 9, 3), (1, 7, 2), (11, 1, 1)], ids=str
    )
    def test_full_field(self, collision, cells, rng):
        vec, comp = _both_tiers(collision, cells)
        src, d_vec = _pair(rng, cells)
        d_comp = np.zeros_like(src)
        vec(src, d_vec)
        comp(src, d_comp)
        assert np.array_equal(d_comp, d_vec)

    @pytest.mark.parametrize("collision", COLLISIONS[:2], ids=["srt", "trt"])
    @pytest.mark.parametrize("shell", [1, 2])
    def test_interior_partition_boxes(self, collision, shell, rng):
        cells = (7, 6, 9)
        vec, comp = _both_tiers(collision, cells)
        src, d_vec = _pair(rng, cells)
        d_comp = np.zeros_like(src)
        inner, frontier = interior_partition(cells, shell=shell)
        for box in [inner] + frontier:
            vec(region_view(src, box), region_view(d_vec, box))
            comp(region_view(src, box), region_view(d_comp, box))
        full = np.zeros_like(src)
        vec(src, full)
        assert np.array_equal(d_comp, d_vec)
        assert np.array_equal(interior(d_comp), interior(full))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_slab_boxes(self, n, rng):
        cells = (9, 4, 6)
        vec, comp = _both_tiers(TRT.from_tau(0.7), cells)
        src, d_vec = _pair(rng, cells)
        d_comp = np.zeros_like(src)
        for box in slab_boxes(((0, 0, 0), cells), n):
            vec(region_view(src, box), region_view(d_vec, box))
            comp(region_view(src, box), region_view(d_comp, box))
        assert np.array_equal(d_comp, d_vec)


@needs_cc
class TestCompiledArguments:
    """Bad arguments are rejected before any pointer reaches C."""

    @pytest.fixture
    def kernel(self):
        return make_kernel("compiled", D3Q19, SRT(0.8))

    def test_float32_rejected(self, kernel):
        src = np.full((19, 5, 5, 5), 0.05, dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            kernel(src, np.zeros_like(src))

    def test_mismatched_strides_rejected(self, kernel):
        src = np.full((19, 5, 5, 5), 0.05)
        with pytest.raises(ValueError, match="strides"):
            kernel(src, np.asfortranarray(np.zeros_like(src)))

    def test_non_unit_innermost_stride_rejected(self, kernel):
        src = np.asfortranarray(np.full((19, 5, 5, 5), 0.05))
        with pytest.raises(ValueError, match="contiguous rows"):
            kernel(src, np.asfortranarray(np.zeros_like(src)))
        buf = np.full((19, 5, 5, 10), 0.05)
        with pytest.raises(ValueError, match="contiguous rows"):
            kernel(buf[..., ::2], np.zeros_like(buf)[..., ::2])

    def test_same_array_rejected(self, kernel):
        src = np.full((19, 5, 5, 5), 0.05)
        with pytest.raises(ValueError):
            kernel(src, src)

    def test_overlapping_views_rejected(self, kernel):
        buf = np.full((19, 5, 5, 6), 0.05)
        with pytest.raises(ValueError, match="overlap"):
            kernel(buf[..., :5], buf[..., 1:])

    def test_read_only_dst_rejected(self, kernel):
        src = np.full((19, 5, 5, 5), 0.05)
        dst = np.zeros_like(src)
        dst.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            kernel(src, dst)

    def test_misaligned_rejected(self, kernel):
        n = 19 * 5 * 5 * 5
        raw = np.zeros(8 * n + 1, dtype=np.uint8)
        src = np.frombuffer(raw.data, dtype=np.float64, count=n, offset=1)
        src = src.reshape(19, 5, 5, 5)
        with pytest.raises(ValueError, match="aligned"):
            kernel(src, np.zeros((19, 5, 5, 5)))

    def test_lattice_checked(self, kernel):
        with pytest.raises(ValueError):
            kernel(np.zeros((18, 6, 6, 6)), np.zeros((18, 6, 6, 6)))
        with pytest.raises(ValueError):
            make_kernel("compiled", D3Q27, SRT(0.8))


class TestCompiledDefault:
    def test_compiler_present_means_compiled_default(self):
        """A host with a C compiler must run the compiled tier: a build
        failure here would otherwise fall back silently."""
        if not HAS_CC:
            pytest.skip("no C compiler ('cc') on PATH")
        # Raises ConfigurationError with the build failure, if any.
        make_kernel("compiled", D3Q19, SRT(0.8))
        assert default_dense_kernel() == "compiled"

    def test_no_compiler_falls_back_to_vectorized(self, monkeypatch):
        def run():
            sim = Simulation(cells=(6, 5, 4), collision=TRT.from_tau(0.7))
            sim.flags.fill(fl.FLUID)
            sim.finalize(u=(0.02, -0.01, 0.03))
            sim.pdfs.src[...] += 1e-3 * np.random.default_rng(7).random(sim.pdfs.src.shape)
            sim.run(3)
            return sim.kernel_name, sim.pdfs.src.copy()

        # A fresh build attempt that finds no compiler on PATH.
        monkeypatch.setattr(compiled, "_build", None)
        monkeypatch.setattr(shutil, "which", lambda name, *a, **k: None)
        assert default_dense_kernel() == "vectorized"
        with pytest.raises(ConfigurationError, match="no C compiler"):
            make_kernel("compiled", D3Q19, SRT(0.8))
        name, fallback = run()
        assert name == "vectorized"
        # Back to this process's own build: same bits on the default tier.
        monkeypatch.undo()
        name, default = run()
        assert name == default_dense_kernel()
        assert np.array_equal(default, fallback)

    def test_unwritable_build_directory_falls_back(self, monkeypatch):
        """A compiler but no usable temporary directory: the build
        reports the reason instead of raising, the default falls back."""
        def no_tmp(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(compiled, "_build", None)
        monkeypatch.setattr(shutil, "which", lambda name, *a, **k: "cc")
        monkeypatch.setattr(compiled.tempfile, "mkdtemp", no_tmp)
        assert default_dense_kernel() == "vectorized"
        with pytest.raises(ConfigurationError, match="build directory"):
            make_kernel("compiled", D3Q19, SRT(0.8))
