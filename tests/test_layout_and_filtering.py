"""Tests for the AoS-layout kernel and direction-filtered communication
(the ablation machinery)."""

import numpy as np
import pytest

from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import COMM_MODES, DistributedSimulation
from repro.comm.ghostlayer import needed_directions
from repro.lbm import D3Q19, D3Q27, NoSlip, SRT, TRT
from repro.lbm.kernels import make_kernel
from repro.lbm.kernels.aos import aos_step, aos_to_soa, soa_to_aos

from helpers import interior, random_pdfs


class TestAosKernel:
    @pytest.mark.parametrize("collision", [SRT(0.8), TRT.from_tau(0.8)], ids=["srt", "trt"])
    def test_matches_soa(self, collision):
        rng = np.random.default_rng(3)
        cells = (4, 5, 6)
        src = random_pdfs(rng, D3Q19, cells)
        dst = np.zeros_like(src)
        make_kernel("d3q19", D3Q19, collision, cells)(src, dst)
        src_aos = soa_to_aos(src)
        dst_aos = np.zeros_like(src_aos)
        aos_step(D3Q19, src_aos, dst_aos, collision)
        assert np.allclose(
            interior(aos_to_soa(dst_aos)), interior(dst), atol=1e-14
        )

    def test_conversions_roundtrip(self):
        rng = np.random.default_rng(1)
        f = rng.random((19, 4, 5, 6))
        assert np.array_equal(aos_to_soa(soa_to_aos(f)), f)

    def test_validation(self):
        with pytest.raises(ValueError):
            aos_step(D3Q27, np.zeros((4, 4, 4, 27)), np.zeros((4, 4, 4, 27)), SRT(0.8))
        a = np.zeros((4, 4, 4, 19))
        with pytest.raises(ValueError):
            aos_step(D3Q19, a, a, SRT(0.8))
        with pytest.raises(ValueError):
            aos_step(D3Q19, np.zeros((2, 4, 4, 19)), np.zeros((2, 4, 4, 19)), SRT(0.8))


class TestNeededDirections:
    def test_face_needs_five_for_d3q19(self):
        dirs = needed_directions(D3Q19, (1, 0, 0))
        assert len(dirs) == 5
        for a in dirs:
            assert D3Q19.velocities[a][0] == -1

    def test_edge_needs_one(self):
        dirs = needed_directions(D3Q19, (1, -1, 0))
        assert len(dirs) == 1
        e = D3Q19.velocities[dirs[0]]
        assert e[0] == -1 and e[1] == 1

    def test_corner_needs_none_for_d3q19(self):
        assert needed_directions(D3Q19, (1, 1, 1)) == []

    def test_corner_needs_one_for_d3q27(self):
        dirs = needed_directions(D3Q27, (1, 1, 1))
        assert len(dirs) == 1
        assert np.array_equal(D3Q27.velocities[dirs[0]], (-1, -1, -1))

    def test_total_filtered_volume_fraction(self):
        # Sum over all 26 offsets, weighted by region size, gives the
        # data reduction factor for a face-dominated exchange.
        total = sum(
            len(needed_directions(D3Q19, (dx, dy, dz)))
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
            if (dx, dy, dz) != (0, 0, 0)
        )
        # 6 faces x 5 + 12 edges x 1 + 8 corners x 0 = 42 direction-regions
        assert total == 42


class TestFilteredSimulation:
    @staticmethod
    def _assert_same_interiors(sims):
        plain, filtered = sims
        for key, field in plain.fields.items():
            assert np.array_equal(
                interior(field.src), interior(filtered.fields[key].src)
            ), key
        assert filtered.comm_stats.total_bytes < plain.comm_stats.total_bytes / 3

    def test_bit_identical_with_sparse_geometry(self):
        from repro.geometry import CapsuleTreeGeometry, CoronaryTree

        tree = CoronaryTree.generate(generations=3, seed=5)
        geom = CapsuleTreeGeometry(tree)
        forest = SetupBlockForest.create(
            geom.aabb(), (2, 2, 2), (8, 8, 8), geometry=geom
        )
        balance_forest(forest, 2, strategy="round_robin")
        for mode in COMM_MODES:
            sims = []
            for filt in (False, True):
                sim = DistributedSimulation(
                    forest, TRT.from_tau(0.8), geometry=geom,
                    boundaries=[NoSlip()], filtered_communication=filt,
                    comm_mode=mode,
                )
                sim.run(8)
                sims.append(sim)
            a = sims[0].gather_density()
            b = sims[1].gather_density()
            assert np.nanmax(np.abs(a - b)) == 0.0, mode
            self._assert_same_interiors(sims)

    def test_bit_identical_channel_with_obstacle_overlap(self):
        """Dense blocks around an obstacle that straddles block
        boundaries, with inflow and outflow, under the overlap split on
        two worker threads."""
        from repro.geometry import AABB
        from repro.lbm import PressureABB, UBB
        from repro.scenarios import channel_with_obstacle

        grid, cells = (4, 2, 2), (6, 6, 6)
        forest = SetupBlockForest.create(AABB((0, 0, 0), (4.0, 2.0, 2.0)), grid, cells)
        balance_forest(forest, 4, strategy="morton")
        sims = []
        try:
            for filt in (False, True):
                sims.append(DistributedSimulation(
                    forest, TRT.from_tau(0.6),
                    boundaries=[
                        NoSlip(), UBB(velocity=(0.03, 0.0, 0.0)), PressureABB(rho_w=1.0),
                    ],
                    flag_setter=channel_with_obstacle(grid, cells, (9, 4, 4), (13, 8, 8)),
                    filtered_communication=filt,
                    comm_mode="overlap",
                    workers=2,
                ))
                sims[-1].run(10)
            self._assert_same_interiors(sims)
        finally:
            for sim in sims:
                sim.close()
