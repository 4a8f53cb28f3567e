"""One test per number the paper states — the consolidated index.

Each test quotes the paper's sentence (abbreviated) and asserts the
reproduction's value.  Deeper validation of each item lives in the
dedicated test modules; this file is the cross-reference the
EXPERIMENTS.md tables are built from.
"""

import pytest

from repro.constants import D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE
from repro.core.units import blood_flow_scales
from repro.harness import paper_coronary_tree
from repro.perf import (
    EcmModel,
    JUQUEEN,
    NodeConfig,
    SUPERMUC,
    bandwidth_utilization,
    estimate_time_to_solution,
    machine_roofline,
    weak_scaling_dense,
)


class TestSection1:
    def test_trillion_cells_need_277_tib(self):
        # "storing the data for one trillion cells requires around 277 TiB"
        est = estimate_time_to_solution(1e12, 1e-6, 0.0, 1.0, 1)
        assert est.pdf_memory_bytes / 1024**4 == pytest.approx(277, abs=1)

    def test_1p93_trillion_updates_per_second(self):
        # "perform up to 1.93 trillion cell updates per second using
        # 1.8 million threads"
        pts = weak_scaling_dense(JUQUEEN, NodeConfig(16, 4), 1_728_000, [458752])
        assert pts[0].total_mlups * 1e6 == pytest.approx(1.93e12, rel=0.15)
        threads = 458752 * 4  # 4-way SMT
        assert threads == pytest.approx(1.8e6, rel=0.05)


class TestSection3:
    def test_juqueen_specs(self):
        # "458,752 PowerPC A2 processor cores ... 1.6 GHz ... 16 compute
        # cores that deliver up to 204.8 GFLOPS ... 5.9 PFLOPS"
        assert JUQUEEN.total_cores == 458752
        assert JUQUEEN.clock_hz == 1.6e9
        assert JUQUEEN.node_peak_flops == pytest.approx(204.8e9)
        assert JUQUEEN.n_nodes * JUQUEEN.node_peak_flops == pytest.approx(
            5.9e15, rel=0.01
        )

    def test_supermuc_specs(self):
        # "18432 Intel Xeon E5-2680 processors running at 2.7 GHz ...
        # 147,456 cores ... 512 nodes are divided into one island ...
        # pruned tree (4:1) ... 3.2 PFLOPS"
        assert SUPERMUC.n_nodes * SUPERMUC.sockets_per_node == 18432
        assert SUPERMUC.clock_hz == 2.7e9
        assert SUPERMUC.total_cores == 147456
        assert SUPERMUC.island_nodes == 512
        assert SUPERMUC.island_pruning == 4.0
        assert SUPERMUC.n_nodes * SUPERMUC.node_peak_flops == pytest.approx(
            3.2e15, rel=0.01
        )


class TestSection41:
    def test_456_bytes_per_cell(self):
        # "a total amount of 456 bytes per cell has to be transferred"
        assert D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE == 456

    def test_roofline_87p8(self):
        # "37.3 GiB/s : 456 B/LUP = 87.8 MLUPS"
        assert machine_roofline(SUPERMUC).mlups == pytest.approx(87.8, abs=0.1)

    def test_roofline_76p2(self):
        # "the roofline model predicts 76.2 MLUPS ... on JUQUEEN"
        assert machine_roofline(JUQUEEN).mlups == pytest.approx(76.2, abs=0.15)

    def test_six_of_eight_cores_saturate(self):
        # "the memory interface can be saturated using only six of the
        # eight cores"
        assert EcmModel(SUPERMUC).saturation_cores(2.7e9) == 6

    def test_iaca_448_cycles_is_the_model_input(self):
        # "IACA reports 448 cycles"
        assert SUPERMUC.ecm_core_cycles == 448.0

    def test_114_cycles_per_cache_hop(self):
        # "a total of 114 cycles for eight lattice cell updates"
        assert SUPERMUC.ecm_transfer_cycles[0] == 114.0
        assert SUPERMUC.ecm_transfer_cycles[1] == 114.0

    def test_93_percent_and_25_percent(self):
        # "at which 25% less energy is consumed and still 93% of the
        # performance can be achieved"
        ecm = EcmModel(SUPERMUC)
        p27 = ecm.predict(8, clock_hz=2.7e9)
        p16 = ecm.predict(8, clock_hz=1.6e9)
        assert p16.mlups / p27.mlups == pytest.approx(0.93, abs=0.01)
        assert p16.energy_per_glup_j / p27.energy_per_glup_j == pytest.approx(
            0.75, abs=0.02
        )


class TestSection42:
    def test_supermuc_837_glups(self):
        # "We achieve up to 837 x 10^3 MLUPS"
        pts = weak_scaling_dense(SUPERMUC, NodeConfig(4, 4), 3_430_000, [2**17])
        assert pts[0].total_mlups == pytest.approx(837e3, rel=0.15)

    def test_supermuc_4p5e11_cells(self):
        # "resulting in 4.5 x 10^11 cells for the largest run"
        assert 3_430_000 * 2**17 == pytest.approx(4.5e11, rel=0.01)

    def test_juqueen_7p9e11_cells(self):
        # "which still results in 7.9 x 10^11 cells for the largest run"
        assert 1_728_000 * 458752 == pytest.approx(7.9e11, rel=0.01)

    def test_bandwidth_utilization_54p2(self):
        # "we reach 54.2% of the total memory bandwidth"
        util = bandwidth_utilization(837e9, 2**14 * 40 * 1024**3)
        assert util == pytest.approx(0.542, abs=0.005)

    def test_bandwidth_utilization_67p4(self):
        # "we reach 67.4% of the total memory bandwidth"
        util = bandwidth_utilization(1.93e12, (458752 / 16) * 42.4 * 1024**3)
        assert util == pytest.approx(0.674, abs=0.005)

    def test_92_percent_efficiency(self):
        # "a parallel efficiency of 92% for all 458,752 cores"
        pts = weak_scaling_dense(JUQUEEN, NodeConfig(16, 4), 1_728_000, [32, 458752])
        assert pts[1].mlups_per_core / pts[0].mlups_per_core == pytest.approx(
            0.92, abs=0.04
        )


class TestSection43:
    def test_dataset_calibration(self):
        # "2.1 million fluid lattice cells" at 0.1 mm and "16.9 million"
        # at 0.05 mm — matched by the synthetic tree's volume.
        v = paper_coronary_tree().volume_estimate()
        assert v / 1e-4**3 == pytest.approx(2.1e6, rel=0.25)
        assert v / 5e-5**3 == pytest.approx(16.9e6, rel=0.25)

    def test_coverage_0p3_percent(self):
        # "only covers about 0.3% of the volume of its enclosing
        # axis-aligned bounding box"
        assert paper_coronary_tree().volume_fraction() == pytest.approx(
            0.003, rel=0.6
        )

    def test_time_step_0p64_us(self):
        # "For a spatial resolution of 1.276 um we have a time step
        # length of 0.64 us"
        assert blood_flow_scales(1.276e-6).dt == pytest.approx(0.64e-6, rel=5e-3)

    def test_1p25_steps_per_second(self):
        # "achieve 1.25 time steps per second using 458,752 cores"
        est = estimate_time_to_solution(1.03e12, 1.276e-6, 1.0, 2.8, 458752)
        assert est.timesteps_per_second == pytest.approx(1.25, abs=0.01)

    def test_resolution_below_red_blood_cell(self):
        # "1.276 um ... less than one fifth of a typical red blood
        # cell's diameter" (7 um)
        from repro.constants import RED_BLOOD_CELL_DIAMETER_M

        assert 1.276e-6 < RED_BLOOD_CELL_DIAMETER_M / 5.0
