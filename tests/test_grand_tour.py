"""Grand-tour integration test: every subsystem in one production-shaped
pipeline, exactly as §2 of the paper describes the workflow.

    geometry (broadcast) -> parallel block classification (virtual MPI)
    -> load balancing (METIS-like) -> block-structure file (save +
    broadcast-load) -> per-rank voxelization -> SPMD message-passing
    time stepping -> observables -> VTK output -> checkpoint/restore.
"""

import numpy as np
import pytest

from repro.balance import balance_forest, evaluate_balance
from repro.blocks import (
    broadcast_load_forest,
    classify_blocks_parallel,
    save_forest,
)
from repro.comm import (
    DistributedSimulation,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.geometry import CapsuleTreeGeometry, CoronaryTree, analyze_tree
from repro.io import load_checkpoint, save_checkpoint, write_simulation_vtk
from repro.lbm import NoSlip, PressureABB, TRT, UBB


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the complete workflow once; tests inspect the artifacts."""
    tmp = tmp_path_factory.mktemp("tour")
    tree = CoronaryTree.generate(generations=3, root_radius=1.9e-3, seed=11)
    geom = CapsuleTreeGeometry(tree)

    # 1. Parallel setup: rank 0 "loads" the geometry, broadcasts it, all
    #    ranks classify their scattered block share, results gathered.
    world = VirtualMPI(4, timeout=180)
    forest = classify_blocks_parallel(
        world, geom.aabb(), (3, 3, 3), (8, 8, 8), lambda: geom
    )

    # 2. Static load balancing with the graph partitioner.
    balance_forest(forest, 4, strategy="metis")
    quality = evaluate_balance(forest)

    # 3. Block-structure file: save, then every rank loads it from the
    #    broadcast bytes (only rank 0 touches the file system).
    path = str(tmp / "forest.wbf")
    n_bytes = save_forest(forest, path)

    def load_program(comm):
        f = broadcast_load_forest(comm, path if comm.rank == 0 else None)
        return (f.n_blocks, [b.owner for b in f.blocks])

    loaded = world.run(load_program)

    # 4. SPMD message-passing simulation on the loaded structure.
    bcs = [NoSlip(), UBB(velocity=(0.0, 0.0, 0.015)), PressureABB(rho_w=1.0)]
    col = TRT.from_tau(0.8)
    spmd_result = run_spmd_simulation(
        world, forest, col, steps=6, conditions=bcs, geometry=geom
    )

    # 5. Reference: the direct-copy driver on the same forest.
    sim = DistributedSimulation(forest, col, geometry=geom, boundaries=bcs)
    sim.run(6)

    # 6. Output + checkpoint artifacts.
    vtk_path = str(tmp / "flow.vtk")
    write_simulation_vtk(vtk_path, sim)
    ckpt_path = str(tmp / "state.npz")
    save_checkpoint(sim, ckpt_path)

    return {
        "tree": tree,
        "forest": forest,
        "quality": quality,
        "file_bytes": n_bytes,
        "loaded": loaded,
        "spmd": spmd_result,
        "sim": sim,
        "vtk": vtk_path,
        "ckpt": ckpt_path,
        "geom": geom,
        "bcs": bcs,
        "col": col,
    }


class TestGrandTour:
    def test_geometry_is_a_sane_tree(self, pipeline):
        m = analyze_tree(pipeline["tree"])
        assert m.murray_max_residual < 1e-12
        assert m.strahler_order == 4

    def test_partition_covers_the_tree(self, pipeline):
        forest = pipeline["forest"]
        assert forest.n_blocks > 0
        assert 0 < forest.fluid_fraction() < 1.0

    def test_balancing_left_no_rank_empty(self, pipeline):
        assert pipeline["quality"].empty_ranks == 0
        assert pipeline["quality"].imbalance < 3.0

    def test_file_round_trip_consistent_on_all_ranks(self, pipeline):
        forest = pipeline["forest"]
        for n_blocks, owners in pipeline["loaded"]:
            assert n_blocks == forest.n_blocks
            assert owners == [b.owner for b in forest.blocks]
        assert pipeline["file_bytes"] < 4096  # compact format

    def test_spmd_equals_direct_copy_bitwise(self, pipeline):
        sim = pipeline["sim"]
        for block_id, arr in pipeline["spmd"].items():
            assert np.array_equal(arr, sim.fields[block_id].interior_view)

    def test_flow_developed_and_stable(self, pipeline):
        sim = pipeline["sim"]
        sim.assert_stable()
        assert sim.max_velocity() > 1e-5  # inflow did something
        assert sim.total_fluid_cells() > 0

    def test_vtk_artifact(self, pipeline):
        content = open(pipeline["vtk"]).read()
        assert content.startswith("# vtk DataFile")
        assert "velocity" in content

    def test_checkpoint_resumes_bitwise(self, pipeline):
        resumed = DistributedSimulation(
            pipeline["forest"], pipeline["col"],
            geometry=pipeline["geom"], boundaries=pipeline["bcs"],
        )
        steps = load_checkpoint(resumed, pipeline["ckpt"])
        assert steps == 6
        ref = pipeline["sim"]
        ref.run(4)
        resumed.run(4)
        assert (
            np.nanmax(np.abs(ref.gather_density() - resumed.gather_density()))
            == 0.0
        )
