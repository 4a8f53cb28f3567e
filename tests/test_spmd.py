"""Tests for the SPMD message-passing simulation and the parallel setup
algorithms of §2.3, asserting exact agreement with the sequential and
direct-copy implementations."""

import numpy as np
import pytest

from repro.balance import balance_forest
from repro.blocks import (
    SetupBlockForest,
    broadcast_load_forest,
    classify_blocks_parallel,
    classify_blocks_spmd,
    save_forest,
    view_for_rank,
)
from repro.comm import (
    DistributedSimulation,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.errors import CheckpointError, CommunicationError, PartitioningError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.io.checkpoint import read_state, write_state
from repro.lbm import NoSlip, PressureABB, TRT, UBB
from repro.scenarios import lid_driven_cavity


class TestViewForRank:
    def test_matches_distribute(self):
        from repro.blocks import distribute

        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 2, 1)), (2, 2, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        all_views = distribute(forest)
        for rank in range(2):
            single = view_for_rank(forest, rank)
            assert [b.id for b in single.blocks] == [
                b.id for b in all_views[rank].blocks
            ]
            assert single.neighbor_ranks() == all_views[rank].neighbor_ranks()

    def test_periodic_neighbors_wrap(self):
        from repro.blocks import distribute

        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (3, 1, 1)), (3, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 3, strategy="round_robin")
        plain = {n.offset for n in view_for_rank(forest, 0).blocks[0].neighbors}
        assert plain == {(1, 0, 0)}
        periodic = (True, False, False)
        all_views = distribute(forest, periodic=periodic)
        for rank in range(3):
            single = view_for_rank(forest, rank, periodic=periodic)
            assert single.blocks == all_views[rank].blocks
        (first,) = all_views[0].blocks
        by_offset = {n.offset: n.id for n in first.neighbors}
        assert by_offset == {
            (1, 0, 0): forest.blocks[1].id,
            (-1, 0, 0): forest.blocks[2].id,  # wraps around x
        }

    def test_periodic_axis_of_one_block_is_its_own_neighbor(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 1, strategy="round_robin")
        view = view_for_rank(forest, 0, periodic=(False, True, False))
        first = view.blocks[0]
        by_offset = {n.offset: n.id for n in first.neighbors}
        assert by_offset[(0, 1, 0)] == by_offset[(0, -1, 0)] == first.id
        assert by_offset[(1, 1, 0)] == forest.blocks[1].id
        assert len(by_offset) == 5  # x in {0, +1}, y in {-1, 0, +1}, z 0

    def test_unbalanced_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        with pytest.raises(PartitioningError):
            view_for_rank(forest, 0)

    def test_bad_rank_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        with pytest.raises(PartitioningError):
            view_for_rank(forest, 5)


class TestSpmdSimulation:
    def test_identical_to_direct_copy_cavity(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 2, 2)), (2, 2, 2), (4, 4, 4)
        )
        balance_forest(forest, 4, strategy="round_robin")
        bcs = [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]
        col = TRT.from_tau(0.8)
        setter = lid_driven_cavity((2, 2, 2))
        ref = DistributedSimulation(forest, col, flag_setter=setter, boundaries=bcs)
        ref.run(15)
        world = VirtualMPI(4, timeout=120)
        result = run_spmd_simulation(
            world, forest, col, 15, conditions=bcs, flag_setter=setter
        )
        assert set(result) == set(ref.fields)
        for key, arr in result.items():
            assert np.array_equal(arr, ref.fields[key].interior_view)

    def test_identical_on_coronary_geometry(self):
        tree = CoronaryTree.generate(generations=3, seed=4)
        geom = CapsuleTreeGeometry(tree)
        forest = SetupBlockForest.create(
            geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom
        )
        balance_forest(forest, 3, strategy="morton")
        bcs = [NoSlip(), UBB(velocity=(0.0, 0.0, 0.01)), PressureABB(rho_w=1.0)]
        col = TRT.from_tau(0.8)
        ref = DistributedSimulation(forest, col, geometry=geom, boundaries=bcs)
        ref.run(5)
        world = VirtualMPI(3, timeout=180)
        result = run_spmd_simulation(
            world, forest, col, 5, conditions=bcs, geometry=geom
        )
        for key, arr in result.items():
            assert np.array_equal(arr, ref.fields[key].interior_view)

    def test_world_size_mismatch_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        with pytest.raises(CommunicationError):
            run_spmd_simulation(VirtualMPI(3, timeout=10), forest, TRT.from_tau(0.8), 1)


class TestSpmdRestore:
    """``restore_from`` goes through the same per-block restore as
    ``load_checkpoint``: a file lacking a rank's block, or holding it at
    another shape, fails with ``CheckpointError`` on that rank."""

    GRID = (2, 1, 1)

    def _run(self, **kw):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2.0, 1.0, 1.0)), self.GRID, (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="morton")
        return run_spmd_simulation(
            VirtualMPI(2, timeout=30), forest, TRT.from_tau(0.8), 4,
            conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
            flag_setter=lid_driven_cavity(self.GRID), **kw,
        )

    def _checkpoint(self, tmp_path):
        path = str(tmp_path / "good.npz")
        self._run(checkpoint_every=2, checkpoint_path=path)
        arrays, step, _ = read_state(path)
        assert step == 4 and len(arrays) == 4
        return arrays

    def _assert_restore_fails(self, path, match):
        with pytest.raises(CommunicationError) as info:
            self._run(restore_from=path)
        assert isinstance(info.value.__cause__, CheckpointError)
        assert match in str(info.value.__cause__)

    def test_missing_block(self, tmp_path):
        arrays = self._checkpoint(tmp_path)
        dropped = max(k for k in arrays if k.startswith("pdf:"))
        path = str(tmp_path / "missing.npz")
        write_state(path, {k: v for k, v in arrays.items() if k != dropped}, step=4)
        self._assert_restore_fails(path, f"lacks block {dropped!r}")

    def test_extra_block(self, tmp_path):
        arrays = self._checkpoint(tmp_path)
        extra = "pdf:not-a-block"
        arrays[extra] = arrays[min(k for k in arrays if k.startswith("pdf:"))]
        path = str(tmp_path / "extra.npz")
        write_state(path, arrays, step=4)
        self._assert_restore_fails(path, f"the forest lacks: {[extra]}")

    def _assert_shape_rejected(self, tmp_path, kind):
        arrays = self._checkpoint(tmp_path)
        key = min(k for k in arrays if k.startswith(f"{kind}:"))
        arrays[key] = arrays[key][:, :-1]
        path = str(tmp_path / "shape.npz")
        write_state(path, arrays, step=4)
        self._assert_restore_fails(path, f"block {key!r} has checkpoint shape")

    def test_wrong_block_shape(self, tmp_path):
        self._assert_shape_rejected(tmp_path, "pdf")

    def test_wrong_flags_shape(self, tmp_path):
        self._assert_shape_rejected(tmp_path, "flags")


class TestCrossDriverRestart:
    """The SPMD program and the in-process driver write and restore one
    checkpoint record, so either continues the other's run bit for bit."""

    GRID = (2, 2, 1)
    STEPS = 6

    def _forest(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2.0, 2.0, 1.0)), self.GRID, (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="morton")
        return forest

    def _bcs(self):
        return [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]

    def _spmd(self, forest, **kw):
        return run_spmd_simulation(
            VirtualMPI(2, timeout=60), forest, TRT.from_tau(0.8), self.STEPS,
            conditions=self._bcs(), flag_setter=lid_driven_cavity(self.GRID), **kw,
        )

    def _in_process(self, forest):
        return DistributedSimulation(
            forest, TRT.from_tau(0.8), boundaries=self._bcs(),
            flag_setter=lid_driven_cavity(self.GRID),
        )

    def _assert_same(self, result, sim):
        assert set(result) == set(sim.fields)
        for key, arr in result.items():
            assert np.array_equal(arr, sim.fields[key].interior_view)

    def test_spmd_file_carries_flags_and_restarts_in_process(self, tmp_path):
        forest = self._forest()
        path = str(tmp_path / "spmd.npz")
        full = self._spmd(forest, checkpoint_every=4, checkpoint_path=path)
        arrays, step, _ = read_state(path)
        sim = self._in_process(forest)
        assert step == 4
        assert sorted(arrays) == sorted(
            f"{kind}:{key}" for key in sim.fields for kind in ("flags", "pdf")
        )
        for key, flags in sim.flags.items():
            assert np.array_equal(arrays[f"flags:{key}"], flags.data)
        assert sim.restart(path) == 4
        sim.run(self.STEPS - 4)
        self._assert_same(full, sim)

    def test_in_process_file_restarts_spmd(self, tmp_path):
        forest = self._forest()
        path = str(tmp_path / "in_process.npz")
        sim = self._in_process(forest).enable_checkpointing(path, 4)
        sim.run(self.STEPS)
        self._assert_same(self._spmd(forest, restore_from=path), sim)

    def test_pdf_only_file_still_restores(self, tmp_path):
        """A file without ``flags:`` keys, as SPMD runs wrote them before,
        restores into both drivers."""
        forest = self._forest()
        path = str(tmp_path / "spmd.npz")
        full = self._spmd(forest, checkpoint_every=4, checkpoint_path=path)
        arrays, step, _ = read_state(path)
        old = str(tmp_path / "pdf_only.npz")
        write_state(
            old, {k: v for k, v in arrays.items() if k.startswith("pdf:")}, step=step
        )
        resumed = self._spmd(forest, restore_from=old)
        assert resumed.keys() == full.keys()
        for key, arr in resumed.items():
            assert np.array_equal(arr, full[key])
        sim = self._in_process(forest)
        sim.restart(old)
        sim.run(self.STEPS - step)
        self._assert_same(full, sim)


class TestParallelSetup:
    @pytest.fixture(scope="class")
    def geom(self):
        return CapsuleTreeGeometry(CoronaryTree.generate(generations=3, seed=7))

    def test_matches_sequential(self, geom):
        box = geom.aabb()
        seq = SetupBlockForest.create(box, (4, 4, 4), (8, 8, 8), geometry=geom)
        par = classify_blocks_parallel(
            VirtualMPI(4, timeout=120), box, (4, 4, 4), (8, 8, 8), lambda: geom
        )
        assert [b.id for b in par.blocks] == [b.id for b in seq.blocks]
        assert [b.fluid_cells for b in par.blocks] == [
            b.fluid_cells for b in seq.blocks
        ]
        assert [b.coverage for b in par.blocks] == [b.coverage for b in seq.blocks]
        assert [(b.grid_index, b.box) for b in par.blocks] == [
            (b.grid_index, b.box) for b in seq.blocks
        ]

    def test_ranks_own_their_blocks(self, geom):
        # The gathered forest is a copy per rank: a balancer assigning
        # owners on one rank must not touch another rank's blocks.
        box = geom.aabb()

        def program(comm):
            return classify_blocks_spmd(comm, box, (3, 3, 3), (8, 8, 8), geom)

        a, b = VirtualMPI(2, timeout=120).run(program)
        assert [blk.id for blk in a.blocks] == [blk.id for blk in b.blocks]
        assert all(x is not y for x, y in zip(a.blocks, b.blocks))

    def test_rank_count_invariance(self, geom):
        # The result must not depend on how many ranks classified it.
        box = geom.aabb()
        a = classify_blocks_parallel(
            VirtualMPI(2, timeout=120), box, (3, 3, 3), (8, 8, 8), lambda: geom
        )
        b = classify_blocks_parallel(
            VirtualMPI(7, timeout=120), box, (3, 3, 3), (8, 8, 8), lambda: geom
        )
        assert [blk.id for blk in a.blocks] == [blk.id for blk in b.blocks]

    def test_broadcast_load(self, tmp_path, geom):
        forest = SetupBlockForest.create(
            geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom
        )
        balance_forest(forest, 4, strategy="morton")
        path = str(tmp_path / "forest.wbf")
        save_forest(forest, path)
        world = VirtualMPI(4, timeout=60)

        def program(comm):
            # Only rank 0 gets the path — everyone must still end up with
            # the forest (via broadcast of the raw bytes).
            f = broadcast_load_forest(comm, path if comm.rank == 0 else None)
            return (f.n_blocks, f.n_processes)

        results = world.run(program)
        assert results == [(forest.n_blocks, 4)] * 4
