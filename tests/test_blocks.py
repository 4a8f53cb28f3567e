"""Tests for block IDs, setup forest, partitioning searches, the
distributed forest views, and the compact file format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import (
    BlockId,
    SetupBlockForest,
    distribute,
    forest_file_size,
    load_forest,
    save_forest,
    search_strong_scaling_partition,
    search_weak_scaling_partition,
)
from repro.blocks.setup import _classify_and_count
from repro.errors import FileFormatError, PartitioningError
from repro.geometry import (
    AABB,
    BlockCoverage,
    CapsuleTreeGeometry,
    CoronaryTree,
    MeshGeometry,
    icosphere,
)


@pytest.fixture(scope="module")
def coronary_geom():
    return CapsuleTreeGeometry(CoronaryTree.generate(generations=4, seed=2))


class TestBlockId:
    def test_depth(self):
        assert BlockId(3).depth == 0
        assert BlockId(3, (1, 7)).depth == 2

    def test_child_parent_roundtrip(self):
        b = BlockId(5)
        c = b.child(3).child(6)
        assert c.branches == (3, 6)
        assert c.parent().parent() == b

    def test_root_has_no_parent(self):
        with pytest.raises(PartitioningError):
            BlockId(0).parent()

    def test_bad_octant_rejected(self):
        with pytest.raises(PartitioningError):
            BlockId(0).child(8)
        with pytest.raises(PartitioningError):
            BlockId(0, (9,))

    def test_ancestor(self):
        b = BlockId(2, (1,))
        assert b.is_ancestor_of(BlockId(2, (1, 4)))
        assert not b.is_ancestor_of(BlockId(2, (2, 4)))
        assert not b.is_ancestor_of(b)

    @settings(max_examples=50, deadline=None)
    @given(
        root=st.integers(0, 2**19 - 1),
        branches=st.lists(st.integers(0, 7), max_size=6),
    )
    def test_pack_unpack_roundtrip(self, root, branches):
        b = BlockId(root, tuple(branches))
        packed = b.pack(root_bits=19)
        assert BlockId.unpack(packed, root_bits=19) == b

    def test_packed_bytes_grow_with_depth(self):
        shallow = BlockId(1).packed_byte_length(root_bits=8)
        deep = BlockId(1, (1,) * 6).packed_byte_length(root_bits=8)
        assert deep > shallow

    def test_root_overflow_rejected(self):
        with pytest.raises(PartitioningError):
            BlockId(256).pack(root_bits=8)

    def test_str(self):
        assert str(BlockId(4, (2, 7))) == "B4/27"


class TestSetupForest:
    def test_dense_forest_keeps_all_blocks(self):
        f = SetupBlockForest.create(
            AABB((0, 0, 0), (4, 2, 2)), (4, 2, 2), (8, 8, 8)
        )
        assert f.n_blocks == 16
        assert f.fluid_fraction() == 1.0
        assert f.dx == 4.0 / (4 * 8)

    def test_geometry_discards_outside_blocks(self):
        geom = MeshGeometry(icosphere((0.5, 0.5, 0.5), 0.4, 2))
        f = SetupBlockForest.create(
            AABB((0, 0, 0), (1, 1, 1)), (4, 4, 4), (8, 8, 8), geometry=geom
        )
        # The sphere covers the center of the unit cube, not its corners.
        assert 0 < f.n_blocks < 64

    def test_no_intersection_raises(self):
        geom = MeshGeometry(icosphere((10, 10, 10), 0.4, 1))
        with pytest.raises(PartitioningError):
            SetupBlockForest.create(
                AABB((0, 0, 0), (1, 1, 1)), (2, 2, 2), (8, 8, 8), geometry=geom
            )

    def test_neighbors_dense(self):
        f = SetupBlockForest.create(AABB((0, 0, 0), (3, 3, 3)), (3, 3, 3), (4, 4, 4))
        center = f.block_at((1, 1, 1))
        assert len(f.neighbors(center)) == 26
        corner = f.block_at((0, 0, 0))
        assert len(f.neighbors(corner)) == 7

    def test_workload_of_partial_blocks(self, coronary_geom):
        box = coronary_geom.aabb()
        f = SetupBlockForest.create(
            box, (4, 4, 4), (16, 16, 16), geometry=coronary_geom
        )
        partial = [b for b in f.blocks if b.fluid_fraction < 1.0]
        assert partial, "coronary tree must produce partially covered blocks"
        for b in partial:
            assert 0 < b.fluid_cells <= b.total_cells

    @pytest.mark.parametrize("which", ["capsules", "mesh"])
    def test_batched_centres_match_per_block_classification(self, coronary_geom, which):
        # One batched phi call over all block centres must classify every
        # block exactly as a phi_single call per block did.
        geom = coronary_geom
        if which == "mesh":
            geom = MeshGeometry(icosphere((0.5, 0.5, 0.5), 0.4, 2))
        box = geom.aabb().expanded(0.05 * geom.aabb().diagonal)
        grid, cells = (6, 5, 7), (8, 8, 8)
        f = SetupBlockForest.create(box, grid, cells, geometry=geom)
        step = box.extent / np.asarray(grid)
        expected = []
        for idx in np.ndindex(*grid):
            b = AABB(tuple(box.lo + step * idx), tuple(box.lo + step * (np.asarray(idx) + 1)))
            coverage, fluid = _classify_and_count(geom, b, cells, 8, geom.phi_single(b.center))
            if coverage is not BlockCoverage.OUTSIDE:
                expected.append((idx, b, coverage, fluid))
        assert [(b.grid_index, b.box, b.coverage, b.fluid_cells) for b in f.blocks] == expected

    def test_assign_validates(self):
        f = SetupBlockForest.create(AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4))
        with pytest.raises(PartitioningError):
            f.assign([0], 2)  # wrong length
        with pytest.raises(PartitioningError):
            f.assign([0, 5], 2)  # rank out of range
        f.assign([0, 1], 2)
        assert f.max_blocks_per_process() == 1


class TestScalingSearches:
    def test_weak_scaling_hits_target(self, coronary_geom):
        f = search_weak_scaling_partition(coronary_geom, (16, 16, 16), 32)
        assert 0 < f.n_blocks <= 32
        # Best-effort: should get reasonably close to the target.
        assert f.n_blocks >= 16

    def test_weak_scaling_more_blocks_finer_dx(self, coronary_geom):
        f1 = search_weak_scaling_partition(coronary_geom, (16, 16, 16), 16)
        f2 = search_weak_scaling_partition(coronary_geom, (16, 16, 16), 128)
        assert f2.n_blocks > f1.n_blocks
        assert f2.dx < f1.dx

    def test_strong_scaling_respects_target(self, coronary_geom):
        dx = coronary_geom.aabb().diagonal / 200
        f = search_strong_scaling_partition(coronary_geom, dx, 64, min_edge=4, max_edge=64)
        assert 0 < f.n_blocks <= 64
        e = f.cells_per_block
        assert e[0] == e[1] == e[2]  # cubes

    def test_strong_scaling_smaller_blocks_for_more_targets(self, coronary_geom):
        dx = coronary_geom.aabb().diagonal / 200
        f1 = search_strong_scaling_partition(coronary_geom, dx, 8, min_edge=4, max_edge=128)
        f2 = search_strong_scaling_partition(coronary_geom, dx, 128, min_edge=4, max_edge=128)
        assert f2.cells_per_block[0] <= f1.cells_per_block[0]

    def test_bad_target_rejected(self, coronary_geom):
        with pytest.raises(PartitioningError):
            search_weak_scaling_partition(coronary_geom, (8, 8, 8), 0)


class TestDistributedMemory:
    """The paper's central data-structure claim (§2.2): per-process memory
    depends only on local blocks, not on the size of the simulation."""

    @staticmethod
    def _views_for(root_grid, k):
        f = SetupBlockForest.create(
            AABB((0, 0, 0), tuple(float(g) for g in root_grid)),
            root_grid,
            (4, 4, 4),
        )
        f.assign([i % k for i in range(f.n_blocks)], k)
        return distribute(f)

    def test_constant_memory_per_process(self):
        # One block per process: the per-process record count must not
        # grow as the simulation (and process count) grows 8x.
        small = self._views_for((4, 4, 4), 64)
        large = self._views_for((8, 8, 8), 512)
        max_small = max(v.stored_entries() for v in small)
        max_large = max(v.stored_entries() for v in large)
        # A block has at most 26 neighbors; entries are bounded by 27
        # regardless of how many processes the simulation uses.
        assert max_large <= 27
        assert max_large == max_small  # no growth with system size

    def test_views_partition_blocks(self):
        views = self._views_for((3, 3, 3), 9)
        total = sum(v.n_local_blocks for v in views)
        assert total == 27
        ids = [b.id for v in views for b in v.blocks]
        assert len(set(ids)) == 27

    def test_neighbor_ranks_only_adjacent(self):
        views = self._views_for((4, 1, 1), 4)
        # Rank 0 owns block 0 only; it can only talk to rank 1.
        assert views[0].neighbor_ranks() == [1]


class TestFileFormat:
    @staticmethod
    def _balanced_forest():
        f = SetupBlockForest.create(AABB((0, 0, 0), (4, 2, 2)), (4, 2, 2), (8, 8, 8))
        f.assign([i % 4 for i in range(f.n_blocks)], 4)
        return f

    def test_roundtrip(self):
        f = self._balanced_forest()
        buf = io.BytesIO()
        n = save_forest(f, buf)
        assert n == len(buf.getvalue())
        g = load_forest(buf.getvalue())
        assert g.n_blocks == f.n_blocks
        assert g.n_processes == f.n_processes
        assert g.root_grid == f.root_grid
        assert g.cells_per_block == f.cells_per_block
        for a, b in zip(f.blocks, g.blocks):
            assert a.id == b.id
            assert a.owner == b.owner
            assert a.fluid_cells == b.fluid_cells
            assert a.grid_index == b.grid_index
            assert np.allclose(a.box.lo, b.box.lo)

    def test_unbalanced_rejected(self):
        f = SetupBlockForest.create(AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4))
        with pytest.raises(FileFormatError):
            save_forest(f, io.BytesIO())

    def test_bad_magic_rejected(self):
        with pytest.raises(FileFormatError):
            load_forest(b"NOPE" + b"\x00" * 100)

    def test_truncated_rejected(self):
        f = self._balanced_forest()
        buf = io.BytesIO()
        save_forest(f, buf)
        data = buf.getvalue()[:-3]
        with pytest.raises(FileFormatError):
            load_forest(data)

    def test_rank_bytes_minimal(self):
        # Paper: 2 bytes suffice for up to 65,536 processes.
        small = forest_file_size(1000, 65_536, 1000, 10**6)
        large = forest_file_size(1000, 65_537, 1000, 10**6)
        assert large - small == 1000  # one extra byte per block

    def test_half_million_processes_file_size(self):
        # Paper: "about 40 MiB" for ~half a million processes; our record
        # stores fewer attributes, so it must come in at the same order
        # of magnitude or below.
        size = forest_file_size(458_184, 458_752, 2**19, 2_048_000)
        assert size < 40 * 2**20
        assert size > 2**20

    def test_file_on_disk(self, tmp_path):
        f = self._balanced_forest()
        p = str(tmp_path / "forest.wbf")
        save_forest(f, p)
        g = load_forest(p)
        assert g.n_blocks == f.n_blocks
