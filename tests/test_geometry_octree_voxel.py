"""Tests for the mesh octree, block classification and voxelization."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.errors import GeometryError
from repro.geometry import (
    AABB,
    BlockCoverage,
    CapsuleTreeGeometry,
    ColorMap,
    CoronaryTree,
    MeshGeometry,
    MeshOctree,
    capped_tube,
    cell_centers,
    classify_block,
    icosphere,
    signed_distance,
    stencil_structure,
    voxelize_block,
)
from repro.blocks import SetupBlockForest
from repro.comm.distributed import default_vascular_colors
from repro.lbm.lattice import D3Q19, D3Q27

from helpers import AllCapsuleGeometry, all_capsule_segment_geometry


class TestAABB:
    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            AABB((0, 0, 0), (-1, 1, 1))

    def test_spheres(self):
        b = AABB((0, 0, 0), (2, 4, 4))
        assert np.isclose(b.circumsphere_radius(), 3.0)
        assert np.isclose(b.insphere_radius(), 1.0)

    def test_distance_to_point(self):
        b = AABB((0, 0, 0), (1, 1, 1))
        assert b.distance_to_point((0.5, 0.5, 0.5)) == 0.0
        assert np.isclose(b.distance_to_point((2, 0.5, 0.5)), 1.0)
        assert np.isclose(b.distance_to_point((2, 2, 0.5)), np.sqrt(2))

    def test_octants_partition_volume(self):
        b = AABB((0, 0, 0), (2, 2, 2))
        octs = list(b.octants())
        assert len(octs) == 8
        assert np.isclose(sum(o.volume for o in octs), b.volume)

    def test_intersects(self):
        a = AABB((0, 0, 0), (1, 1, 1))
        assert a.intersects(AABB((0.5, 0.5, 0.5), (2, 2, 2)))
        assert not a.intersects(AABB((2, 2, 2), (3, 3, 3)))
        # Touching counts as intersecting.
        assert a.intersects(AABB((1, 0, 0), (2, 1, 1)))


class TestMeshOctree:
    @pytest.fixture(scope="class")
    def sphere(self):
        return icosphere((0, 0, 0), 1.0, subdivisions=3)

    def test_closest_matches_brute_force(self, sphere):
        tree = MeshOctree(sphere, max_leaf_triangles=16)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3)) * 1.3
        for p in pts:
            d_tree = tree.distance(p)
            d_brute = np.abs(signed_distance(sphere, p[None, :])[0])
            assert np.isclose(d_tree, d_brute, atol=1e-12)

    def test_reduces_evaluated_triangles(self, sphere):
        tree = MeshOctree(sphere, max_leaf_triangles=16)
        small = AABB.cube((1.0, 0.0, 0.0), 0.05)
        # Payne-Toga: a local query touches a small fraction of triangles.
        assert tree.evaluated_fraction(small) < 0.2

    def test_candidates_cover_full_mesh_for_big_box(self, sphere):
        tree = MeshOctree(sphere)
        cand = tree.candidates_in_aabb(AABB((-2, -2, -2), (2, 2, 2)))
        assert len(cand) == sphere.n_triangles

    def test_depth_limit_respected(self, sphere):
        tree = MeshOctree(sphere, max_leaf_triangles=1, max_depth=3)
        assert tree.n_nodes <= 1 + 8 + 64 + 512

    def test_bad_leaf_size_rejected(self, sphere):
        with pytest.raises(GeometryError):
            MeshOctree(sphere, max_leaf_triangles=0)


class TestClassifyBlock:
    @pytest.fixture(scope="class")
    def geom(self):
        return MeshGeometry(icosphere((0, 0, 0), 1.0, 3))

    def test_far_outside(self, geom):
        assert (
            classify_block(geom, AABB.cube((5, 5, 5), 0.5), (4, 4, 4))
            == BlockCoverage.OUTSIDE
        )

    def test_deep_inside(self, geom):
        assert (
            classify_block(geom, AABB.cube((0, 0, 0), 0.2), (4, 4, 4))
            == BlockCoverage.FULL
        )

    def test_straddling_surface(self, geom):
        assert (
            classify_block(geom, AABB.cube((1.0, 0, 0), 0.2), (4, 4, 4))
            == BlockCoverage.PARTIAL
        )

    def test_near_miss_outside(self, geom):
        # Close to the surface but not touching: must fall through the
        # sphere tests to the per-cell check and come out OUTSIDE.
        assert (
            classify_block(geom, AABB.cube((1.35, 0, 0), 0.2), (4, 4, 4))
            == BlockCoverage.OUTSIDE
        )


class TestCellCenters:
    def test_layout(self):
        box = AABB((0, 0, 0), (1, 2, 4))
        c = cell_centers(box, (2, 2, 2))
        assert c.shape == (2, 2, 2, 3)
        assert np.allclose(c[0, 0, 0], [0.25, 0.5, 1.0])
        assert np.allclose(c[1, 1, 1], [0.75, 1.5, 3.0])

    def test_ghost_extension(self):
        box = AABB((0, 0, 0), (1, 1, 1))
        c = cell_centers(box, (2, 2, 2), ghost=1)
        assert c.shape == (4, 4, 4, 3)
        assert np.allclose(c[0, 0, 0], [-0.25, -0.25, -0.25])

    def test_bad_cells_rejected(self):
        with pytest.raises(GeometryError):
            cell_centers(AABB((0, 0, 0), (1, 1, 1)), (0, 2, 2))


class TestVoxelize:
    def test_sphere_fluid_volume(self):
        geom = MeshGeometry(icosphere((0, 0, 0), 1.0, 3))
        box = AABB.cube((0, 0, 0), 1.2)
        flags = voxelize_block(geom, box, (24, 24, 24))
        dx = 2.4 / 24
        fluid_volume = (flags == fl.FLUID).sum() * dx**3
        assert abs(fluid_volume - 4 / 3 * np.pi) / (4 / 3 * np.pi) < 0.05

    def test_hull_encloses_fluid(self):
        geom = MeshGeometry(icosphere((0, 0, 0), 1.0, 2))
        box = AABB.cube((0, 0, 0), 1.3)
        flags = voxelize_block(geom, box, (16, 16, 16))
        fluid = flags == fl.FLUID
        # Every fluid cell's stencil neighbors are fluid or boundary,
        # never OUTSIDE — otherwise the kernel would read garbage.
        idx = np.argwhere(fluid)
        inner = idx[
            (idx.min(axis=1) > 0) & (idx.max(axis=1) < flags.shape[0] - 1)
        ]
        for e in D3Q19.velocities[1:]:
            n = flags[tuple((inner + np.asarray(e)).T)]
            assert np.all(n != fl.OUTSIDE)

    def test_colored_boundaries(self):
        # A tube along z with colored caps: velocity BC at the inflow cap,
        # pressure at the outflow cap, no-slip on the side wall.
        geom = MeshGeometry(
            MeshOctree(
                capped_tube(
                    (0, 0, 0), (0, 0, 4), 1.0, segments=32,
                    start_cap_color=1, end_cap_color=2,
                )
            ).mesh
        )
        cmap = ColorMap(
            by_color=((1, int(fl.VELOCITY_BC)), (2, int(fl.PRESSURE_BC)))
        )
        box = AABB((-1.3, -1.3, -0.3), (1.3, 1.3, 4.3))
        flags = voxelize_block(geom, box, (13, 13, 23), colors=cmap)
        assert (flags == fl.VELOCITY_BC).sum() > 0
        assert (flags == fl.PRESSURE_BC).sum() > 0
        assert (flags == fl.NO_SLIP).sum() > 0
        # Inflow cells are all at low z, outflow at high z.
        z_in = np.argwhere(flags == fl.VELOCITY_BC)[:, 2]
        z_out = np.argwhere(flags == fl.PRESSURE_BC)[:, 2]
        assert z_in.max() < z_out.min()

    def test_stencil_structure_matches_model(self):
        s19 = stencil_structure(D3Q19)
        assert s19.sum() == 19
        s27 = stencil_structure(D3Q27)
        assert s27.sum() == 27


class TestCoronaryTree:
    def test_deterministic(self):
        t1 = CoronaryTree.generate(generations=3, seed=9)
        t2 = CoronaryTree.generate(generations=3, seed=9)
        assert t1.n_segments == t2.n_segments == 15
        assert all(
            np.allclose(a.end, b.end) for a, b in zip(t1.segments, t2.segments)
        )

    def test_murray_law_holds(self):
        tree = CoronaryTree.generate(generations=2, seed=3)
        # Children of the root start where the root ends.
        root = tree.segments[0]
        children = [
            s
            for s in tree.segments
            if s.generation == 1 and np.allclose(s.start, root.end)
        ]
        assert len(children) == 2
        r3 = sum(c.radius**3 for c in children)
        assert np.isclose(r3, root.radius**3, rtol=1e-9)

    def test_radii_shrink_with_generation(self):
        tree = CoronaryTree.generate(generations=4, seed=0)
        by_gen = {}
        for s in tree.segments:
            by_gen.setdefault(s.generation, []).append(s.radius)
        for g in range(4):
            assert max(by_gen[g + 1]) < max(by_gen[g])

    def test_sparse_volume_fraction(self):
        tree = CoronaryTree.generate(generations=6, seed=0)
        # The paper's dataset covers ~0.3% of its bounding box.
        assert tree.volume_fraction() < 0.05

    def test_capsule_sdf_on_axis(self):
        tree = CoronaryTree.generate(generations=1, seed=0)
        geom = CapsuleTreeGeometry(tree)
        root = tree.segments[0]
        mid = 0.5 * (np.asarray(root.start) + np.asarray(root.end))
        assert np.isclose(geom.phi_single(mid), -root.radius)

    def test_colors(self):
        tree = CoronaryTree.generate(generations=2, seed=0)
        geom = CapsuleTreeGeometry(tree)
        root = tree.segments[0]
        below_inlet = np.asarray(root.start) - root.direction * root.radius
        assert geom.boundary_color(below_inlet[None, :])[0] == 1
        leaf = next(s for s in tree.segments if s.is_leaf)
        past_outlet = np.asarray(leaf.end) + leaf.direction * leaf.radius
        assert geom.boundary_color(past_outlet[None, :])[0] == 2
        side = np.asarray(root.start) + root.direction * (
            root.length / 2
        ) + _perp(root.direction) * 2 * root.radius
        assert geom.boundary_color(side[None, :])[0] == 0

    def test_mesh_export(self):
        tree = CoronaryTree.generate(generations=2, seed=0)
        mesh = tree.to_mesh()
        assert mesh.n_triangles == tree.n_segments * 4 * 12
        assert set(np.unique(mesh.vertex_colors)) <= {0, 1, 2}


def _near_surface_points(tree, rng, n):
    """Points within a few percent of a radius of the capsule surfaces,
    caps included."""
    seg = rng.integers(tree.n_segments, size=n)
    starts = np.asarray([s.start for s in tree.segments])[seg]
    ends = np.asarray([s.end for s in tree.segments])[seg]
    radii = np.asarray([s.radius for s in tree.segments])[seg]
    t = np.clip(rng.uniform(-0.2, 1.2, n), 0.0, 1.0)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    r = radii * (1.0 + 0.05 * rng.normal(size=n))
    return starts + t[:, None] * (ends - starts) + r[:, None] * u


def _block_batches(box, per_axis, cells):
    """Ghost-extended cell centres of a ``per_axis^3`` tiling of ``box``:
    the batches voxelization hands the geometry."""
    step = box.extent / per_axis
    for idx in np.ndindex(per_axis, per_axis, per_axis):
        lo = box.lo + step * np.asarray(idx)
        yield cell_centers(AABB(tuple(lo), tuple(lo + step)), cells, ghost=1).reshape(-1, 3)


TREES = [(0, 1), (1, 2), (2, 3), (7, 3), (3, 4)]


class TestCapsuleCulling:
    """The culled capsule evaluation is bit-identical to testing every
    capsule against every point."""

    @pytest.fixture(params=TREES, ids=[f"seed{s}-gen{g}" for s, g in TREES])
    def tree(self, request):
        seed, generations = request.param
        return CoronaryTree.generate(generations=generations, seed=seed)

    @staticmethod
    def _point_sets(tree):
        rng = np.random.default_rng(tree.n_segments)
        box = tree.aabb()
        centre, diag = box.center, box.diagonal
        far_dirs = rng.normal(size=(50, 3))
        far_dirs /= np.linalg.norm(far_dirs, axis=1)[:, None]
        sets = {
            "near-surface": _near_surface_points(tree, rng, 400),
            "far": centre + diag * rng.uniform(2.0, 20.0, (50, 1)) * far_dirs,
            "whole-tree": rng.uniform(box.lo - 0.1 * diag, box.hi + 0.1 * diag, (800, 3)),
            "far-cluster": centre + 5.0 * diag + 0.01 * diag * rng.random((30, 3)),
            "empty": np.zeros((0, 3)),
        }
        sets.update(
            (f"single-{i}", p[None, :])
            for i, p in enumerate(_near_surface_points(tree, rng, 4))
        )
        sets.update(
            (f"block-{i}", pts)
            for i, pts in enumerate(_block_batches(box.expanded(0.05 * diag), 3, (6, 6, 6)))
        )
        return sets

    def test_segment_geometry_bitwise(self, tree):
        geom = CapsuleTreeGeometry(tree)
        for name, pts in self._point_sets(tree).items():
            got = geom._segment_geometry(pts)
            ref = all_capsule_segment_geometry(geom, pts)
            for g, r, what in zip(got, ref, ("phi", "k", "t")):
                assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), (name, what)

    def test_contains_matches_full_phi(self, tree):
        geom = CapsuleTreeGeometry(tree)
        for name, pts in self._point_sets(tree).items():
            ref = all_capsule_segment_geometry(geom, pts)[0] < 0.0
            assert np.array_equal(geom.contains(pts), ref), name

    def test_boundary_color_matches_full(self, tree):
        geom = CapsuleTreeGeometry(tree)
        full = AllCapsuleGeometry(tree)
        for name, pts in self._point_sets(tree).items():
            assert np.array_equal(geom.boundary_color(pts), full.boundary_color(pts)), name

    def test_block_batches_are_culled(self, tree, monkeypatch):
        geom = CapsuleTreeGeometry(tree)
        evaluated = []
        inner = geom._capsule_phi

        def spy(points, idx=None):
            evaluated.append(tree.n_segments if idx is None else len(idx))
            return inner(points, idx)

        monkeypatch.setattr(geom, "_capsule_phi", spy)
        for pts in _block_batches(tree.aabb(), 3, (6, 6, 6)):
            geom.contains(pts)
            geom.phi(pts)
        assert min(evaluated) < tree.n_segments

    def test_empty_candidate_batch(self, tree, monkeypatch):
        geom = CapsuleTreeGeometry(tree)
        box = tree.aabb()
        pts = box.hi + box.diagonal * (1.0 + np.random.default_rng(0).random((20, 3)))

        def fail(points, idx=None):
            raise AssertionError("no capsule can reach this batch")

        monkeypatch.setattr(geom, "_capsule_phi", fail)
        inside = geom.contains(pts)
        assert inside.dtype == bool and inside.shape == (20,) and not inside.any()

    def test_voxelized_forest_identical(self):
        tree = CoronaryTree.generate(generations=2, root_radius=1.0, seed=4)
        geom, full = CapsuleTreeGeometry(tree), AllCapsuleGeometry(tree)
        cells = (8, 8, 8)
        box = tree.aabb()
        block_extent = np.asarray(cells) * (1.0 / 3.0)
        grid = np.maximum(1, np.ceil(box.extent / block_extent).astype(int))
        domain = AABB(tuple(box.lo), tuple(box.lo + grid * block_extent))
        forest = SetupBlockForest.create(domain, tuple(grid), cells, geometry=geom)
        ref = SetupBlockForest.create(domain, tuple(grid), cells, geometry=full)
        assert [(b.id, b.coverage, b.fluid_cells) for b in forest.blocks] == [
            (b.id, b.coverage, b.fluid_cells) for b in ref.blocks
        ]
        colors = default_vascular_colors()
        assert forest.n_blocks > 10
        for b in forest.blocks:
            got = voxelize_block(geom, b.box, b.cells, colors=colors)
            assert np.array_equal(got, voxelize_block(full, b.box, b.cells, colors=colors))


def _perp(v):
    h = np.array([1.0, 0, 0]) if abs(v[0]) < 0.9 else np.array([0.0, 1, 0])
    p = np.cross(v, h)
    return p / np.linalg.norm(p)
