"""Synthetic coronary artery tree.

The paper's evaluation (§4.3) runs on a geometry "extracted from a
computed tomography angiography dataset of a human coronary artery
tree".  That dataset is not available, so this module generates a
procedural stand-in with the properties that drive the paper's results:

* a recursively bifurcating tree of tapered vessels following Murray's
  law (``r_parent^3 = r_1^3 + r_2^3``),
* a tiny volume fraction of its enclosing bounding box (the paper's
  dataset covers ~0.3 %),
* thin, elongated tubes, so blocks are partially covered and fluid
  cells form few but consecutive runs per lattice line, and
* an unambiguous inflow surface (root inlet) and outflow surfaces
  (leaf outlets) for boundary condition assignment.

The tree is represented as a union of capsules; its signed distance
function is evaluated analytically (exact, vectorized), which stands in
for the mesh + octree pipeline where a watertight surface mesh of a
branching structure would require CSG.  ``to_mesh()`` still emits a
triangle mesh (tubes per segment) for the mesh-based code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import GeometryError
from .aabb import AABB
from .implicit import ImplicitGeometry
from .mesh import TriangleMesh
from .primitives import capped_tube

__all__ = [
    "Segment",
    "CoronaryTree",
    "CapsuleTreeGeometry",
    "INFLOW_COLOR",
    "OUTFLOW_COLOR",
    "WALL_COLOR",
]

WALL_COLOR = 0
INFLOW_COLOR = 1
OUTFLOW_COLOR = 2


@dataclass(frozen=True)
class Segment:
    """One vessel segment (a capsule from ``start`` to ``end``)."""

    start: Tuple[float, float, float]
    end: Tuple[float, float, float]
    radius: float
    generation: int
    is_root: bool
    is_leaf: bool

    @property
    def length(self) -> float:
        return float(
            np.linalg.norm(np.asarray(self.end) - np.asarray(self.start))
        )

    @property
    def direction(self) -> np.ndarray:
        d = np.asarray(self.end) - np.asarray(self.start)
        return d / np.linalg.norm(d)


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of ``v`` about unit ``axis`` by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1 - c)


def _perpendicular(v: np.ndarray) -> np.ndarray:
    helper = np.array([1.0, 0.0, 0.0])
    if abs(v[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    p = np.cross(v, helper)
    return p / np.linalg.norm(p)


class CoronaryTree:
    """A procedurally generated bifurcating vessel tree."""

    def __init__(self, segments: List[Segment]):
        if not segments:
            raise GeometryError("tree has no segments")
        self.segments = segments

    @classmethod
    def generate(
        cls,
        generations: int = 5,
        root_radius: float = 2.0e-3,
        length_to_radius: float = 10.0,
        murray_exponent: float = 3.0,
        asymmetry: Tuple[float, float] = (0.6, 0.95),
        branch_angle: Tuple[float, float] = (0.35, 0.8),
        seed: int = 0,
    ) -> "CoronaryTree":
        """Grow a tree.

        Parameters
        ----------
        generations:
            Number of bifurcation levels; the tree has
            ``2^(generations+1) - 1`` segments.
        root_radius:
            Radius of the root vessel [m]; the paper's left coronary
            artery is a few millimetres.
        length_to_radius:
            Segment length as a multiple of its radius.
        murray_exponent:
            Exponent in Murray's law (3 for laminar flow).
        asymmetry:
            Range of the child radius ratio ``r_small / r_large``.
        branch_angle:
            Range of branch deflection angles [rad].
        seed:
            RNG seed — trees are fully deterministic per seed.
        """
        if generations < 0:
            raise GeometryError("generations must be >= 0")
        if root_radius <= 0:
            raise GeometryError("root_radius must be positive")
        rng = np.random.default_rng(seed)
        segments: List[Segment] = []

        def grow(start: np.ndarray, direction: np.ndarray, radius: float, gen: int):
            length = length_to_radius * radius
            end = start + direction * length
            is_leaf = gen == generations
            segments.append(
                Segment(
                    start=tuple(start),
                    end=tuple(end),
                    radius=radius,
                    generation=gen,
                    is_root=(gen == 0),
                    is_leaf=is_leaf,
                )
            )
            if is_leaf:
                return
            # Murray's law split with random asymmetry.
            gamma = rng.uniform(*asymmetry)
            r_large = radius / (1.0 + gamma**murray_exponent) ** (1.0 / murray_exponent)
            r_small = gamma * r_large
            # Deflection angles: the larger branch deviates less.
            theta = rng.uniform(*branch_angle)
            t_large = theta * (r_small / radius)
            t_small = theta * (r_large / radius) + theta
            # Random bifurcation plane around the parent direction.
            azimuth = rng.uniform(0.0, 2.0 * np.pi)
            normal = _rotate_about(_perpendicular(direction), direction, azimuth)
            d_large = _rotate_about(direction, normal, t_large)
            d_small = _rotate_about(direction, normal, -t_small)
            grow(end, d_large / np.linalg.norm(d_large), r_large, gen + 1)
            grow(end, d_small / np.linalg.norm(d_small), r_small, gen + 1)

        grow(np.zeros(3), np.array([0.0, 0.0, 1.0]), float(root_radius), 0)
        return cls(segments)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def aabb(self) -> AABB:
        pts = []
        for s in self.segments:
            pts.append(np.asarray(s.start) - s.radius)
            pts.append(np.asarray(s.start) + s.radius)
            pts.append(np.asarray(s.end) - s.radius)
            pts.append(np.asarray(s.end) + s.radius)
        return AABB.from_points(np.asarray(pts))

    def volume_estimate(self) -> float:
        """Approximate vessel volume: sum of cylinder volumes."""
        return float(
            sum(np.pi * s.radius**2 * s.length for s in self.segments)
        )

    def volume_fraction(self) -> float:
        """Vessel volume / bounding-box volume — the sparsity that makes
        the geometry 'a challenge for the block-structured approach'."""
        return self.volume_estimate() / self.aabb().volume

    def sample_volume_points(self, n: int, seed: int = 0) -> np.ndarray:
        """Uniform random points inside the vessel volume, ``(n, 3)``.

        Segments are chosen with probability proportional to their
        cylinder volume, then a point is drawn uniformly inside the
        cylinder.  Used by the scaling simulator to estimate how many
        blocks of a given size the tree occupies at resolutions far
        beyond what can be voxelized cell by cell.
        """
        if n < 1:
            raise GeometryError("need at least one sample")
        rng = np.random.default_rng(seed)
        vols = np.asarray(
            [np.pi * s.radius**2 * s.length for s in self.segments]
        )
        probs = vols / vols.sum()
        seg_idx = rng.choice(len(self.segments), size=n, p=probs)
        starts = np.asarray([s.start for s in self.segments])[seg_idx]
        ends = np.asarray([s.end for s in self.segments])[seg_idx]
        radii = np.asarray([s.radius for s in self.segments])[seg_idx]
        axes = ends - starts
        lengths = np.linalg.norm(axes, axis=1)
        axes_u = axes / lengths[:, None]
        t = rng.random(n)
        # Uniform in the disc: r = R * sqrt(u).
        r = radii * np.sqrt(rng.random(n))
        phi = 2.0 * np.pi * rng.random(n)
        # Per-sample orthonormal frame.
        helper = np.where(
            np.abs(axes_u[:, [0]]) > 0.9, [[0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0]]
        )
        u = np.cross(axes_u, helper)
        u /= np.linalg.norm(u, axis=1)[:, None]
        v = np.cross(axes_u, u)
        return (
            starts
            + t[:, None] * axes
            + (r * np.cos(phi))[:, None] * u
            + (r * np.sin(phi))[:, None] * v
        )

    def to_mesh(self, segments_per_tube: int = 12) -> TriangleMesh:
        """Tessellate every vessel as a capped tube (visualization / the
        mesh-based pipeline; junctions are unioned only implicitly)."""
        tubes = []
        for s in self.segments:
            tubes.append(
                capped_tube(
                    s.start,
                    s.end,
                    s.radius,
                    segments=segments_per_tube,
                    wall_color=WALL_COLOR,
                    start_cap_color=INFLOW_COLOR if s.is_root else WALL_COLOR,
                    end_cap_color=OUTFLOW_COLOR if s.is_leaf else WALL_COLOR,
                )
            )
        return TriangleMesh.merged(*tubes)


class CapsuleTreeGeometry(ImplicitGeometry):
    """Exact signed distance of a union of capsules (a vessel tree).

    The SDF of a union is the pointwise minimum of the member SDFs; for
    disjoint-or-overlapping capsules this classifies inside/outside
    exactly, which is all the voxelizer needs.

    Like the octree of :class:`~repro.geometry.implicit.MeshGeometry`,
    a batch of points is evaluated against only the capsules that can
    matter to it, chosen from the batch's bounding box:

    * ``phi``/``boundary_color`` keep every capsule whose distance lower
      bound (box-to-segment-box gap minus radius) does not exceed an
      upper bound on every point's minimum (phi at the box centre plus
      the box's circumsphere radius);
    * ``contains`` keeps every capsule whose radius-inflated segment box
      meets the batch box, the only ones that can give ``phi < 0``.

    Both bounds carry a slack far above rounding error, so a dropped
    capsule is strictly farther than the minimum at every point and the
    results are bit-identical to testing all capsules.
    """

    #: Slack of the candidate bounds, relative to the coordinate magnitude.
    _SLACK = 1e-9

    def __init__(self, tree: CoronaryTree):
        self.tree = tree
        self._starts = np.asarray([s.start for s in tree.segments])
        self._ends = np.asarray([s.end for s in tree.segments])
        self._radii = np.asarray([s.radius for s in tree.segments])
        self._axes = self._ends - self._starts
        self._len2 = np.einsum("ij,ij->i", self._axes, self._axes)
        self._is_root = np.asarray([s.is_root for s in tree.segments])
        self._is_leaf = np.asarray([s.is_leaf for s in tree.segments])
        # Box around each segment's axis (not inflated by its radius).
        self._seg_lo = np.minimum(self._starts, self._ends)
        self._seg_hi = np.maximum(self._starts, self._ends)
        self._scale = max(
            float(np.abs(self._seg_lo).max()),
            float(np.abs(self._seg_hi).max()),
            float(self._radii.max()),
        )

    def aabb(self) -> AABB:
        return self.tree.aabb()

    def _capsule_phi(self, points: np.ndarray, idx=None):
        """``(n, m)`` signed distances to capsules ``idx`` (all when
        ``None``) and the clamped projection parameters along them."""
        if idx is None:
            starts, axes, len2, radii = self._starts, self._axes, self._len2, self._radii
        else:
            starts, axes = self._starts[idx], self._axes[idx]
            len2, radii = self._len2[idx], self._radii[idx]
        d = points[:, None, :] - starts[None, :, :]
        t = np.einsum("nmj,mj->nm", d, axes) / len2[None, :]
        t = np.clip(t, 0.0, 1.0)
        closest = starts[None] + t[..., None] * axes[None]
        dist = np.linalg.norm(points[:, None, :] - closest, axis=-1)
        return dist - radii[None, :], t

    def _closest(self, points: np.ndarray, idx=None):
        """Closest capsule among ``idx`` (ascending; all when ``None``):
        ``(phi, global capsule index, t)``.  ``argmin`` keeps the first
        of equal values, so a candidate subset that holds every capsule
        attaining the minimum gives the same index as all capsules."""
        phi_all, t = self._capsule_phi(points, idx)
        k = np.argmin(phi_all, axis=1)
        rows = np.arange(len(points))
        return phi_all[rows, k], (k if idx is None else idx[k]), t[rows, k]

    def _batch_box(self, points: np.ndarray):
        """Bounding box of a batch and the slack of its candidate bounds."""
        lo, hi = points.min(axis=0), points.max(axis=0)
        scale = max(self._scale, float(np.abs(lo).max()), float(np.abs(hi).max()))
        return lo, hi, self._SLACK * scale

    def _segment_geometry(self, points: np.ndarray):
        """Per-point closest capsule: returns (phi, seg_idx, t_parameter)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not len(points):
            return self._closest(points)
        lo, hi, slack = self._batch_box(points)
        centre = 0.5 * (lo + hi)
        upper = self._closest(centre[None, :])[0][0] + 0.5 * np.linalg.norm(hi - lo)
        gap = np.maximum(np.maximum(self._seg_lo - hi, lo - self._seg_hi), 0.0)
        lower = np.linalg.norm(gap, axis=1) - self._radii
        return self._closest(points, np.flatnonzero(lower <= upper + slack))

    def phi(self, points: np.ndarray) -> np.ndarray:
        phi, _, _ = self._segment_geometry(points)
        return phi

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not len(points):
            return np.zeros(0, dtype=bool)
        lo, hi, slack = self._batch_box(points)
        reach = (self._radii + slack)[:, None]
        meets = np.all(
            (self._seg_lo - reach <= hi) & (lo <= self._seg_hi + reach), axis=1
        )
        cand = np.flatnonzero(meets)
        if cand.size == 0:
            return np.zeros(len(points), dtype=bool)
        phi_all, _ = self._capsule_phi(points, cand)
        return phi_all.min(axis=1) < 0.0

    def boundary_color(self, points: np.ndarray) -> np.ndarray:
        """INFLOW at the root inlet cap, OUTFLOW at leaf outlet caps,
        WALL everywhere else."""
        _, k, t = self._segment_geometry(points)
        colors = np.full(len(k), WALL_COLOR, dtype=np.int64)
        colors[(t <= 0.0) & self._is_root[k]] = INFLOW_COLOR
        colors[(t >= 1.0) & self._is_leaf[k]] = OUTFLOW_COLOR
        return colors
