"""Block voxelization: signed distance -> cell flags (§2.3).

"To mark the fluid cells as such, we voxelize S using phi ... To
determine which lattice cells are boundary cells, we compute the hull of
the fluid cells using a morphological dilation operator w.r.t. the LBM
stencil.  To assign specific boundary conditions to the boundary lattice
cells, we exploit that S may store a color for each vertex."

Every process voxelizes its own blocks independently; this module is the
per-block operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np
from scipy import ndimage

from .. import flagdefs as fl
from ..errors import GeometryError
from ..lbm.lattice import D3Q19, LatticeModel
from .aabb import AABB
from .implicit import ImplicitGeometry

__all__ = [
    "BlockCoverage",
    "classify_block",
    "cell_centers",
    "stencil_structure",
    "voxelize_block",
    "ColorMap",
]


class BlockCoverage(Enum):
    """How a block relates to the flow domain Lambda."""

    OUTSIDE = "outside"       # no cell center inside the domain
    FULL = "full"             # every cell center inside the domain
    PARTIAL = "partial"       # some cell centers inside


def cell_centers(box: AABB, cells: Tuple[int, int, int], ghost: int = 0) -> np.ndarray:
    """Cell-center coordinates of a block's uniform grid.

    Returns an array of shape ``cells(+2*ghost) + (3,)``.  With
    ``ghost > 0`` the grid is extended by ghost cells on every side.
    """
    cells = tuple(int(c) for c in cells)
    if any(c < 1 for c in cells):
        raise GeometryError(f"cells must be positive, got {cells}")
    lo = box.lo
    dx = box.extent / np.asarray(cells, dtype=np.float64)
    axes = [
        lo[d] + (np.arange(-ghost, cells[d] + ghost) + 0.5) * dx[d]
        for d in range(3)
    ]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1)


def classify_block(
    geom: ImplicitGeometry,
    box: AABB,
    cells: Tuple[int, int, int],
) -> BlockCoverage:
    """Decide whether a block intersects the flow domain.

    Implements the paper's acceleration: with the block barycenter
    ``b~`` and circumsphere radius ``R``, ``|phi(b~)| > R`` resolves the
    block without looking at any cell (uniformly inside or outside).
    The paper's insphere test only proves intersection, not full or
    partial coverage, so every remaining block tests its individual
    cell centers.
    """
    phi_c = geom.phi_single(box.center)
    R = box.circumsphere_radius()
    if abs(phi_c) > R:
        return BlockCoverage.FULL if phi_c < 0.0 else BlockCoverage.OUTSIDE
    centers = cell_centers(box, cells).reshape(-1, 3)
    inside = geom.contains(centers)
    n = int(inside.sum())
    if n == 0:
        return BlockCoverage.OUTSIDE
    if n == inside.size:
        return BlockCoverage.FULL
    return BlockCoverage.PARTIAL


def stencil_structure(model: LatticeModel = D3Q19) -> np.ndarray:
    """Binary structuring element of the lattice stencil for dilation."""
    size = 3
    s = np.zeros((size,) * model.dim, dtype=bool)
    for e in model.velocities:
        s[tuple(int(c) + 1 for c in e)] = True
    return s


@dataclass(frozen=True)
class ColorMap:
    """Mapping from surface colors to boundary flags.

    ``wall`` is the flag for any color not otherwise mapped (color 0 by
    convention is the vessel wall).
    """

    wall: int = int(fl.NO_SLIP)
    by_color: Tuple[Tuple[int, int], ...] = ()

    def flag_for(self, colors: np.ndarray) -> np.ndarray:
        out = np.full(colors.shape, self.wall, dtype=np.uint8)
        for color, flag in self.by_color:
            out[colors == color] = np.uint8(flag)
        return out


def voxelize_block(
    geom: ImplicitGeometry,
    box: AABB,
    cells: Tuple[int, int, int],
    model: LatticeModel = D3Q19,
    colors: ColorMap = ColorMap(),
) -> np.ndarray:
    """Voxelize one block into a padded flag array.

    Returns a ``uint8`` array of shape ``cells + 2`` (one ghost layer per
    side): FLUID where the cell center is inside the domain, a boundary
    flag on the morphological-dilation hull of the fluid cells (colored
    via the closest surface region), OUTSIDE elsewhere.

    The grid is computed on the ghost-extended region so hull cells that
    fall just outside the block are flagged consistently with how the
    neighboring block flags them.
    """
    centers = cell_centers(box, cells, ghost=1)
    pts = centers.reshape(-1, 3)
    inside = geom.contains(pts).reshape(centers.shape[:-1])
    flags = np.zeros(inside.shape, dtype=np.uint8)
    flags[inside] = fl.FLUID
    hull = ndimage.binary_dilation(inside, structure=stencil_structure(model)) & ~inside
    if hull.any():
        hull_pts = centers[hull]
        c = geom.boundary_color(hull_pts)
        flags[hull] = colors.flag_for(c)
    return flags
