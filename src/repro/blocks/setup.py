"""Setup block forest: domain partitioning against a geometry (§2.2-2.3).

The two-stage partitioning of Figure 2: the bounding box of the domain
is divided into equally sized blocks; blocks that do not intersect the
flow domain are discarded; the remaining blocks carry their fluid-cell
count as workload.  The weak/strong-scaling searches of §2.3 ("we solve
both problems by performing a binary search in the respective parameter
space") are :func:`search_weak_scaling_partition` and
:func:`search_strong_scaling_partition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitioningError
from ..geometry.aabb import AABB
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import BlockCoverage, cell_centers
from .block import SetupBlock
from .blockid import BlockId

__all__ = [
    "SetupBlockForest",
    "search_weak_scaling_partition",
    "search_strong_scaling_partition",
]

#: All 26 neighbor offsets (full stencil neighborhood of a block).
_NEIGHBOR_OFFSETS: Tuple[Tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)


@dataclass
class SetupBlockForest:
    """The global block structure built during initialization.

    This structure scales with the total number of blocks; the paper
    builds it once (possibly on a different machine), balances it, and
    writes it to file (§2.2).  The runtime structure
    (:class:`~repro.blocks.forest.BlockForest`) is fully distributed.
    """

    domain: AABB
    root_grid: Tuple[int, int, int]
    cells_per_block: Tuple[int, int, int]
    blocks: List[SetupBlock] = field(default_factory=list)
    n_processes: int = 0

    # -- construction -------------------------------------------------------
    @classmethod
    def create(
        cls,
        domain: AABB,
        root_grid: Tuple[int, int, int],
        cells_per_block: Tuple[int, int, int],
        geometry: Optional[ImplicitGeometry] = None,
        workload_samples: int = 8,
    ) -> "SetupBlockForest":
        """Divide ``domain`` into a regular grid of blocks and discard
        blocks that do not intersect the flow domain.

        Parameters
        ----------
        domain:
            The simulation bounding box.
        root_grid:
            Number of initial blocks per axis.
        cells_per_block:
            Lattice cells per block per axis.
        geometry:
            Flow-domain geometry; ``None`` keeps every block fully fluid
            (dense regular domains, §4.2).
        workload_samples:
            Cell-center samples per axis used to estimate the fluid-cell
            count of partially covered blocks.  The paper's circumsphere
            test resolves most blocks exactly from their centre's signed
            distance; the rest are classified from these samples alone,
            so a block whose few fluid cells all fall between the samples
            is discarded as OUTSIDE.
        """
        root_grid = tuple(int(g) for g in root_grid)
        cells_per_block = tuple(int(c) for c in cells_per_block)
        if any(g < 1 for g in root_grid) or any(c < 1 for c in cells_per_block):
            raise PartitioningError("root grid and block cells must be positive")
        forest = cls(domain=domain, root_grid=root_grid, cells_per_block=cells_per_block)
        forest.blocks = _root_blocks(
            domain, root_grid, cells_per_block, geometry, workload_samples,
            range(int(np.prod(root_grid))),
        )
        if not forest.blocks:
            raise PartitioningError("no block intersects the flow domain")
        return forest

    # -- basic queries ------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def root_bits(self) -> int:
        return max(1, int(np.prod(self.root_grid) - 1).bit_length())

    @property
    def dx(self) -> float:
        """Isotropic lattice spacing (requires cubic cells)."""
        step = self.domain.extent / np.asarray(self.root_grid) / np.asarray(
            self.cells_per_block
        )
        if not np.allclose(step, step[0], rtol=1e-9):
            raise PartitioningError(f"anisotropic lattice spacing {step}")
        return float(step[0])

    def total_fluid_cells(self) -> int:
        return sum(b.fluid_cells for b in self.blocks)

    def total_cells(self) -> int:
        return sum(b.total_cells for b in self.blocks)

    def fluid_fraction(self) -> float:
        t = self.total_cells()
        return self.total_fluid_cells() / t if t else 0.0

    def block_at(self, grid_index: Tuple[int, int, int]) -> Optional[SetupBlock]:
        for b in self.blocks:
            if b.grid_index == tuple(grid_index):
                return b
        return None

    def neighbors(self, block: SetupBlock) -> List[SetupBlock]:
        """Existing blocks adjacent to ``block`` (26-neighborhood)."""
        index: Dict[Tuple[int, int, int], SetupBlock] = {
            b.grid_index: b for b in self.blocks
        }
        out = []
        i, j, k = block.grid_index
        for di, dj, dk in _NEIGHBOR_OFFSETS:
            nb = index.get((i + di, j + dj, k + dk))
            if nb is not None:
                out.append(nb)
        return out

    def neighbor_map(self) -> Dict[Tuple[int, int, int], List[SetupBlock]]:
        """Adjacency for every block in one pass."""
        index = {b.grid_index: b for b in self.blocks}
        out: Dict[Tuple[int, int, int], List[SetupBlock]] = {}
        for b in self.blocks:
            i, j, k = b.grid_index
            out[b.grid_index] = [
                index[(i + di, j + dj, k + dk)]
                for di, dj, dk in _NEIGHBOR_OFFSETS
                if (i + di, j + dj, k + dk) in index
            ]
        return out

    # -- refinement (forest of octrees, §2.2) ----------------------------------
    def refine_block(self, block: SetupBlock) -> List[SetupBlock]:
        """Subdivide ``block`` into its eight octant children in place.

        "Each initial block can be further subdivided into eight equally
        sized, smaller blocks.  This process can be applied recursively"
        (§2.2).  Children keep the parent's cells-per-block, i.e. their
        grids are twice as fine — the grid-refinement capability the
        paper's data structures support.  Like the paper's simulations,
        the runtime drivers in this repo only accept uniform forests;
        refined forests exercise the data structures and the file format.
        """
        try:
            idx = self.blocks.index(block)
        except ValueError:
            raise PartitioningError("block is not part of this forest") from None
        children: List[SetupBlock] = []
        # AABB.octants() yields in (ix, iy, iz) nested order; the octant
        # index packs the same bits, keeping ids and boxes consistent.
        for octant, child_box in enumerate(block.box.octants()):
            per_child = max(1, block.fluid_cells // 8)
            children.append(
                SetupBlock(
                    id=block.id.child(octant),
                    box=child_box,
                    grid_index=block.grid_index,
                    coverage=block.coverage,
                    fluid_cells=(
                        per_child
                        if block.coverage is not BlockCoverage.FULL
                        else block.total_cells
                    ),
                    cells=block.cells,
                    owner=block.owner,
                )
            )
        self.blocks[idx:idx + 1] = children
        return children

    @property
    def is_uniform(self) -> bool:
        """True iff no block has been subdivided (all ids at depth 0)."""
        return all(b.id.depth == 0 for b in self.blocks)

    def max_depth(self) -> int:
        return max(b.id.depth for b in self.blocks)

    def geometric_neighbors(self, block: SetupBlock) -> List[SetupBlock]:
        """Adjacency by box contact — works across refinement levels.

        A refined neighbor of a coarse block (or vice versa) is any block
        whose box touches it; used instead of grid-index arithmetic when
        the forest is not uniform.
        """
        eps = 1e-9 * self.domain.diagonal
        probe = block.box.expanded(eps)
        return [
            b
            for b in self.blocks
            if b is not block and probe.intersects(b.box)
        ]

    # -- load balancing -------------------------------------------------------
    def assign(self, owners: Sequence[int], n_processes: int) -> None:
        """Record the owner rank of every block (from a balancer)."""
        if len(owners) != self.n_blocks:
            raise PartitioningError(
                f"{len(owners)} owners for {self.n_blocks} blocks"
            )
        for rank in owners:
            if not 0 <= rank < n_processes:
                raise PartitioningError(f"owner rank {rank} out of range")
        for b, rank in zip(self.blocks, owners):
            b.owner = int(rank)
        self.n_processes = int(n_processes)

    def blocks_of(self, rank: int) -> List[SetupBlock]:
        return [b for b in self.blocks if b.owner == rank]

    def max_blocks_per_process(self) -> int:
        if self.n_processes == 0:
            raise PartitioningError("forest not balanced yet")
        counts = np.zeros(self.n_processes, dtype=int)
        for b in self.blocks:
            counts[b.owner] += 1
        return int(counts.max())

    def workload_imbalance(self) -> float:
        """max / mean per-process workload (1.0 is perfect)."""
        if self.n_processes == 0:
            raise PartitioningError("forest not balanced yet")
        loads = np.zeros(self.n_processes)
        for b in self.blocks:
            loads[b.owner] += b.workload
        mean = loads.mean()
        return float(loads.max() / mean) if mean > 0 else float("inf")


def _root_blocks(
    domain: AABB,
    root_grid: Tuple[int, int, int],
    cells: Tuple[int, int, int],
    geometry: Optional[ImplicitGeometry],
    samples: int,
    root_indices: Iterable[int],
) -> List[SetupBlock]:
    """The root blocks ``root_indices`` (``(i * ny + j) * nz + k``, in
    the given order) that intersect the flow domain.

    ``geometry=None`` keeps every block, fully fluid.  Otherwise the
    signed distance at all block centres is one batched ``phi`` call and
    each block is classified by :func:`_classify_and_count`.
    """
    _, ny, nz = root_grid
    lo = domain.lo
    step = domain.extent / np.asarray(root_grid, dtype=np.float64)
    placed = []
    for root_index in root_indices:
        i, rem = divmod(root_index, ny * nz)
        j, k = divmod(rem, nz)
        box = AABB(tuple(lo + step * (i, j, k)), tuple(lo + step * (i + 1, j + 1, k + 1)))
        placed.append((root_index, (i, j, k), box))
    if geometry is None:
        classified = [(BlockCoverage.FULL, int(np.prod(cells)))] * len(placed)
    else:
        centres = [box.center for _, _, box in placed]
        phi_c = geometry.phi(np.asarray(centres)) if centres else []
        classified = [
            _classify_and_count(geometry, box, cells, samples, float(phi))
            for (_, _, box), phi in zip(placed, phi_c)
        ]
    return [
        SetupBlock(
            id=BlockId(root_index),
            box=box,
            grid_index=grid_index,
            coverage=coverage,
            fluid_cells=fluid,
            cells=cells,
        )
        for (root_index, grid_index, box), (coverage, fluid) in zip(placed, classified)
        if coverage is not BlockCoverage.OUTSIDE
    ]


def _classify_and_count(
    geometry: ImplicitGeometry,
    box: AABB,
    cells: Tuple[int, int, int],
    samples: int,
    phi_c: float,
) -> Tuple[BlockCoverage, int]:
    """Paper's block classification (§2.3) plus workload estimation.

    The circumsphere test resolves most blocks with the signed distance
    ``phi_c`` at the barycenter; only straddling blocks sample cell
    centers.  The fluid-cell count of straddling blocks is estimated on
    a ``samples^3`` sub-grid and scaled.
    """
    total = int(np.prod(cells))
    R = box.circumsphere_radius()
    if abs(phi_c) > R:
        if phi_c < 0.0:
            return BlockCoverage.FULL, total
        return BlockCoverage.OUTSIDE, 0
    s = (
        min(samples, cells[0]),
        min(samples, cells[1]),
        min(samples, cells[2]),
    )
    centers = cell_centers(box, s).reshape(-1, 3)
    inside = geometry.contains(centers)
    n = int(inside.sum())
    if n == 0:
        return BlockCoverage.OUTSIDE, 0
    if n == inside.size:
        return BlockCoverage.FULL, total
    return BlockCoverage.PARTIAL, max(1, round(total * n / inside.size))


def _forest_for_dx(
    geometry: ImplicitGeometry,
    cells_per_block: Tuple[int, int, int],
    dx: float,
    workload_samples: int,
) -> SetupBlockForest:
    """Build the partition for spacing ``dx``: the domain AABB is the
    geometry AABB rounded up to whole blocks (cube-aligned grid)."""
    box = geometry.aabb()
    block_extent = np.asarray(cells_per_block, dtype=np.float64) * dx
    grid = np.maximum(1, np.ceil(box.extent / block_extent).astype(int))
    hi = box.lo + grid * block_extent
    domain = AABB(tuple(box.lo), tuple(hi))
    return SetupBlockForest.create(
        domain, tuple(int(g) for g in grid), cells_per_block,
        geometry=geometry, workload_samples=workload_samples,
    )


def search_weak_scaling_partition(
    geometry: ImplicitGeometry,
    cells_per_block: Tuple[int, int, int],
    target_blocks: int,
    max_iterations: int = 40,
    workload_samples: int = 8,
) -> SetupBlockForest:
    """Find dx so the partition yields as many blocks as possible without
    exceeding ``target_blocks`` (fixed block size, §2.3 weak scaling).

    The block count is not monotonic in dx, so — like the paper — the
    result is the best partition encountered during a bisection on dx.
    """
    if target_blocks < 1:
        raise PartitioningError("target_blocks must be >= 1")
    diag = geometry.aabb().diagonal
    mean_block_cells = float(np.mean(cells_per_block))
    # Bracket: dx_hi yields very few blocks, dx_lo very many.
    dx_hi = diag / mean_block_cells
    dx_lo = dx_hi / max(2.0, 4.0 * target_blocks ** (1.0 / 3.0))
    best: Optional[SetupBlockForest] = None
    for _ in range(max_iterations):
        dx = math.sqrt(dx_lo * dx_hi)  # geometric bisection
        forest = _forest_for_dx(geometry, cells_per_block, dx, workload_samples)
        n = forest.n_blocks
        if n <= target_blocks and (best is None or n > best.n_blocks):
            best = forest
        if n > target_blocks:
            dx_lo = dx  # too fine -> coarsen
        else:
            dx_hi = dx  # room left -> refine
        if best is not None and best.n_blocks == target_blocks:
            break
    if best is None:
        raise PartitioningError(
            f"no partition with <= {target_blocks} blocks found"
        )
    return best


def search_strong_scaling_partition(
    geometry: ImplicitGeometry,
    dx: float,
    target_blocks: int,
    min_edge: int = 4,
    max_edge: int = 512,
    workload_samples: int = 8,
) -> SetupBlockForest:
    """Find the cubic block edge length (in cells) so the partition at
    fixed ``dx`` yields as many blocks as possible without exceeding
    ``target_blocks`` (§2.3 strong scaling).

    The paper reduces the search space "by fixing the blocks to cubes and
    only varying the edge length"; the count is not monotonic in the
    edge, so all edges in the bisection bracket are evaluated.
    """
    if target_blocks < 1:
        raise PartitioningError("target_blocks must be >= 1")
    lo, hi = min_edge, max_edge
    best: Optional[SetupBlockForest] = None
    while lo <= hi:
        edge = (lo + hi) // 2
        forest = _forest_for_dx(geometry, (edge, edge, edge), dx, workload_samples)
        n = forest.n_blocks
        if n <= target_blocks and (best is None or n > best.n_blocks):
            best = forest
        if n > target_blocks:
            lo = edge + 1  # blocks too small -> enlarge
        else:
            hi = edge - 1
    if best is None:
        raise PartitioningError(
            f"no cubic partition with <= {target_blocks} blocks in "
            f"edge range [{min_edge}, {max_edge}]"
        )
    return best
