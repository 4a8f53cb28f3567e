"""The fully distributed runtime block forest (§2.2).

"Each process only knows about its own blocks and blocks assigned to
neighboring processes ... the memory usage of a particular process only
depends on the number of blocks assigned to this process, and not on
the size of the entire simulation."

:class:`ProcessView` is exactly that per-process knowledge; test
``test_blocks.py::TestDistributedMemory`` asserts the constant-memory
property the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..errors import PartitioningError
from ..geometry.aabb import AABB
from ..geometry.voxelize import BlockCoverage
from .block import SetupBlock
from .blockid import BlockId
from .setup import SetupBlockForest, _NEIGHBOR_OFFSETS

__all__ = [
    "NeighborInfo",
    "LocalBlock",
    "ProcessView",
    "distribute",
    "view_for_rank",
]


@dataclass(frozen=True)
class NeighborInfo:
    """What a process knows about one neighboring block."""

    id: BlockId
    owner: int
    offset: Tuple[int, int, int]  # direction from the local block


@dataclass
class LocalBlock:
    """A block owned by this process, with its neighborhood."""

    id: BlockId
    box: AABB
    grid_index: Tuple[int, int, int]
    cells: Tuple[int, int, int]
    fluid_cells: int
    coverage: BlockCoverage
    neighbors: List[NeighborInfo] = field(default_factory=list)

    @property
    def total_cells(self) -> int:
        return self.cells[0] * self.cells[1] * self.cells[2]


@dataclass
class ProcessView:
    """One process's complete knowledge of the block structure."""

    rank: int
    n_processes: int
    domain: AABB
    blocks: List[LocalBlock] = field(default_factory=list)

    @property
    def n_local_blocks(self) -> int:
        return len(self.blocks)

    def local_fluid_cells(self) -> int:
        return sum(b.fluid_cells for b in self.blocks)

    def neighbor_ranks(self) -> List[int]:
        """Distinct remote ranks this process communicates with."""
        out = set()
        for b in self.blocks:
            for n in b.neighbors:
                if n.owner != self.rank:
                    out.add(n.owner)
        return sorted(out)

    def stored_entries(self) -> int:
        """Number of block/neighbor records held — the memory footprint.

        The paper's claim is that this is independent of the total
        number of processes and blocks in the simulation.
        """
        return len(self.blocks) + sum(len(b.neighbors) for b in self.blocks)


def _block_index(forest: SetupBlockForest) -> Dict[Tuple[int, int, int], SetupBlock]:
    """Validate ``forest`` for runtime distribution and index its blocks
    by root-grid position."""
    if forest.n_processes == 0:
        raise PartitioningError("forest must be balanced before distribution")
    if not forest.is_uniform:
        raise PartitioningError(
            "runtime distribution requires a uniform forest (like every "
            "simulation in the paper); refined forests are setup-only"
        )
    return {b.grid_index: b for b in forest.blocks}


def _local_block(
    b: SetupBlock,
    index: Dict[Tuple[int, int, int], SetupBlock],
    grid: Tuple[int, int, int],
    periodic: Sequence[bool],
) -> LocalBlock:
    """``b`` with its neighborhood: the block at every one of the 26
    offsets, wrapping around the root grid on periodic axes.

    On a periodic axis of extent 1 or 2 the same block can appear at
    several offsets (or be its own neighbor); each offset is a distinct
    ghost region, so each is listed.
    """
    neighbors = []
    for off in _NEIGHBOR_OFFSETS:
        target = [c + o for c, o in zip(b.grid_index, off)]
        if any(
            not (0 <= t < n or wrap) for t, n, wrap in zip(target, grid, periodic)
        ):
            continue  # leaves the domain across a non-periodic side
        nb = index.get(tuple(t % n for t, n in zip(target, grid)))
        if nb is not None:
            neighbors.append(NeighborInfo(id=nb.id, owner=nb.owner, offset=off))
    return LocalBlock(
        id=b.id,
        box=b.box,
        grid_index=b.grid_index,
        cells=b.cells,
        fluid_cells=b.fluid_cells,
        coverage=b.coverage,
        neighbors=neighbors,
    )


def view_for_rank(
    forest: SetupBlockForest,
    rank: int,
    periodic: Sequence[bool] = (False, False, False),
) -> ProcessView:
    """Build one process's distributed view (what that rank would
    construct for itself from the broadcast block-structure file).

    ``periodic`` marks the root-grid axes whose neighborhoods wrap
    around the domain.
    """
    index = _block_index(forest)
    if not 0 <= rank < forest.n_processes:
        raise PartitioningError(f"rank {rank} out of range")
    view = ProcessView(
        rank=rank, n_processes=forest.n_processes, domain=forest.domain
    )
    view.blocks.extend(
        _local_block(b, index, forest.root_grid, periodic)
        for b in forest.blocks
        if b.owner == rank
    )
    return view


def distribute(
    forest: SetupBlockForest, periodic: Sequence[bool] = (False, False, False)
) -> List[ProcessView]:
    """Build every process's distributed view from a balanced setup forest.

    In production each process constructs only its own view (from the
    broadcast file); building all views at once here is a test/driver
    convenience — each view still contains only what that process would
    know.  ``periodic`` is as for :func:`view_for_rank`.
    """
    index = _block_index(forest)
    views = [
        ProcessView(rank=r, n_processes=forest.n_processes, domain=forest.domain)
        for r in range(forest.n_processes)
    ]
    for b in forest.blocks:
        views[b.owner].blocks.append(
            _local_block(b, index, forest.root_grid, periodic)
        )
    return views
