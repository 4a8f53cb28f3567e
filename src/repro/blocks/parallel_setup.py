"""Parallel initialization algorithms (§2.3), as real SPMD programs.

The paper's setup phase is itself fully parallel:

* "the only communication required is the initial broadcast of S, which
  is read by a single process from file" — :func:`broadcast_geometry`;
* "First all blocks are randomly scattered among the processes to avoid
  load imbalances, then evaluation takes place ..., finally the result
  is gathered on all processes" — :func:`classify_blocks_spmd`;
* "only one process accesses the file system and loads the entire file
  into memory using one single read operation.  Following this read
  operation, the binary file content is broadcast to all processes" —
  :func:`broadcast_load_forest`.

These run on the :class:`~repro.comm.vmpi.VirtualMPI` substrate; the
tests assert the parallel results are identical to the sequential
construction in :mod:`repro.blocks.setup`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Tuple

import numpy as np

from ..comm.vmpi import Comm, VirtualMPI
from ..errors import PartitioningError
from ..geometry.aabb import AABB
from ..geometry.implicit import ImplicitGeometry
from .fileio import load_forest
from .setup import SetupBlockForest, _root_blocks

__all__ = [
    "broadcast_geometry",
    "classify_blocks_spmd",
    "classify_blocks_parallel",
    "broadcast_load_forest",
]


def broadcast_geometry(
    comm: Comm,
    load: Callable[[], ImplicitGeometry],
    root: int = 0,
) -> ImplicitGeometry:
    """Rank ``root`` loads the surface geometry; everyone receives it."""
    geom = load() if comm.rank == root else None
    return comm.bcast(geom, root=root)


def _scatter_assignment(n_blocks: int, size: int, seed: int) -> np.ndarray:
    """Deterministic random scatter of block indices to ranks.

    Every rank computes the same permutation from the same seed, so no
    communication is needed to agree on the assignment — only the
    evaluation results are exchanged.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_blocks)
    owner = np.empty(n_blocks, dtype=np.int64)
    owner[perm] = np.arange(n_blocks) % size
    return owner


def classify_blocks_spmd(
    comm: Comm,
    domain: AABB,
    root_grid: Tuple[int, int, int],
    cells_per_block: Tuple[int, int, int],
    geometry: ImplicitGeometry,
    workload_samples: int = 8,
    seed: int = 0,
) -> SetupBlockForest:
    """The scatter/evaluate/gather block classification, one rank's view.

    Returns the complete forest (identical on every rank) containing
    only the blocks that intersect the flow domain.
    """
    root_grid = tuple(int(g) for g in root_grid)
    cells_per_block = tuple(int(c) for c in cells_per_block)
    n_root = int(np.prod(root_grid))
    owner = _scatter_assignment(n_root, comm.size, seed)
    mine = _root_blocks(
        domain, root_grid, cells_per_block, geometry, workload_samples,
        np.flatnonzero(owner == comm.rank).tolist(),
    )

    # "Finally, the result is gathered on all processes."  Every rank
    # keeps its own copies, as it would after a real MPI gather.
    gathered = comm.allgather(mine)
    forest = SetupBlockForest(
        domain=domain, root_grid=root_grid, cells_per_block=cells_per_block
    )
    forest.blocks = sorted(
        (replace(b) for part in gathered for b in part),
        key=lambda b: b.id.root_index,
    )
    if not forest.blocks:
        raise PartitioningError("no block intersects the flow domain")
    return forest


def classify_blocks_parallel(
    world: VirtualMPI,
    domain: AABB,
    root_grid: Tuple[int, int, int],
    cells_per_block: Tuple[int, int, int],
    load_geometry: Callable[[], ImplicitGeometry],
    workload_samples: int = 8,
    seed: int = 0,
) -> SetupBlockForest:
    """Run the full parallel setup on a virtual MPI world.

    Rank 0 loads the geometry and broadcasts it; all ranks classify
    their randomly scattered share of the blocks; the gathered forest
    (identical on all ranks) is returned.
    """

    def program(comm: Comm) -> SetupBlockForest:
        geometry = broadcast_geometry(comm, load_geometry)
        return classify_blocks_spmd(
            comm, domain, root_grid, cells_per_block, geometry,
            workload_samples=workload_samples, seed=seed,
        )

    forests = world.run(program)
    first = forests[0]
    for other in forests[1:]:
        if [b.id for b in other.blocks] != [b.id for b in first.blocks]:
            raise PartitioningError("ranks disagree on the block structure")
    return first


def broadcast_load_forest(
    comm: Comm, path: Optional[str], root: int = 0
) -> SetupBlockForest:
    """The paper's file-loading pattern: one process reads the file with
    a single read operation and broadcasts the raw bytes; every process
    parses its own copy."""
    data = None
    if comm.rank == root:
        if path is None:
            raise PartitioningError("root rank needs the file path")
        with open(path, "rb") as f:
            data = f.read()
    data = comm.bcast(data, root=root)
    return load_forest(data)
