"""Shared experimental setup mirroring the paper's configuration.

The synthetic coronary tree here is calibrated so the quantities the
paper reports for its CTA dataset come out right: ~2.1 M fluid cells at
dx = 0.1 mm, ~16.9 M at 0.05 mm, and ~0.3 % bounding-box coverage.

This module also hosts :func:`profile_spmd_cavity` — the measured
counterpart of the paper's §4 methodology: a lid-driven cavity run as a
real message-passing SPMD program over virtual MPI ranks, with every
rank's hierarchical timing tree reduced (min/avg/max) exactly like
waLBerla's ``timing_pool.reduce()``.  It backs ``python -m repro
--profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..balance import balance_forest
from ..blocks.setup import SetupBlockForest
from ..comm.spmd import run_spmd_simulation
from ..comm.vmpi import VirtualMPI
from ..errors import ConfigurationError
from ..geometry.aabb import AABB
from ..geometry.coronary import CapsuleTreeGeometry, CoronaryTree
from ..lbm.boundary import NoSlip, UBB
from ..lbm.collision import TRT
from ..lbm.kernels.registry import default_dense_kernel, make_kernel
from ..lbm.lattice import D3Q19
from ..perf.metrics import comm_bandwidth, mflups, mlups
from ..perf.scaling import VesselBlockModel
from ..perf.timing import ReducedTimingTree, TimingTree, best_of, reduce_trees
from ..scenarios import lid_driven_cavity

__all__ = [
    "paper_coronary_tree",
    "paper_geometry",
    "paper_block_model",
    "measure_host_kernel_mlups",
    "ProfileResult",
    "profile_spmd_cavity",
]


@lru_cache(maxsize=None)
def paper_coronary_tree(generations: int = 9, seed: int = 0) -> CoronaryTree:
    """The synthetic stand-in for the paper's coronary CTA dataset."""
    return CoronaryTree.generate(
        generations=generations, root_radius=1.9e-3, seed=seed
    )


@lru_cache(maxsize=None)
def paper_geometry() -> CapsuleTreeGeometry:
    return CapsuleTreeGeometry(paper_coronary_tree())


@lru_cache(maxsize=None)
def paper_block_model(samples: int = 150_000) -> VesselBlockModel:
    return VesselBlockModel(paper_coronary_tree(), samples=samples)


def measure_host_kernel_mlups(
    tier: Optional[str] = None,
    cells: Tuple[int, int, int] = (48, 48, 48),
    steps: int = 5,
    collision=None,
) -> float:
    """Measured MLUPS of a kernel tier on this host (dense block);
    ``tier=None`` measures the default dense tier
    (:func:`~repro.lbm.kernels.registry.default_dense_kernel`)."""
    if tier is None:
        tier = default_dense_kernel()
    if collision is None:
        collision = TRT.from_tau(0.8)
    kern = make_kernel(tier, D3Q19, collision, cells)
    shape = (19,) + tuple(c + 2 for c in cells)
    rng = np.random.default_rng(0)
    src = 0.5 + 0.01 * rng.random(shape)
    dst = np.zeros_like(src)
    kern(src, dst)  # warm up

    grids = [src, dst]

    def sweeps() -> None:
        a, b = grids
        for _ in range(steps):
            kern(a, b)
            a, b = b, a
        grids[0], grids[1] = a, b

    dt, _ = best_of(1, sweeps)
    return mlups(int(np.prod(cells)) * steps, dt)


@dataclass
class ProfileResult:
    """Outcome of a profiled run: the reduced timing tree plus derived
    §4 metrics, renderable as text and exportable as JSON/CSV."""

    scenario: str
    ranks: int
    steps: int
    blocks: int
    cells_per_block: Tuple[int, int, int]
    reduced: ReducedTimingTree
    derived: Dict[str, float] = field(default_factory=dict)

    def report(self) -> str:
        """Aligned text: reduced tree, per-sweep breakdown, derived rates."""
        from .report import format_comm_breakdown

        title = (
            f"{self.scenario}: {self.blocks} blocks of "
            f"{'x'.join(map(str, self.cells_per_block))} cells, "
            f"{self.steps} steps"
        )
        lines = [
            self.reduced.render(title=title),
            "",
            format_comm_breakdown(self.reduced),
            "derived metrics:",
        ]
        for k, v in self.derived.items():
            lines.append(f"  {k:<28s} {v:,.3f}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable report (the ``--profile`` JSON payload)."""
        return {
            "schema": "repro.profile/1",
            "scenario": self.scenario,
            "ranks": self.ranks,
            "steps": self.steps,
            "blocks": self.blocks,
            "cells_per_block": list(self.cells_per_block),
            "derived": dict(self.derived),
            "timing": self.reduced.to_dict(),
        }

    def to_json(self, path: str) -> None:
        """Write :meth:`to_dict` as an indented JSON file."""
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def to_csv(self, path: str) -> None:
        """Write the flattened per-node timing rows as CSV."""
        import csv

        rows = self.reduced.rows()
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "path", "depth", "calls",
                    "total_min", "total_avg", "total_max", "n_ranks",
                ],
            )
            writer.writeheader()
            writer.writerows(rows)


def profile_spmd_cavity(
    ranks: int = 4,
    grid: Optional[Tuple[int, int, int]] = None,
    cells_per_block: Tuple[int, int, int] = (10, 10, 10),
    steps: int = 30,
    lid_velocity: float = 0.05,
    tau: float = 0.65,
) -> ProfileResult:
    """Run the lid-driven cavity as a message-passing SPMD program and
    profile it per rank.

    Every virtual rank owns a subset of the block forest, exchanges
    ghost layers by explicit send/recv, and records its own
    :class:`~repro.perf.timing.TimingTree`; the per-rank trees are then
    reduced to min/avg/max per scope — the measured analog of the
    paper's §4 per-sweep methodology, at laptop scale.
    """
    if ranks < 1:
        raise ConfigurationError("ranks must be >= 1")
    if grid is None:
        grid = (2, 2, max(1, (ranks + 3) // 4))
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, cells_per_block
    )
    if forest.n_blocks < ranks:
        raise ConfigurationError(
            f"grid {grid} has {forest.n_blocks} blocks < {ranks} ranks"
        )
    balance_forest(forest, ranks, strategy="morton")
    trees = [TimingTree() for _ in range(ranks)]
    world = VirtualMPI(ranks)
    run_spmd_simulation(
        world,
        forest,
        TRT.from_tau(tau),
        steps,
        conditions=[NoSlip(), UBB(velocity=(lid_velocity, 0.0, 0.0))],
        flag_setter=lid_driven_cavity(grid),
        timing_trees=trees,
    )
    reduced = reduce_trees(trees)
    kernel = reduced.root.children.get("kernel")
    comm = reduced.root.children.get("communication")
    derived: Dict[str, float] = {}
    cell_updates = reduced.counters.get("cells_updated", 0.0)
    fluid_updates = reduced.counters.get("fluid_cell_updates", 0.0)
    if kernel is not None and kernel.total_avg > 0:
        # Per-rank rate from avg kernel seconds; aggregate = ranks x avg.
        per_rank = mlups(cell_updates / reduced.n_ranks, kernel.total_avg)
        derived["kernel MLUPS/rank (avg)"] = per_rank
        derived["kernel MLUPS aggregate"] = per_rank * reduced.n_ranks
        derived["kernel MFLUPS aggregate"] = (
            mflups(fluid_updates / reduced.n_ranks, kernel.total_avg)
            * reduced.n_ranks
        )
    derived["comm fraction"] = reduced.fraction("communication")
    if comm is not None and comm.total_avg > 0:
        derived["comm MiB/s per rank"] = (
            comm_bandwidth(
                reduced.counters.get("comm.remote_bytes", 0.0) / reduced.n_ranks,
                comm.total_avg,
            )
            / 1024**2
        )
    return ProfileResult(
        scenario="spmd lid-driven cavity",
        ranks=ranks,
        steps=steps,
        blocks=forest.n_blocks,
        cells_per_block=tuple(cells_per_block),
        reduced=reduced,
        derived=derived,
    )
