"""Hybrid intra-rank parallel sweep engine (the paper's OpenMP half).

The paper's title feature is *hybrid* parallelism: MPI between nodes
plus OpenMP/SMT threads within one (§4.2, Figure 5 — 45 -> 73 MLUPS
from 1-way to 4-way SMT on JUQUEEN).  The distributed layers of this
reproduction model the MPI half with virtual ranks; this package is the
shared-memory half.  Every (virtual-MPI) rank can own a persistent
worker pool that executes its per-step sweeps with two decomposition
strategies:

* **block-level** scheduling — each dense/sparse block on the rank is
  an independent work item: an entry of the round's compiled table,
  claimed from one atomic counter by the threads of the generated
  library, or a NumPy task claimed work-queue style from per-worker
  deques with work stealing (Feichtinger et al.'s patch-level
  parallelization), and
* **slab-level** splitting — a single large block's interior (or its
  ghost-independent inner region under ``comm_mode="overlap"``) is cut
  along the slowest-varying axis into per-worker subregion views, each
  swept through the PR-3 ``region_view`` machinery.

The rank's ``workers`` count picks the engine: one worker runs every
sweep inline, more share a pool (:func:`~repro.exec.engine.make_engine`).
Parallel sweeps are *bit-identical* to serial ones: tasks write
disjoint destination regions and per-cell arithmetic does not depend on
the decomposition.  See ``docs/hybrid-parallelism.md``.
"""

from .engine import (
    ExecutionEngine,
    RoundHandle,
    SerialEngine,
    SweepRound,
    SweepTask,
    ThreadedEngine,
    make_engine,
)
from .partition import slab_boxes, slabs_per_block

__all__ = [
    "ExecutionEngine",
    "RoundHandle",
    "SerialEngine",
    "SweepRound",
    "SweepTask",
    "ThreadedEngine",
    "make_engine",
    "slab_boxes",
    "slabs_per_block",
]
