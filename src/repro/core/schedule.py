"""One block runtime and one time step for every driver (§2.3, §4.2).

A block's runtime state is a :class:`BlockRuntime`, its kernel comes
from :func:`make_block_kernel`, and a process steps its blocks through
:class:`BlockSweepSchedule`.  Every driver uses these three: the
single-block :class:`~repro.core.simulation.Simulation` (one block,
whose exchange is the periodic ghost wrap) and the multi-block
:class:`~repro.comm.distributed.DistributedSimulation`, which owns
every block in-process or, on an SPMD rank
(:func:`~repro.comm.spmd.spmd_rank_program`), one rank's blocks.  They
differ only in which blocks they own and which exchange moves the ghost
data; the sweeps are the same:

    fused:    communication -> boundary -> kernel -> swap
    overlap:  communication -> boundary -> inner kernel
              -> communication finish -> frontier kernel -> swap

Every ghost exchange offers ``exchange()`` and ``resync()`` (copy
every cell again, called by a checkpoint load); the multi-block
driver's :class:`~repro.comm.buffersystem.BufferSystem`, which overlap
uses, also offers ``start()`` (pack, post sends, local copies) and
``finish()`` (drain and unpack); in-process, the driver wraps one per
virtual rank behind the same calls.

Work items are built once.  The items the generated library sweeps
are the entries of one table per round (an entry is a slab, an inner
box, a frontier's six shells or a whole block as a box table, or a
sparse block's run table; a boundary entry is one block's link
tables), which the engine walks in one C call per participant; the
NumPy tiers run once per box on region views.  A table's grid pointers
are refreshed from ``field.src`` / ``field.dst`` before every round, so
the two-grid swap stays transparent, and every round's items write
disjoint regions, so any worker count is bit-identical to serial
execution.  The sweeps look up
``exchange.finish`` and ``engine.run`` / ``engine.run_async`` on every
call, so wrappers installed on those objects take effect.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Collection, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .. import flagdefs as fl
from ..errors import ConfigurationError
from ..exec import (
    ExecutionEngine,
    RoundHandle,
    SweepRound,
    SweepTask,
    slab_boxes,
    slabs_per_block,
)
from ..lbm.boundary import BoundaryHandling
from ..lbm.collision import SRT, TRT
from ..lbm.kernels import compiled
from ..lbm.kernels.common import box_cells, interior_partition
from ..lbm.kernels.registry import (
    KERNEL_TIERS,
    Kernel,
    default_dense_kernel,
    instrument_kernel,
    make_kernel,
    run_kernel_on_region,
)
from ..lbm.kernels.sparse import SPARSE_KERNELS
from ..lbm.lattice import LatticeModel
from ..perf.timing import TimingTree
from .field import PdfField
from .flags import FlagField
from .timeloop import TimeLoop

__all__ = ["BlockRuntime", "BlockSweepSchedule", "WorkItem", "make_block_kernel"]


class BlockRuntime:
    """Everything one block needs to take time steps: flag field, PDF
    field, kernel, boundary handler, and its cell counts.

    ``cells`` is the interior extent; ``fluid_cells`` the fluid-cell
    count the ``fluid_cell_updates`` counter and MFLUPS rates use, set
    by whoever builds the runtime.
    """

    __slots__ = (
        "flags", "field", "kernel", "handler", "kernel_name", "cells", "fluid_cells",
    )

    def __init__(
        self,
        flags: FlagField,
        field: PdfField,
        kernel: Kernel,
        handler: BoundaryHandling,
        kernel_name: str,
        cells: Tuple[int, ...],
        fluid_cells: int,
    ):
        self.flags = flags
        self.field = field
        self.kernel = kernel
        self.handler = handler
        self.kernel_name = kernel_name
        self.cells = tuple(int(c) for c in cells)
        self.fluid_cells = int(fluid_cells)


def make_block_kernel(
    flags: FlagField,
    fluid: np.ndarray,
    model: LatticeModel,
    collision: Union[SRT, TRT],
    name: Optional[str] = None,
) -> Tuple[str, Kernel]:
    """Pick and build a block's kernel from its flag field and fluid
    mask (``flags.fluid_mask()``, which every caller already holds);
    returns ``(name, kernel)``.

    ``None`` picks ``interval`` when the block has OUTSIDE cells and
    :func:`~repro.lbm.kernels.registry.default_dense_kernel` otherwise.
    A sparse strategy name (``conditional`` / ``indexlist`` /
    ``interval``) builds that strategy over the fluid cells (D3Q19
    only).  ``interval`` is built compiled when
    :func:`~repro.lbm.kernels.compiled.available` — the test
    :func:`~repro.lbm.kernels.registry.default_dense_kernel` uses — and
    in NumPy otherwise; both give the same bits.  A dense tier on a block with OUTSIDE cells raises
    :class:`~repro.errors.ConfigurationError`.
    """
    has_outside = bool((flags.interior == fl.OUTSIDE).any())
    if name is None:
        name = "interval" if has_outside else default_dense_kernel()
    if name in SPARSE_KERNELS:
        if model.name != "D3Q19":
            raise ConfigurationError("sparse kernels require D3Q19")
        if name == "interval" and compiled.available():
            return name, compiled.CompiledIntervalKernel(fluid, collision)
        return name, SPARSE_KERNELS[name](fluid, collision)
    if has_outside:
        raise ConfigurationError(
            f"dense kernel {name!r} on a block with OUTSIDE cells; "
            "use a sparse strategy (conditional/indexlist/interval)"
        )
    return name, make_kernel(name, model, collision, flags.cells)


def _sweep_task(kern, field, boxes, cost: float, name: str) -> SweepTask:
    """The NumPy-path task that sweeps ``boxes`` of a block (``None``:
    the whole block), once per box on its region views
    (:func:`~repro.lbm.kernels.registry.run_kernel_on_region`)."""
    if boxes is None:
        def fn() -> None:
            kern(field.src, field.dst)
    else:
        def fn() -> None:
            for box in boxes:
                run_kernel_on_region(kern, field.src, field.dst, box)

    return SweepTask(fn, cost=cost, name=name)


class WorkItem(NamedTuple):
    """One block, slab or frontier of a round, as the engine counts it:
    a table entry or a NumPy task."""

    name: str
    cost: float


class BlockSweepSchedule:
    """The sweeps that advance one rank's blocks by one time step.

    Parameters
    ----------
    runtimes:
        Block id -> :class:`BlockRuntime` of every block this rank
        steps (cell extents and fluid-cell counts included).
    exchange:
        The ghost-exchange executor (``exchange`` and ``resync``, plus
        ``start`` / ``finish`` under overlap).
    engine:
        The rank's sweep engine (:mod:`repro.exec`).
    tree:
        Timing tree for per-tier kernel timers and counters.
    overlap:
        Split dense blocks into an inner box swept while the exchange
        is in flight and a one-cell frontier swept after it.
    remote_dst:
        Ids of blocks whose ghost layers receive data from other ranks;
        under overlap, the boundary links of those that write into the
        ghost shell are re-applied after the unpack.

    Decomposition is hybrid: with at least as many blocks as workers
    each block is one work item; with fewer, each dense block's interior
    (or inner box) is cut into :func:`~repro.exec.slabs_per_block` slabs
    along the slowest axis.  Sparse blocks always stay whole — their
    index lists are built for the full padded shape — and frontier
    shells stay one item per block.  Each round is a
    :class:`~repro.exec.SweepRound`: one entry table of the items the
    generated library sweeps, over one per-rank
    :class:`~repro.lbm.kernels.compiled.GridTable`, plus NumPy tasks
    for the rest; ``boundary_tasks``, ``kernel_tasks``, ``inner_tasks``
    and ``frontier_tasks`` list one :class:`WorkItem` per block, slab or
    frontier, as ``exec.tasks`` counts them.
    """

    def __init__(
        self,
        runtimes: Mapping[object, BlockRuntime],
        exchange,
        engine: ExecutionEngine,
        tree: TimingTree,
        overlap: bool,
        remote_dst: Collection[object],
    ):
        self.runtimes = runtimes
        self.exchange = exchange
        self.engine = engine
        self.tree = tree
        self.overlap = overlap
        # Per-tier kernel timers nest under the dispatching sweep scope.
        kernels = {
            key: instrument_kernel(rt.kernel, tree, rt.kernel_name)
            for key, rt in runtimes.items()
        }
        total = {key: math.prod(rt.cells) for key, rt in runtimes.items()}
        # Cells each kernel sweeps (sparse kernels skip non-fluid cells).
        processed = {
            key: getattr(kern, "processed_cells", total[key])
            for key, kern in kernels.items()
        }
        #: Cells the kernels sweep per step, and fluid cells per step.
        self.cells_per_step = sum(processed.values())
        self.fluid_per_step = sum(rt.fluid_cells for rt in runtimes.values())
        dense = [key for key, rt in runtimes.items() if rt.kernel_name in KERNEL_TIERS]
        threaded = engine.mode == "threads"
        self._kernels = kernels
        self._grids = compiled.GridTable(len(runtimes))

        self.boundary_round, self.boundary_tasks = self._boundary_round(
            [(key, False, float(total[key]), f"{key}:boundary") for key in runtimes]
        )
        self.kernel_tasks: List[WorkItem] = []
        self.inner_tasks: List[WorkItem] = []
        self.frontier_tasks: List[WorkItem] = []
        self.reapply: List[object] = []
        if not overlap:
            slabs = 1
            if threaded:
                slabs = slabs_per_block(len(runtimes), len(dense), engine.workers)
            items = []
            for key in kernels:
                cells = runtimes[key].cells
                if key in dense and slabs > 1:
                    full = ((0,) * len(cells), cells)
                    items.extend(
                        (key, [box], box_cells(box), f"{key}:slab{i}")
                        for i, box in enumerate(slab_boxes(full, slabs))
                    )
                else:
                    items.append((key, None, float(processed[key]), f"{key}:block"))
            self.kernel_round, self.kernel_tasks = self._kernel_round(items)
            return

        inner_boxes: Dict[object, tuple] = {}
        frontier_boxes: Dict[object, list] = {}
        for key in dense:
            inner, frontier = interior_partition(runtimes[key].cells)
            if inner is not None:
                inner_boxes[key] = inner
            frontier_boxes[key] = frontier
        # Inner boxes are the bulk of the work and must fill the pool
        # while the exchange is in flight, so they are slab-split.
        inner_slabs = 1
        if threaded and inner_boxes:
            inner_slabs = slabs_per_block(
                len(inner_boxes), len(inner_boxes), engine.workers
            )
        self.inner_round, self.inner_tasks = self._kernel_round([
            (key, [sb], box_cells(sb), f"{key}:inner{i}")
            for key, box in inner_boxes.items()
            for i, sb in enumerate(slab_boxes(box, inner_slabs))
        ])
        items = []
        for key in kernels:
            inner = inner_boxes.get(key)
            cost = total[key] - (box_cells(inner) if inner else 0)
            # A sparse kernel sweeps its whole block here.
            items.append((key, frontier_boxes.get(key), max(float(cost), 1.0), f"{key}:frontier"))
        self.frontier_round, self.frontier_tasks = self._kernel_round(items)
        remote = set(remote_dst)
        self.reapply = [
            key for key, rt in runtimes.items()
            if key in remote and rt.handler.writes_ghost_cells()
        ]
        # Only the ghost-shell links, in one C call (see _finish_comm).
        self._reapply_round, _ = self._boundary_round(
            [(key, True, 1.0, f"{key}:reapply") for key in self.reapply]
        )
        # Overlap-efficiency accounting (see :meth:`_finish_comm`).
        self._inner_handle: Optional[RoundHandle] = None
        self._inner_seconds = 0.0
        self._exposed_seconds = 0.0

    # -- rounds -----------------------------------------------------------------
    def _kernel_round(self, items) -> Tuple[SweepRound, List[WorkItem]]:
        """The round of ``items`` — ``(key, boxes, cost, name)`` per
        block, slab or frontier — and one :class:`WorkItem` per item.
        A kernel that gives table entries (the compiled tier) joins the
        entry table; any other runs as a NumPy-path task."""
        table_items, tasks = [], []
        for key, boxes, cost, name in items:
            kern, field = self._kernels[key], self.runtimes[key].field
            if hasattr(kern.kernel, "table_entry"):
                table_items.append((field, kern.kernel, boxes, cost, kern.scope_name))
            else:
                tasks.append(_sweep_task(kern, field, boxes, cost, name))
        table = None
        if table_items:
            table = compiled.kernel_table(self._grids, table_items, self.tree)
        listed = [WorkItem(name, cost) for _, _, cost, name in items]
        return SweepRound(table, tasks), listed

    def _boundary_round(self, items) -> Tuple[SweepRound, List[WorkItem]]:
        """The boundary round of ``items`` — ``(key, ghost_only, cost,
        name)`` per block — and one :class:`WorkItem` per block: blocks
        whose handler has a compiled loop join the boundary table, the
        others apply in NumPy."""
        table_items, tasks = [], []
        for key, ghost_only, cost, name in items:
            rt = self.runtimes[key]
            if rt.handler.compiled:
                links = partial(rt.handler.table_links, ghost_only)
                table_items.append((rt.field, rt.handler.check_grid, links, cost))
            else:
                tasks.append(SweepTask(
                    (lambda h=rt.handler, field=rt.field: h.apply(field.src)),
                    cost=cost, name=name,
                ))
        table = None
        if table_items:
            table = compiled.boundary_table(self._grids, table_items)
        listed = [WorkItem(name, cost) for _, _, cost, name in items]
        return SweepRound(table, tasks), listed

    def register(self, loop: TimeLoop) -> TimeLoop:
        """Append this schedule's sweeps to ``loop``; returns ``loop``."""
        if not self.overlap:
            return (
                loop.add("communication", self.exchange.exchange)
                .add("boundary", self._apply_boundaries)
                .add("kernel", self._run_kernels)
                .add("swap", self._swap_all)
            )
        return (
            loop.add("communication", self.exchange.start)
            .add("boundary", self._apply_boundaries)
            .add("inner kernel", self._run_inner_kernels)
            .add("communication finish", self._finish_comm)
            .add("frontier kernel", self._run_frontier_kernels)
            .add("swap", self._swap_all)
        )

    # -- sweeps ---------------------------------------------------------------
    def _count_updates(self) -> None:
        self.tree.add_counter("cells_updated", self.cells_per_step)
        self.tree.add_counter("fluid_cell_updates", self.fluid_per_step)

    def _apply_boundaries(self) -> None:
        self.engine.run(self.boundary_round)

    def _run_kernels(self) -> None:
        self.engine.run(self.kernel_round)
        self._count_updates()

    def _run_inner_kernels(self) -> None:
        """Dispatch the inner-slab round.

        A threaded engine returns as soon as its C threads have the
        table, so the next sweep (``communication finish``) drains the
        exchange concurrently with the inner compute, and then joins
        it: the unpack writes ghost layers of ``src`` while the inner
        slabs write interior regions of ``dst``, which are disjoint.
        The serial engine runs the round inline, which is the
        synchronous schedule.
        """
        t0 = time.perf_counter()
        self._inner_handle = self.engine.run_async(self.inner_round)
        if self._inner_handle.done:  # serial engine ran inline
            self._inner_seconds += time.perf_counter() - t0

    def _finish_comm(self) -> None:
        """Complete the exchange, restore boundary ghost writes, join the
        in-flight inner round, and update the ``comm.overlap_efficiency``
        gauge: compute hidden behind the exchange as a fraction of that
        compute plus the exposed communication time.

        The ghost-shell links re-apply in one C call on this thread,
        through the grid pointers the boundary round refreshed this
        step; blocks without a compiled loop apply in NumPy."""
        t0 = time.perf_counter()
        self.exchange.finish()
        reapply = self._reapply_round
        if reapply.table is not None:
            reapply.table.run()
        for task in reapply.tasks:
            task.fn()
        comm_wall = time.perf_counter() - t0
        handle, self._inner_handle = self._inner_handle, None
        if handle is not None and not handle.done:
            cp0 = self.engine.critical_path_seconds
            handle.wait()
            # The inner round's critical-path CPU time is the compute
            # available to hide communication behind; comm beyond it is
            # exposed.
            inner_cp = self.engine.critical_path_seconds - cp0
            self._inner_seconds += inner_cp
            self._exposed_seconds += max(0.0, comm_wall - inner_cp)
        else:
            self._exposed_seconds += comm_wall
        denom = self._inner_seconds + self._exposed_seconds
        if denom > 0.0:
            self.tree.set_counter(
                "comm.overlap_efficiency", self._inner_seconds / denom
            )

    def _run_frontier_kernels(self) -> None:
        self.engine.run(self.frontier_round)
        self._count_updates()

    def _swap_all(self) -> None:
        for rt in self.runtimes.values():
            rt.field.swap()
