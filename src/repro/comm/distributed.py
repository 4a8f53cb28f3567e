"""The multi-block simulation driver, for every rank layout.

Ties together the balanced block forest (per-process views), per-block
fields and kernels, boundary handling, and the ghost-layer exchange into
one time loop:

    communication -> boundary handling -> LBM kernel -> grid swap

:class:`DistributedSimulation` is the only multi-block driver.  Without
a ``comm`` it builds every virtual rank in one address space and drives
them from one thread (deterministic, bit-reproducible), each rank's
exchange over its own in-process :mod:`~repro.comm.vmpi` endpoint.  With
a ``comm`` it builds only that rank's view and exchange — the SPMD
program of :mod:`repro.comm.spmd` is this driver stepped on every rank.
Either way each rank runs the same plan and executor
(:mod:`repro.comm.ghostlayer`, :mod:`repro.comm.buffersystem`), whose
ledger distinguishes local from remote copies so the performance models
can attribute MPI cost.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import flagdefs as fl
from ..blocks.forest import LocalBlock, ProcessView, distribute, view_for_rank
from ..blocks.setup import SetupBlockForest
from ..core.driver import BlockDriver
from ..core.field import PdfField
from ..core.flags import FlagField
from ..core.schedule import BlockRuntime, BlockSweepSchedule, make_block_kernel
from ..core.timeloop import TimeLoop
from ..errors import ConfigurationError
from ..exec import make_engine
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import ColorMap, voxelize_block
from ..lbm.boundary import BoundaryHandling, Condition, NoSlip
from ..lbm.collision import SRT, TRT
from ..lbm.lattice import D3Q19, LatticeModel
from ..perf.timing import TimingTree
from .buffersystem import check_comm_mode, make_exchange
from .ghostlayer import CommStats
from .vmpi import Comm, ReliableComm, VirtualMPI

__all__ = [
    "DistributedSimulation",
    "default_vascular_colors",
    "BlockRuntime",
    "build_block_runtime",
]

Collision = Union[SRT, TRT]


def default_vascular_colors() -> ColorMap:
    """Standard coloring for vascular geometries: inflow (color 1) gets a
    velocity boundary, outflow (color 2) a pressure boundary."""
    return ColorMap(
        by_color=((1, int(fl.VELOCITY_BC)), (2, int(fl.PRESSURE_BC)))
    )


def build_block_runtime(
    blk: LocalBlock,
    collision: Collision,
    conditions: Sequence[Condition],
    geometry: Optional[ImplicitGeometry] = None,
    flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
    colors: Optional[ColorMap] = None,
    model: LatticeModel = D3Q19,
    dense_kernel: Optional[str] = None,
    sparse_kernel: str = "interval",
) -> BlockRuntime:
    """Construct one block's runtime state (flags, fields, kernel, BCs).

    This is the per-block work every process performs independently
    during initialization — "every process voxelizes its blocks
    independently" (§2.3).

    Blocks with OUTSIDE cells get the ``sparse_kernel`` strategy, fully
    fluid blocks the ``dense_kernel`` tier, both built by
    :func:`~repro.core.schedule.make_block_kernel` (``None`` picks
    :func:`~repro.lbm.kernels.registry.default_dense_kernel`:
    ``compiled`` when a C compiler built it, else ``vectorized``).
    """
    if colors is None:
        colors = default_vascular_colors() if geometry is not None else ColorMap()
    ff = FlagField(blk.cells)
    if geometry is not None:
        ff.data[...] = voxelize_block(
            geometry, blk.box, blk.cells, model=model, colors=colors
        )
    else:
        ff.fill(fl.FLUID)
    if flag_setter is not None:
        flag_setter(blk, ff)
    ff.validate_exclusive()
    field = PdfField(model, blk.cells)
    field.set_equilibrium()
    fluid = ff.fluid_mask()
    has_outside = bool((ff.interior == fl.OUTSIDE).any())
    kernel_name, kernel = make_block_kernel(
        ff, fluid, model, collision, sparse_kernel if has_outside else dense_kernel
    )
    handler = BoundaryHandling(model, ff, conditions)
    return BlockRuntime(
        ff, field, kernel, handler, kernel_name, blk.cells, blk.fluid_cells
    )


class _InProcessRanks:
    """Every virtual rank's ghost-exchange executor, run from one thread.

    Each executor talks to its peers over its own
    :class:`~repro.comm.vmpi.Comm` endpoint (``ex.comm``) of one
    :class:`~repro.comm.vmpi.VirtualMPI` world.  vMPI delivers an
    ``isend`` at the sender's next progress point, so :meth:`start`
    starts every rank and then progresses every endpoint — after it,
    all messages wait in their destination mailboxes and no rank's
    :meth:`finish` can block on a peer.
    """

    def __init__(self, executors: Sequence):
        self.executors = executors

    def start(self) -> None:
        """Every rank's ``start()``, then deliver all posted messages."""
        for ex in self.executors:
            ex.start()
        for ex in self.executors:
            ex.comm.progress()

    def finish(self) -> None:
        """Every rank's ``finish()``."""
        for ex in self.executors:
            ex.finish()

    def exchange(self) -> None:
        """One full ghost exchange on every rank."""
        self.start()
        self.finish()

    def resync(self) -> None:
        """Every rank's ``resync()``: the next exchanges copy every cell."""
        for ex in self.executors:
            ex.resync()

    @property
    def stats(self) -> CommStats:
        """The ranks' ledgers, summed."""
        total = CommStats()
        for ex in self.executors:
            s = ex.stats
            total.add(s.local_messages, s.local_bytes, s.remote_messages, s.remote_bytes)
        return total


class DistributedSimulation(BlockDriver):
    """A multi-block simulation over a balanced block forest.

    Parameters
    ----------
    forest:
        A balanced :class:`~repro.blocks.setup.SetupBlockForest`.
    collision:
        SRT or TRT parameters (the paper runs TRT in production).
    geometry:
        Flow-domain geometry; blocks are voxelized against it.  ``None``
        means dense fluid blocks (use ``flag_setter`` for walls).
    boundaries:
        Boundary condition instances (defaults to ``[NoSlip()]``).
    flag_setter:
        Optional callback ``(local_block, flag_field) -> None`` invoked
        after default flag initialization — dense scenarios use it to
        place lids/obstacles.
    periodic:
        Per-axis periodicity of the (root-grid) domain.
    colors:
        Surface-color -> boundary-flag mapping for voxelization.
    dense_kernel, sparse_kernel:
        Kernel of fully fluid blocks and of blocks with OUTSIDE cells
        (see :func:`build_block_runtime`); ``dense_kernel=None`` picks
        :func:`~repro.lbm.kernels.registry.default_dense_kernel`.
    filtered_communication:
        Exchange only the PDF directions each neighbor's stream step
        pulls (the default; 5 of 19 per face, 1 per edge and no corner
        for D3Q19), under any ``comm_mode``.  ``False`` sends full ghost
        layers, the paper's scheme: the baseline of the ablation
        benchmarks.  Both give bit-identical interiors.
    comm_mode:
        How the ghost exchange groups its messages.  Every mode runs a
        :class:`~repro.comm.buffersystem.BufferSystem` on every rank,
        over persistent buffers with zero full-field allocations in
        steady state:

        ``"per-face"``
            One message per (block, side) — the baseline.
        ``"coalesced"``
            All traffic between a pair of virtual ranks is packed into
            one buffer — exactly one message per rank pair per step
            (§2.3 of the paper).
        ``"overlap"``
            Coalesced, plus communication/computation overlap: each
            dense block's sweep is split into an inner region
            (independent of ghost layers, runs between pack and
            unpack) and a one-cell frontier shell (runs after).
            Bit-identical to the other modes.
    workers:
        Intra-rank sweep workers (see :mod:`repro.exec`).  One worker
        runs every sweep inline; more give the kernel and boundary
        sweeps a persistent work-stealing pool of ``workers`` threads —
        the OpenMP axis of the paper's hybrid aPbT configurations.  Work
        items are whole blocks when there are at least as many blocks as
        workers, and interior *slabs* of dense blocks otherwise (the
        single-large-block regime).  NumPy and the ``compiled`` tier's
        ``ctypes`` call release the GIL inside the kernels, so work
        items genuinely execute concurrently, and results are
        bit-identical to serial runs for every worker count.
    comm:
        This process's endpoint (a :class:`~repro.comm.vmpi.Comm` or
        :class:`~repro.comm.vmpi.ReliableComm`) when the driver steps one
        rank of an SPMD program.  ``None`` (default) builds every rank
        in this process.  With a ``comm`` the driver builds only
        ``view_for_rank(forest, comm.rank, periodic)`` and that rank's
        exchange: ``runtimes``, ``fields``, the observables and
        ``gather_*`` cover only this rank's blocks (``gather_*`` leaves
        the other ranks' cells NaN), the caller steps every rank in
        lockstep (see :func:`~repro.comm.spmd.spmd_rank_program`), and
        checkpoints are collective: every rank calls ``save_checkpoint``
        / ``load_checkpoint`` (see :mod:`repro.io.checkpoint`).
    tree:
        The :class:`~repro.perf.timing.TimingTree` the time loop, the
        exchange and the sweep engine record into; ``None`` (default)
        creates a fresh one.  An SPMD rank passes the tree it also hands
        its ``ReliableComm``, so the recovery counters land next to the
        sweep timings.

    The per-step sweeps come from
    :class:`~repro.core.schedule.BlockSweepSchedule` and the run,
    checkpoint and rate methods from
    :class:`~repro.core.driver.BlockDriver`, shared with the
    single-block :class:`~repro.core.simulation.Simulation`.
    """

    def __init__(
        self,
        forest: SetupBlockForest,
        collision: Collision,
        geometry: Optional[ImplicitGeometry] = None,
        boundaries: Optional[Sequence[Condition]] = None,
        flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
        periodic: Tuple[bool, bool, bool] = (False, False, False),
        colors: Optional[ColorMap] = None,
        model: LatticeModel = D3Q19,
        dense_kernel: Optional[str] = None,
        sparse_kernel: str = "interval",
        filtered_communication: bool = True,
        comm_mode: str = "per-face",
        workers: int = 1,
        *,
        comm: Optional[Union[Comm, ReliableComm]] = None,
        tree: Optional[TimingTree] = None,
    ):
        if forest.n_processes == 0:
            raise ConfigurationError("forest must be balanced first")
        check_comm_mode(comm_mode)
        self.timeloop = TimeLoop(tree=tree if tree is not None else TimingTree())
        # Built before any block, so bad ``workers`` fail fast; a pool
        # starts its threads on the first round, so a later failure
        # leaves no threads behind.
        self.engine = make_engine(workers, self.timeloop.tree)
        self.timeloop.engine = self.engine
        self.comm = comm
        self.comm_mode = comm_mode
        self.forest = forest
        self.model = model
        self.collision = collision
        self.periodic = tuple(bool(p) for p in periodic)
        if comm is None:
            self.views: List[ProcessView] = distribute(forest, periodic=self.periodic)
            world = VirtualMPI(len(self.views))
            endpoints = [Comm(view.rank, world) for view in self.views]
        else:
            self.views = [view_for_rank(forest, comm.rank, self.periodic)]
            endpoints = [comm]
        conditions = list(boundaries) if boundaries is not None else [NoSlip()]
        if colors is None:
            colors = default_vascular_colors() if geometry is not None else ColorMap()

        self.blocks: Dict[object, LocalBlock] = {}
        self.block_rank: Dict[object, int] = {}
        self.runtimes: Dict[object, BlockRuntime] = {}
        for view in self.views:
            for blk in view.blocks:
                self.blocks[blk.id] = blk
                self.block_rank[blk.id] = view.rank
                self.runtimes[blk.id] = build_block_runtime(
                    blk,
                    collision,
                    conditions,
                    geometry=geometry,
                    flag_setter=flag_setter,
                    colors=colors,
                    model=model,
                    dense_kernel=dense_kernel,
                    sparse_kernel=sparse_kernel,
                )
        rts = self.runtimes.items()
        self.fields: Dict[object, PdfField] = {key: rt.field for key, rt in rts}
        self.flags: Dict[object, FlagField] = {key: rt.flags for key, rt in rts}
        self.kernel_names: Dict[object, str] = {key: rt.kernel_name for key, rt in rts}
        self._handlers: Dict[object, BoundaryHandling] = {key: rt.handler for key, rt in rts}

        # One rank plan and executor per rank this process drives.
        executors = []
        remote_dst = set()
        for view, endpoint in zip(self.views, endpoints):
            executor, dst = make_exchange(
                comm_mode, view, self.runtimes, endpoint,
                self.timeloop.tree, filtered=filtered_communication,
            )
            executors.append(executor)
            remote_dst |= dst
        self.exchange = _InProcessRanks(executors) if comm is None else executors[0]
        self.schedule = BlockSweepSchedule(
            self.runtimes,
            self.exchange,
            self.engine,
            self.timeloop.tree,
            overlap=comm_mode == "overlap",
            remote_dst=remote_dst,
        )
        self.schedule.register(self.timeloop)

    @property
    def comm_stats(self) -> CommStats:
        """Bytes and messages every rank's exchange has moved so far
        (a fresh sum on each read)."""
        return self.exchange.stats

    # -- observables ----------------------------------------------------------
    def total_fluid_cells(self) -> int:
        return self.schedule.fluid_per_step

    def _gather(self, block_values, trailing: Tuple[int, ...] = ()) -> np.ndarray:
        """Place each block's ``block_values(key)`` into a global array
        (NaN where no block covers a cell)."""
        cells = np.asarray(self.forest.cells_per_block)
        grid = np.asarray(self.forest.root_grid)
        out = np.full(tuple(grid * cells) + trailing, np.nan)
        for key, blk in self.blocks.items():
            lo = np.asarray(blk.grid_index) * cells
            sl = tuple(slice(int(l), int(l + c)) for l, c in zip(lo, cells))
            out[sl] = block_values(key)
        return out

    def gather_density(self) -> np.ndarray:
        """Assemble the global density field (NaN where no block/fluid)."""
        return self._gather(self.block_density)

    def gather_velocity(self) -> np.ndarray:
        """Assemble the global velocity field (NaN where no block/fluid)."""
        return self._gather(self.block_velocity, (self.model.dim,))

    # -- performance ------------------------------------------------------------
    def comm_fraction(self) -> float:
        """Fraction of wall time spent in communication sweeps — the
        quantity plotted as dotted lines in Figure 6.  Under overlap
        both halves (``communication`` and ``communication finish``)
        count; the hidden portion shows up as the gap between this and
        ``comm.overlap_efficiency``."""
        t = self.timeloop.timings()
        total = sum(t.values())
        if total == 0.0:
            return 0.0
        return (
            sum(v for k, v in t.items() if k.startswith("communication")) / total
        )
