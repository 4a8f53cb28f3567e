"""Distributed multi-block LBM simulation.

Ties together the balanced block forest (per-process views), per-block
fields and kernels, boundary handling, and the ghost-layer exchange into
one time loop:

    communication -> boundary handling -> LBM kernel -> grid swap

All virtual processes execute within one address space, driven from one
thread (deterministic, bit-reproducible).  Each virtual rank's ghost
exchange is the same plan and executor the SPMD rank program uses
(:mod:`repro.comm.ghostlayer`, :mod:`repro.comm.buffersystem`), talking
over in-process :mod:`~repro.comm.vmpi` endpoints; the executors' ledgers
distinguish local from remote copies so the performance models can
attribute MPI cost.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import flagdefs as fl
from ..blocks.forest import LocalBlock, ProcessView, distribute
from ..blocks.setup import SetupBlockForest
from ..core.field import PdfField
from ..core.flags import FlagField
from ..core.timeloop import TimeLoop
from ..errors import ConfigurationError, NumericalError
from ..exec import EXEC_MODES, make_engine
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import ColorMap, voxelize_block
from ..lbm.boundary import BoundaryHandling, Condition, NoSlip
from ..lbm.collision import SRT, TRT
from ..lbm.kernels.registry import default_dense_kernel, make_kernel
from ..lbm.kernels.sparse import SPARSE_KERNELS
from ..lbm.lattice import D3Q19, LatticeModel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from .buffersystem import COMM_MODES, make_exchange
from .ghostlayer import CommStats, build_rank_plan
from .schedule import BlockSweepSchedule
from .vmpi import Comm, VirtualMPI

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


class BlockRuntime:
    """Everything one block needs to take time steps: flag field, PDF
    field, kernel, and boundary handler."""

    __slots__ = ("flags", "field", "kernel", "handler", "kernel_name")

    def __init__(self, flags, field, kernel, handler, kernel_name):
        self.flags = flags
        self.field = field
        self.kernel = kernel
        self.handler = handler
        self.kernel_name = kernel_name

    def step_local(self) -> None:
        """Boundary + kernel + swap (ghost exchange is the caller's job)."""
        self.handler.apply(self.field.src)
        self.kernel(self.field.src, self.field.dst)
        self.field.swap()


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
    fluid blocks the ``dense_kernel`` tier — by default
    :func:`~repro.lbm.kernels.registry.default_dense_kernel`
    (``compiled`` when a C compiler built it, else ``vectorized``).
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
    mask = ff.fluid_mask()
    if bool((ff.interior == fl.OUTSIDE).any()):
        if model.name != "D3Q19":
            raise ConfigurationError("sparse kernels require D3Q19")
        kernel = SPARSE_KERNELS[sparse_kernel](mask, collision)
        kernel_name = sparse_kernel
    else:
        kernel_name = dense_kernel or default_dense_kernel()
        kernel = make_kernel(kernel_name, model, collision, blk.cells)
    handler = BoundaryHandling(model, ff, conditions)
    return BlockRuntime(ff, field, kernel, handler, kernel_name)


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

    @property
    def stats(self) -> CommStats:
        """The ranks' ledgers, summed."""
        total = CommStats()
        for ex in self.executors:
            s = ex.stats
            total.add(s.local_messages, s.local_bytes, s.remote_messages, s.remote_bytes)
        return total


class DistributedSimulation:
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
        Exchange only the PDF directions neighbors can pull (ablation;
        the paper's scheme sends full ghost layers).  Only available
        with ``comm_mode="per-face"``.
    comm_mode:
        Ghost-exchange executor, run on every virtual rank exactly as
        in :func:`~repro.comm.spmd.spmd_rank_program`:

        ``"per-face"``
            :class:`~repro.comm.ghostlayer.SpmdGhostExchange`: one
            message per (block, side) — the baseline.
        ``"coalesced"``
            :class:`~repro.comm.buffersystem.BufferSystem`: all traffic
            between a pair of virtual ranks is packed into one
            persistent buffer — exactly one message per rank pair per
            step, zero full-field allocations in steady state (§2.3 of
            the paper).
        ``"overlap"``
            Coalesced, plus communication/computation overlap: each
            dense block's sweep is split into an inner region
            (independent of ghost layers, runs between pack and
            unpack) and a one-cell frontier shell (runs after).
            Bit-identical to the other modes.
    exec_mode:
        Intra-rank sweep execution strategy (see :mod:`repro.exec`):
        ``"serial"`` runs every sweep inline; ``"threads"`` gives the
        kernel and boundary sweeps a persistent work-stealing pool of
        ``workers`` threads — the OpenMP axis of the paper's hybrid
        aPbT configurations.  Work items are whole blocks when there
        are at least as many blocks as workers, and interior *slabs* of
        dense blocks otherwise (the single-large-block regime).  NumPy
        and the ``compiled`` tier's ``ctypes`` call release the GIL
        inside the kernels, so work items genuinely
        execute concurrently, and results are bit-identical to serial
        runs for every worker count.  ``None`` (default) selects
        ``"threads"`` when ``workers > 1``.
    workers:
        Worker threads for ``exec_mode="threads"``.

    The per-step sweeps come from
    :class:`~repro.comm.schedule.BlockSweepSchedule`, shared with the
    SPMD rank program.
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
        filtered_communication: bool = False,
        comm_mode: str = "per-face",
        exec_mode: Optional[str] = None,
        workers: int = 1,
    ):
        if forest.n_processes == 0:
            raise ConfigurationError("forest must be balanced first")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if exec_mode is None:
            exec_mode = "threads" if workers > 1 else "serial"
        if exec_mode not in EXEC_MODES:
            raise ConfigurationError(
                f"exec_mode must be one of {EXEC_MODES}, got {exec_mode!r}"
            )
        if comm_mode not in COMM_MODES:
            raise ConfigurationError(
                f"comm_mode must be one of {COMM_MODES}, got {comm_mode!r}"
            )
        if filtered_communication and comm_mode != "per-face":
            raise ConfigurationError(
                "filtered_communication requires comm_mode='per-face'"
            )
        self.comm_mode = comm_mode
        self.exec_mode = exec_mode
        self.workers = int(workers)
        self.forest = forest
        self.model = model
        self.collision = collision
        self.periodic = tuple(bool(p) for p in periodic)
        self.views: List[ProcessView] = distribute(forest, periodic=self.periodic)
        conditions = list(boundaries) if boundaries is not None else [NoSlip()]
        if colors is None:
            colors = default_vascular_colors() if geometry is not None else ColorMap()

        self.blocks: Dict[object, LocalBlock] = {}
        self.block_rank: Dict[object, int] = {}
        self.fields: Dict[object, PdfField] = {}
        self.flags: Dict[object, FlagField] = {}
        self._handlers: Dict[object, BoundaryHandling] = {}
        self.kernel_names: Dict[object, str] = {}

        runtimes: Dict[object, BlockRuntime] = {}
        for view in self.views:
            for blk in view.blocks:
                key = blk.id
                self.blocks[key] = blk
                self.block_rank[key] = view.rank
                rt = runtimes[key] = build_block_runtime(
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
                self.flags[key] = rt.flags
                self.fields[key] = rt.field
                self.kernel_names[key] = rt.kernel_name
                self._handlers[key] = rt.handler

        self.timeloop = TimeLoop()
        self.engine = make_engine(self.exec_mode, self.workers, self.timeloop.tree)
        self.timeloop.engine = self.engine
        # One rank plan and executor per virtual rank, as in the SPMD
        # rank program, on in-process vMPI endpoints.
        world = VirtualMPI(len(self.views))
        pdf_filter = model if filtered_communication else None
        executors = []
        remote_dst = set()
        for view in self.views:
            plan = build_rank_plan(view, view.rank, pdf_filter=pdf_filter)
            fields = {blk.id: self.fields[blk.id] for blk in view.blocks}
            comm = Comm(view.rank, world)
            executors.append(
                make_exchange(comm_mode, plan, fields, comm, self.timeloop.tree)
            )
            remote_dst.update(entry[2] for entry in plan.recvs)
        self.exchange = _InProcessRanks(executors)
        self._schedule = BlockSweepSchedule(
            runtimes,
            self.blocks,
            self.exchange,
            self.engine,
            self.timeloop.tree,
            overlap=comm_mode == "overlap",
            remote_dst=remote_dst,
        )
        self._schedule.register(self.timeloop)

    def close(self) -> None:
        """Shut down the sweep engine's worker pool (idempotent)."""
        self.timeloop.close()

    def update_boundary(self, old: Condition, new: Condition) -> "DistributedSimulation":
        """Replace a boundary condition on every block (e.g. a pulsatile
        inflow changing its velocity between runs).  The new condition
        must keep the old flag bit so precomputed links stay valid."""
        if new.flag != old.flag:
            raise ConfigurationError(
                "replacement boundary must keep the same flag bit"
            )
        replaced = 0
        for handler in self._handlers.values():
            for i, cond in enumerate(handler.conditions):
                if cond == old:
                    handler.conditions[i] = new
                    replaced += 1
        if replaced == 0:
            raise ConfigurationError("condition is not active on any block")
        return self

    # -- checkpoint / restart ----------------------------------------------
    def enable_checkpointing(
        self, path: str, every: int, rng=None
    ) -> "DistributedSimulation":
        """Write an atomic checkpoint to ``path`` every ``every`` steps.

        The checkpoint (format v2, see :mod:`repro.io.checkpoint`)
        carries every block's PDF grid, the flag fields, the step
        counter, and optionally the state of ``rng`` (a
        ``numpy.random.Generator``).  Writes go through a temp file +
        rename, so an interrupted write never destroys the previous
        checkpoint; the write cost is timed under the loop's
        ``checkpoint`` scope.
        """
        from ..io.checkpoint import save_checkpoint

        self.timeloop.configure_checkpoint(
            lambda _step: save_checkpoint(self, path, rng=rng), every
        )
        return self

    def restart(self, path: str, rng=None) -> int:
        """Restore state from a checkpoint written by
        :meth:`enable_checkpointing` (or
        :func:`repro.io.checkpoint.save_checkpoint`); returns the step
        count at which the checkpoint was taken.

        Continuing with ``run(remaining)`` reproduces an uninterrupted
        run bit-exactly — the recovery path validated by
        ``tests/chaos/``.
        """
        from ..io.checkpoint import load_checkpoint

        return load_checkpoint(self, path, rng=rng)

    # -- execution ----------------------------------------------------------
    def run(self, steps: int, check_every: int = 0) -> "DistributedSimulation":
        """Advance by ``steps``; ``check_every > 0`` aborts with
        :class:`NumericalError` on divergence at that interval."""
        if check_every <= 0:
            self.timeloop.run(steps)
            return self
        remaining = int(steps)
        while remaining > 0:
            chunk = min(check_every, remaining)
            self.timeloop.run(chunk)
            remaining -= chunk
            self.assert_stable()
        return self

    def assert_stable(self, u_max: float = 0.57) -> None:
        """Raise :class:`NumericalError` if any block diverged."""
        for key, field in self.fields.items():
            fm = self.flags[key].fluid_mask()
            vals = field.interior_view[:, fm]
            if not np.isfinite(vals).all():
                raise NumericalError(
                    f"block {key}: non-finite PDFs after "
                    f"{self.timeloop.steps_run} steps"
                )
            u = _velocity(self.model, field.interior_view)
            if fm.any() and float(np.abs(u[fm]).max()) > u_max:
                raise NumericalError(
                    f"block {key}: lattice velocity exceeds {u_max} after "
                    f"{self.timeloop.steps_run} steps (unstable)"
                )

    @property
    def comm_stats(self) -> CommStats:
        """Bytes and messages every rank's exchange has moved so far
        (a fresh sum on each read)."""
        return self.exchange.stats

    # -- observables ----------------------------------------------------------
    def total_fluid_cells(self) -> int:
        return sum(blk.fluid_cells for blk in self.blocks.values())

    def total_mass(self) -> float:
        total = 0.0
        for key, field in self.fields.items():
            rho = _density(self.model, field.interior_view)
            total += float(rho[self.flags[key].fluid_mask()].sum())
        return total

    def max_velocity(self) -> float:
        vmax = 0.0
        for key, field in self.fields.items():
            u = _velocity(self.model, field.interior_view)
            mask = self.flags[key].fluid_mask()
            if mask.any():
                vmax = max(vmax, float(np.abs(u[mask]).max()))
        return vmax

    def block_density(self, key) -> np.ndarray:
        """Interior density of one block (NaN on non-fluid cells)."""
        rho = _density(self.model, self.fields[key].interior_view)
        return np.where(self.flags[key].fluid_mask(), rho, np.nan)

    def block_velocity(self, key) -> np.ndarray:
        u = _velocity(self.model, self.fields[key].interior_view)
        mask = self.flags[key].fluid_mask()
        return np.where(mask[..., None], u, np.nan)

    def gather_density(self) -> np.ndarray:
        """Assemble the global density field (NaN where no block/fluid)."""
        cells = np.asarray(self.forest.cells_per_block)
        grid = np.asarray(self.forest.root_grid)
        out = np.full(tuple(grid * cells), np.nan)
        for key, blk in self.blocks.items():
            gi = np.asarray(blk.grid_index)
            lo = gi * cells
            sl = tuple(slice(int(l), int(l + c)) for l, c in zip(lo, cells))
            out[sl] = self.block_density(key)
        return out

    def gather_velocity(self) -> np.ndarray:
        cells = np.asarray(self.forest.cells_per_block)
        grid = np.asarray(self.forest.root_grid)
        out = np.full(tuple(grid * cells) + (self.model.dim,), np.nan)
        for key, blk in self.blocks.items():
            gi = np.asarray(blk.grid_index)
            lo = gi * cells
            sl = tuple(slice(int(l), int(l + c)) for l, c in zip(lo, cells))
            out[sl] = self.block_velocity(key)
        return out

    # -- performance ------------------------------------------------------------
    def _kernel_seconds(self) -> float:
        """Total kernel sweep time — ``kernel`` in the fused modes, the
        sum of ``inner kernel`` + ``frontier kernel`` under overlap."""
        return sum(
            v for k, v in self.timeloop.timings().items() if "kernel" in k
        )

    def mflups(self) -> float:
        t = self._kernel_seconds()
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return self.total_fluid_cells() * self.timeloop.steps_run / t / 1e6

    def mlups(self) -> float:
        t = self._kernel_seconds()
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return self._schedule.cells_per_step * self.timeloop.steps_run / t / 1e6

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

    def timing_report(self) -> str:
        """Hierarchical timing tree: sweeps with comm pack/send/unpack
        sub-scopes and per-tier kernel timers (waLBerla's timing pool)."""
        return self.timeloop.timing_report()
