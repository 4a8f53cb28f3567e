"""High-level single-block simulation driver.

Wires together the flag field, the PDF field, boundary handling, a
compute kernel and the time loop for one block of any lattice model.
The block goes through the same runtime, sweep schedule and driver
surface as every block of a distributed run (:mod:`repro.core.schedule`,
:mod:`repro.core.driver`); multi-block domains use
:class:`~repro.comm.distributed.DistributedSimulation`.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..exec import make_engine
from ..lbm.boundary import BoundaryHandling, Condition
from ..lbm.forcing import ConstantBodyForce
from ..lbm.collision import SRT, TRT
from ..lbm.lattice import D3Q19, LatticeModel
from ..lbm.macroscopic import density as _density
from .driver import BlockDriver
from .field import PdfField
from .flags import FlagField
from .schedule import BlockRuntime, BlockSweepSchedule, make_block_kernel
from .timeloop import TimeLoop

__all__ = ["Simulation"]

Collision = Union[SRT, TRT]

class Simulation(BlockDriver):
    """A single-block LBM simulation.

    Typical use::

        sim = Simulation(cells=(64, 64, 64), collision=TRT.from_tau(0.6))
        sim.flags.fill(fl.FLUID)
        ... mark boundary cells in sim.flags ...
        sim.add_boundary(NoSlip())
        sim.finalize()
        sim.run(100)

    The block is stepped like any block of a distributed run:
    :meth:`finalize` wraps ``flags``/``pdfs`` in a
    :class:`~repro.core.schedule.BlockRuntime` (block id ``0``) and
    registers a :class:`~repro.core.schedule.BlockSweepSchedule`
    (``communication -> boundary -> kernel -> swap``), whose
    ``communication`` sweep is the periodic ghost wrap.  Running,
    checkpointing and rate accounting come from
    :class:`~repro.core.driver.BlockDriver`.

    Parameters
    ----------
    cells:
        Interior cell counts.
    collision:
        SRT or TRT parameters.
    model:
        Lattice model (default D3Q19, like every run in the paper).
    kernel:
        Kernel tier name (``generic`` / ``d3q19`` / ``vectorized`` /
        ``compiled``) or a sparse strategy name (``conditional`` /
        ``indexlist`` / ``interval``); ``None`` picks as
        :func:`~repro.core.schedule.make_block_kernel` does
        (``interval`` when OUTSIDE cells are present, else
        :func:`~repro.lbm.kernels.registry.default_dense_kernel`).
    body_force:
        Optional constant body force (lattice units per cell per step),
        applied to fluid cells as an extra sweep after the swap.
    periodic:
        Per-axis periodicity: ghost layers on periodic axes are wrapped
        from the opposite interior face before each step.
    workers:
        Intra-rank sweep workers (see :mod:`repro.exec` and
        :func:`~repro.exec.make_engine`): more than one gives the
        sweeps a persistent pool of ``workers`` threads, the kernel
        sweep cut into interior slabs (slowest-varying axis) —
        bit-identical to serial for every worker count.
    """

    def __init__(
        self,
        cells: Tuple[int, ...],
        collision: Collision,
        model: LatticeModel = D3Q19,
        kernel: Optional[str] = None,
        body_force=None,
        periodic: Optional[Tuple[bool, ...]] = None,
        workers: int = 1,
    ):
        self.model = model
        self.collision = collision
        self.cells = tuple(int(c) for c in cells)
        self.kernel_name = kernel
        self.flags = FlagField(self.cells)
        self.pdfs = PdfField(model, self.cells)
        self.boundaries: list[Condition] = []
        self.runtimes: dict = {}
        self.engine = None
        self.body_force = (
            ConstantBodyForce(model, body_force) if body_force is not None else None
        )
        if periodic is None:
            periodic = (False,) * model.dim
        if len(periodic) != model.dim:
            raise ConfigurationError(
                f"periodic needs {model.dim} entries, got {periodic}"
            )
        self.periodic = tuple(bool(p) for p in periodic)
        self.workers = workers

    # -- configuration ------------------------------------------------------
    def add_boundary(self, condition: Condition) -> "Simulation":
        """Register a boundary condition (before :meth:`finalize`)."""
        if self.schedule is not None:
            raise ConfigurationError("cannot add boundaries after finalize()")
        self.boundaries.append(condition)
        return self

    def finalize(self, rho: float = 1.0, u=None) -> "Simulation":
        """Freeze configuration, build the block's kernel and boundary
        handling, initialize the PDFs and register the sweeps."""
        if self.schedule is not None:
            raise ConfigurationError("finalize() called twice")
        self.flags.validate_exclusive()
        fluid = self.flags.fluid_mask()
        n_fluid = int(fluid.sum())
        if n_fluid == 0:
            raise ConfigurationError("no fluid cells flagged")
        self.kernel_name, kernel = make_block_kernel(
            self.flags, fluid, self.model, self.collision, self.kernel_name
        )
        handler = BoundaryHandling(self.model, self.flags, self.boundaries)
        self.pdfs.set_equilibrium(rho=rho, u=u)
        self.fluid_cells = n_fluid
        self._fluid_mask = fluid
        self.runtimes = {
            0: BlockRuntime(
                self.flags, self.pdfs, kernel, handler, self.kernel_name,
                self.cells, n_fluid,
            )
        }
        self.timeloop = TimeLoop()
        self.engine = make_engine(self.workers, self.timeloop.tree)
        self.timeloop.engine = self.engine
        # The block plan of repro.comm is 3-D only; a single block's
        # ghost exchange is the periodic wrap, for any lattice model.
        self.schedule = BlockSweepSchedule(
            self.runtimes,
            SimpleNamespace(exchange=self._wrap_periodic, resync=lambda: None),
            self.engine,
            self.timeloop.tree,
            overlap=False,
            remote_dst=(),
        )
        self.schedule.register(self.timeloop)
        if self.body_force is not None:
            self.timeloop.add(
                "force",
                lambda: self.body_force.apply(self.pdfs.src, self._fluid_mask),
            )
        return self

    def _wrap_periodic(self) -> None:
        """Copy opposite interior faces into ghost layers (periodic axes)."""
        src = self.pdfs.src
        for d, per in enumerate(self.periodic):
            if not per:
                continue
            axis = d + 1  # skip the PDF axis
            lo = [slice(None)] * src.ndim
            hi = [slice(None)] * src.ndim
            lo[axis], hi[axis] = 0, -2
            src[tuple(lo)] = src[tuple(hi)]
            lo[axis], hi[axis] = -1, 1
            src[tuple(lo)] = src[tuple(hi)]

    # -- observables ----------------------------------------------------------
    def density(self) -> np.ndarray:
        """Interior density; non-fluid cells are NaN."""
        return self._fluid_density(self.flags, self.pdfs)

    def velocity(self) -> np.ndarray:
        """Interior velocity, shape ``cells + (dim,)``; non-fluid are NaN.

        With a body force active, the physical fluid velocity includes
        the half-step correction ``u = j/rho - F/(2 rho)`` (the force is
        applied once per step after collision, so the bare first moment
        leads the true velocity by half a kick).  With the TRT magic
        parameter 3/16 this makes force-driven Poiseuille flow exact to
        machine precision — see ``benchmarks/bench_trt_magic.py``.
        """
        u = self._fluid_velocity(self.flags, self.pdfs)
        if self.body_force is not None:
            rho = _density(self.model, self.pdfs.interior_view)
            with np.errstate(divide="ignore", invalid="ignore"):
                u = u - 0.5 * self.body_force.force / rho[..., None]
        return u
