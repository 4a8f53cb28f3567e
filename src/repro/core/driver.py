"""The driver surface shared by every simulation driver.

:class:`BlockDriver` holds what a user calls on a running simulation —
the run loop with its stability check, checkpoint hooks, boundary
updates, the per-block observables (density, velocity, maximum speed),
mass and rate accounting, the timing report — over the
driver's block id -> :class:`~repro.core.schedule.BlockRuntime` map and
its :class:`~repro.core.schedule.BlockSweepSchedule`.  The single-block
:class:`~repro.core.simulation.Simulation` (one block, id ``0``) and the
multi-block :class:`~repro.comm.distributed.DistributedSimulation` both
derive from it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError, NumericalError
from ..lbm.boundary import Condition
from ..lbm.lattice import LatticeModel
from ..lbm.macroscopic import density as _density, velocity as _velocity
from .schedule import BlockRuntime, BlockSweepSchedule
from .timeloop import TimeLoop

__all__ = ["BlockDriver"]


class BlockDriver:
    """Run loop, checkpointing and accounting over a driver's blocks.

    Subclasses set ``runtimes`` (block id -> runtime), ``model`` (the
    lattice model), ``timeloop`` and ``schedule``; a driver whose
    ``schedule`` is still ``None`` (a
    :class:`~repro.core.simulation.Simulation` before ``finalize()``)
    refuses to run.  ``comm`` is set on a driver that steps one rank of
    an SPMD program; its checkpoints are collective.
    """

    runtimes: Dict[object, BlockRuntime]
    model: LatticeModel
    timeloop: Optional[TimeLoop] = None
    schedule: Optional[BlockSweepSchedule] = None
    comm = None

    def _require_ready(self, what: str) -> None:
        if self.schedule is None:
            raise ConfigurationError(f"call finalize() before {what}")

    # -- execution ------------------------------------------------------------
    def run(self, steps: int, check_every: int = 0):
        """Advance the simulation by ``steps`` time steps.

        ``check_every > 0`` runs :meth:`assert_stable` at that interval,
        aborting early with :class:`~repro.errors.NumericalError` instead
        of silently producing NaN fields.
        """
        self._require_ready("run()")
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
        """Raise :class:`NumericalError` if any block diverged.

        ``u_max`` defaults to the lattice sound speed 1/sqrt(3) — any
        supersonic lattice velocity means the scheme has left its
        validity region (the paper's stability bound is 0.1).
        """
        self._require_ready("assert_stable()")
        steps = self.timeloop.steps_run
        for key, rt in self.runtimes.items():
            fm = rt.flags.fluid_mask()
            interior = rt.field.interior_view
            if not np.isfinite(interior[:, fm]).all():
                raise NumericalError(
                    f"block {key}: non-finite PDFs after {steps} steps"
                )
            if not fm.any():
                continue
            umax = float(np.abs(_velocity(rt.field.model, interior)[fm]).max())
            if umax > u_max:
                raise NumericalError(
                    f"block {key}: lattice velocity {umax:.3f} exceeds "
                    f"{u_max} after {steps} steps (unstable)"
                )

    def close(self) -> None:
        """Shut down the sweep engine's worker pool (idempotent)."""
        if self.timeloop is not None:
            self.timeloop.close()

    # -- configuration --------------------------------------------------------
    def update_boundary(self, old: Condition, new: Condition):
        """Replace a boundary condition on every block (e.g. a pulsatile
        inflow changing its UBB velocity between runs).

        The new condition must keep the old flag bit — the precomputed
        link lists stay valid, only the applied values change (see
        :meth:`~repro.lbm.boundary.BoundaryHandling.replace`).
        """
        self._require_ready("updating boundaries")
        replaced = 0
        for rt in self.runtimes.values():
            replaced += rt.handler.replace(old, new)
        if replaced == 0:
            raise ConfigurationError("condition is not active on any block")
        return self

    # -- checkpoint / restart -------------------------------------------------
    def enable_checkpointing(self, path: str, every: int, rng=None):
        """Write an atomic checkpoint to ``path`` every ``every`` steps.

        The checkpoint (format v2, see :mod:`repro.io.checkpoint`)
        carries every block's PDF grid, the flag fields, the step
        counter, and optionally the state of ``rng`` (a
        ``numpy.random.Generator``).  Writes go through a temp file +
        rename, so an interrupted write never destroys the previous
        checkpoint; the write cost is timed under the loop's
        ``checkpoint`` scope.  On an SPMD rank (``comm`` set) every rank
        enables it and each write is collective.  See
        ``docs/resilience.md``.
        """
        self._require_ready("checkpointing")
        from ..io.checkpoint import save_checkpoint

        self.timeloop.configure_checkpoint(
            lambda _step: save_checkpoint(self, path, rng=rng), every
        )
        return self

    def restart(self, path: str, rng=None) -> int:
        """Restore state from a checkpoint written by
        :meth:`enable_checkpointing` (or
        :func:`repro.io.checkpoint.save_checkpoint`); returns the step
        count at which it was taken.

        Continuing with ``run(remaining)`` reproduces an uninterrupted
        run bit-exactly — the recovery path validated by
        ``tests/chaos/``.  On an SPMD rank (``comm`` set) every rank
        calls it: the file is read on rank 0 and broadcast.
        """
        self._require_ready("restart()")
        from ..io.checkpoint import load_checkpoint

        return load_checkpoint(self, path, rng=rng)

    # -- observables and rates ------------------------------------------------
    def total_mass(self) -> float:
        """Sum of density over fluid cells (conserved in closed domains)."""
        total = 0.0
        for rt in self.runtimes.values():
            rho = _density(rt.field.model, rt.field.interior_view)
            total += float(rho[rt.flags.fluid_mask()].sum())
        return total

    def max_velocity(self) -> float:
        """Largest velocity component magnitude over every block's fluid
        cells (the bare first moment, no body-force correction)."""
        vmax = 0.0
        for rt in self.runtimes.values():
            u = _velocity(self.model, rt.field.interior_view)
            mask = rt.flags.fluid_mask()
            if mask.any():
                vmax = max(vmax, float(np.abs(u[mask]).max()))
        return vmax

    def block_density(self, key) -> np.ndarray:
        """Interior density of block ``key`` (NaN on non-fluid cells)."""
        rt = self.runtimes[key]
        return self._fluid_density(rt.flags, rt.field)

    def block_velocity(self, key) -> np.ndarray:
        """Interior velocity of block ``key``, shape ``cells + (dim,)``
        (the bare first moment; NaN on non-fluid cells)."""
        rt = self.runtimes[key]
        return self._fluid_velocity(rt.flags, rt.field)

    def _fluid_density(self, flags, field) -> np.ndarray:
        rho = _density(self.model, field.interior_view)
        return np.where(flags.fluid_mask(), rho, np.nan)

    def _fluid_velocity(self, flags, field) -> np.ndarray:
        u = _velocity(self.model, field.interior_view)
        return np.where(flags.fluid_mask()[..., None], u, np.nan)

    def _kernel_rate(self, cells_per_step: int) -> float:
        """Million ``cells_per_step`` updates per kernel second — the
        ``kernel`` sweep in the fused modes, ``inner kernel`` +
        ``frontier kernel`` under overlap."""
        t = sum(v for k, v in self.timeloop.timings().items() if "kernel" in k)
        if t == 0.0 or self.timeloop.steps_run == 0:
            return 0.0
        return cells_per_step * self.timeloop.steps_run / t / 1e6

    def mlups(self) -> float:
        """Measured million lattice cell updates per second (kernel time
        only; sparse kernels count only the cells they sweep)."""
        self._require_ready("mlups()")
        return self._kernel_rate(self.schedule.cells_per_step)

    def mflups(self) -> float:
        """Measured million *fluid* lattice cell updates per second."""
        self._require_ready("mflups()")
        return self._kernel_rate(self.schedule.fluid_per_step)

    def timing_report(self) -> str:
        """Hierarchical timing tree of the run (waLBerla's timing pool):
        sweeps with their sub-scopes, per-tier kernel timers and
        counters (the sweep engine's ``exec.*`` among them)."""
        self._require_ready("timing_report()")
        return self.timeloop.timing_report()
