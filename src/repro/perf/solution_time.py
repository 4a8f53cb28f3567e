"""Time-to-solution estimation (§4.3).

The paper closes its weak-scaling discussion with a production-planning
computation: "For a spatial resolution of 1.276 µm we have a time step
length of 0.64 µs and achieve 1.25 time steps per second using 458,752
cores on JUQUEEN."  This module packages that arithmetic: given a
physical problem (resolution, fluid volume, simulated time span) and a
machine-scale performance figure, report steps, wall time, and the
compute cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..constants import (
    D3Q19_SIZE,
    DOUBLE_BYTES,
    MAX_BLOOD_VELOCITY_M_PER_S,
    MAX_STABLE_LATTICE_VELOCITY,
)
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    # ``repro.core`` builds on ``repro.exec``, which builds on
    # ``repro.perf``: importing ``core`` here at load time would close
    # that cycle.
    from ..core.units import UnitScales

__all__ = ["SolutionEstimate", "estimate_time_to_solution"]


@dataclass(frozen=True)
class SolutionEstimate:
    """Cost estimate for a production run."""

    dx: float
    dt: float
    n_steps: int
    timesteps_per_second: float
    wall_seconds: float
    core_hours: float
    pdf_memory_bytes: float

    @property
    def wall_hours(self) -> float:
        """Estimated wall-clock time in hours."""
        return self.wall_seconds / 3600.0

    def describe(self) -> str:
        """One-line human-readable summary of the estimate."""
        return (
            f"dx = {self.dx * 1e6:.3f} um, dt = {self.dt * 1e6:.3f} us; "
            f"{self.n_steps} steps at {self.timesteps_per_second:.2f} "
            f"steps/s -> {self.wall_hours:.1f} wall hours, "
            f"{self.core_hours:.3g} core hours, "
            f"{self.pdf_memory_bytes / 1024**4:.1f} TiB of PDF memory"
        )


def estimate_time_to_solution(
    fluid_cells: float,
    dx: float,
    physical_seconds: float,
    mflups_per_core: float,
    cores: int,
    scales: UnitScales | None = None,
    two_grids: bool = True,
) -> SolutionEstimate:
    """Estimate the cost of simulating ``physical_seconds`` of flow.

    Parameters
    ----------
    fluid_cells:
        Fluid lattice cells in the domain.
    dx:
        Spatial resolution [m].
    physical_seconds:
        Physical time span to simulate.
    mflups_per_core:
        Sustained per-core rate (e.g. from the Figure 7 model or a
        measurement).
    cores:
        Core count of the run.
    scales:
        Unit scales; defaults to the paper's blood-flow rule
        (``dt = u_lat,max * dx / u_phys,max`` = dx/2 for blood).
    """
    if fluid_cells <= 0 or dx <= 0 or physical_seconds < 0:
        raise ConfigurationError("need positive cells, dx and time span")
    if mflups_per_core <= 0 or cores < 1:
        raise ConfigurationError("need positive performance and cores")
    if scales is None:
        from ..core.units import blood_flow_scales

        scales = blood_flow_scales(
            dx, MAX_BLOOD_VELOCITY_M_PER_S, MAX_STABLE_LATTICE_VELOCITY
        )
    n_steps = int(round(physical_seconds / scales.dt))
    total_flups = mflups_per_core * 1e6 * cores
    ts_per_s = total_flups / fluid_cells
    wall = n_steps / ts_per_s if n_steps else 0.0
    grids = 2 if two_grids else 1
    memory = fluid_cells * D3Q19_SIZE * DOUBLE_BYTES * grids
    return SolutionEstimate(
        dx=dx,
        dt=scales.dt,
        n_steps=n_steps,
        timesteps_per_second=ts_per_s,
        wall_seconds=wall,
        core_hours=wall * cores / 3600.0,
        pdf_memory_bytes=memory,
    )
