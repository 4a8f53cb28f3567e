"""Core framework: fields, flags, unit scales, time loop, the per-block
runtime and sweep schedule every driver steps, and the single-block
Simulation driver."""

from .driver import BlockDriver
from .field import PdfField
from .observables import (
    enstrophy,
    kinetic_energy,
    mass_flux,
    mean_velocity,
    pressure,
    reynolds_number,
    vorticity,
)
from .flags import BOUNDARY_MASK, FLUID, NO_SLIP, OUTSIDE, PRESSURE_BC, VELOCITY_BC, FlagField
from .schedule import BlockRuntime, BlockSweepSchedule, make_block_kernel
from .simulation import Simulation
from .timeloop import Sweep, TimeLoop
from .units import UnitScales, blood_flow_scales

__all__ = [
    "BlockDriver", "BlockRuntime", "BlockSweepSchedule", "make_block_kernel",
    "PdfField",
    "enstrophy", "kinetic_energy", "mass_flux", "mean_velocity",
    "pressure", "reynolds_number", "vorticity", "FlagField", "Simulation", "Sweep", "TimeLoop",
    "UnitScales", "blood_flow_scales",
    "BOUNDARY_MASK", "FLUID", "NO_SLIP", "OUTSIDE", "PRESSURE_BC", "VELOCITY_BC",
]
