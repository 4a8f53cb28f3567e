"""Parallel substrate: virtual MPI (with deterministic fault injection
and a resilient sequence-numbered protocol layer), ghost-layer exchange,
and the distributed multi-block simulation driver."""

from .buffersystem import (
    BULK_TAG,
    COMM_MODES,
    BufferSegment,
    BufferSystem,
    CoalescedPlan,
    PeerMessage,
    coalesce_plan,
    drain_arrival_order,
    make_exchange,
)
from .distributed import (
    BlockRuntime,
    DistributedSimulation,
    build_block_runtime,
    default_vascular_colors,
)
from .faults import FaultInjector, FaultSpec
from .spmd import run_spmd_simulation, spmd_rank_program
from .ghostlayer import (
    CommStats,
    RankGhostPlan,
    build_rank_plan,
    ghost_slices,
    message_tag,
    needed_directions,
    offset_code,
    send_slices,
)
from .vmpi import Comm, ReliableComm, Request, VirtualMPI

__all__ = [
    "BlockRuntime", "DistributedSimulation", "build_block_runtime",
    "default_vascular_colors",
    "BULK_TAG", "COMM_MODES", "BufferSegment", "BufferSystem",
    "CoalescedPlan", "PeerMessage",
    "coalesce_plan", "make_exchange",
    "FaultInjector", "FaultSpec",
    "run_spmd_simulation", "spmd_rank_program",
    "CommStats", "ghost_slices",
    "needed_directions", "send_slices",
    "RankGhostPlan", "build_rank_plan",
    "drain_arrival_order", "message_tag", "offset_code",
    "Comm", "ReliableComm", "Request", "VirtualMPI",
]
