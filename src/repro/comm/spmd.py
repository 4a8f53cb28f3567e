"""SPMD distributed simulation over virtual MPI.

While :class:`~repro.comm.distributed.DistributedSimulation` drives
all virtual ranks from one thread, this module runs the message-passing
program on one thread per rank: every rank builds only its own blocks
(from :func:`~repro.blocks.forest.view_for_rank`), exchanges ghost
regions with neighboring ranks through its
:class:`~repro.comm.buffersystem.BufferSystem` on a
:class:`~repro.comm.vmpi.VirtualMPI` communicator, and steps its blocks
with :class:`~repro.core.schedule.BlockSweepSchedule`.  Both drivers
use the same plan, executor and schedule; the tests assert their
results are bit-identical.

Resilience
----------
By default the ghost exchange runs over
:class:`~repro.comm.vmpi.ReliableComm` — sequence-numbered, idempotent
messages with timeout/retransmit recovery — so the program survives any
delay/reorder/duplicate/drop schedule of an attached
:class:`~repro.comm.faults.FaultInjector` bit-identically
(``tests/chaos/`` samples such schedules).  ``checkpoint_every`` writes
periodic atomic state checkpoints from the time loop's checkpoint hook:
ranks gather their blocks' record
(:func:`repro.io.checkpoint.block_arrays`, PDFs and flags, the same as
every driver writes) to rank 0, which writes one file; after
a fault-injected rank crash aborts the run with
:class:`~repro.errors.RankCrashedError`, ``restore_from`` resumes from
the last checkpoint to the exact state an uninterrupted run reaches.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from ..blocks.forest import LocalBlock, view_for_rank
from ..blocks.setup import SetupBlockForest
from ..core.flags import FlagField
from ..core.schedule import BlockRuntime, BlockSweepSchedule
from ..core.timeloop import TimeLoop
from ..errors import CommunicationError, ConfigurationError
from ..exec import make_engine
from ..geometry.implicit import ImplicitGeometry
from ..geometry.voxelize import ColorMap
from ..io.checkpoint import block_arrays, read_state, restore_blocks, write_state
from ..lbm.boundary import Condition
from ..lbm.collision import SRT, TRT
from ..lbm.lattice import D3Q19, LatticeModel
from ..perf.timing import TimingTree
from .buffersystem import check_comm_mode, make_exchange
from .distributed import build_block_runtime
from .vmpi import Comm, ReliableComm, VirtualMPI

__all__ = ["run_spmd_simulation", "spmd_rank_program"]

Collision = Union[SRT, TRT]


def _write_rank0_checkpoint(
    comm: Comm,
    runtimes: Dict[object, BlockRuntime],
    path: str,
    step: int,
) -> None:
    """Collective: gather every rank's block record to rank 0, which
    writes one atomic checkpoint file tagged with ``step``."""
    gathered = comm.gather(block_arrays(runtimes), root=0)
    if comm.rank == 0:
        arrays = {key: arr for shard in gathered for key, arr in shard.items()}
        write_state(path, arrays, step=step)


def _restore_from_checkpoint(
    comm: Comm, runtimes: Dict[object, BlockRuntime], path: str
) -> int:
    """Collective: rank 0 reads the checkpoint, broadcasts it, every
    rank restores its own blocks; returns the checkpointed step.

    A file lacking one of the rank's blocks, or holding it at another
    shape, raises :class:`~repro.errors.CheckpointError`."""
    payload = None
    if comm.rank == 0:
        arrays, step, _rng = read_state(path)
        payload = (arrays, step)
    arrays, step = comm.bcast(payload, root=0)
    restore_blocks(arrays, runtimes, f"{path}, rank {comm.rank}")
    return int(step)


def spmd_rank_program(
    comm: Comm,
    forest: SetupBlockForest,
    collision: Collision,
    steps: int,
    conditions: Sequence[Condition],
    geometry: Optional[ImplicitGeometry] = None,
    flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
    colors: Optional[ColorMap] = None,
    model: LatticeModel = D3Q19,
    tree: Optional[TimingTree] = None,
    resilient: bool = True,
    retry_timeout: float = 0.05,
    max_retries: int = 10,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    restore_from: Optional[str] = None,
    comm_mode: str = "per-face",
    exec_mode: Optional[str] = None,
    workers: int = 1,
) -> Dict[object, np.ndarray]:
    """One rank's complete simulation: build local blocks, exchange
    ghosts by message passing, step, and return the final interior PDFs
    of the local blocks (keyed by block id).

    ``exec_mode`` / ``workers`` give the rank an intra-rank sweep
    engine (see :mod:`repro.exec`) — the paper's hybrid aPbT
    configurations: ``a`` virtual MPI ranks each driving ``b`` worker
    threads.  Work items are whole blocks, or interior slabs of dense
    blocks when the rank owns fewer blocks than workers; under
    ``comm_mode="overlap"`` the inner-slab round runs *asynchronously*
    while this rank's thread drains the exchange, composing message
    hiding with thread parallelism.  Results are bit-identical for
    every (exec_mode, workers) choice.  ``None`` selects ``"threads"``
    when ``workers > 1``.

    ``comm_mode`` selects how the
    :class:`~repro.comm.buffersystem.BufferSystem` groups its messages
    (all bit-identical, all over persistent buffers with zero
    full-field allocations in steady state): ``"per-face"`` sends one
    message per (block, face); ``"coalesced"`` exactly one message per
    peer rank per step; ``"overlap"`` additionally hides the exchange
    behind each block's inner-region sweep, with ``inner kernel`` /
    ``communication finish`` / ``frontier kernel`` scopes and a
    ``comm.overlap_efficiency`` gauge.

    ``tree`` enables per-rank timing: communication (with pack /
    local copy / wire / unpack sub-scopes), boundary, kernel (with
    per-tier ``tier:<name>`` timers), swap, the
    per-step sync barrier, and checkpoint writes each get a scope, and
    cell/byte counters (plus the resilient layer's ``comm.timeouts`` /
    ``comm.retransmits`` / ``comm.duplicates_dropped`` recovery
    counters) are accumulated — reduce the per-rank trees afterwards
    with :func:`~repro.perf.timing.reduce_trees`.

    ``resilient`` routes the ghost exchange through
    :class:`~repro.comm.vmpi.ReliableComm` (sequence numbers, dedup,
    timeout/retransmit with backoff); disable only for overhead
    benchmarking on a known-perfect transport.  ``checkpoint_every`` /
    ``checkpoint_path`` write an atomic global checkpoint every N
    completed steps; ``restore_from`` resumes a previous run from such
    a file (bit-identically).
    """
    if checkpoint_every > 0 and not checkpoint_path:
        raise ConfigurationError("checkpoint_every needs a checkpoint_path")
    check_comm_mode(comm_mode)
    view = view_for_rank(forest, comm.rank)
    runtimes: Dict[object, BlockRuntime] = {
        blk.id: build_block_runtime(
            blk, collision, conditions,
            geometry=geometry, flag_setter=flag_setter, colors=colors,
            model=model,
        )
        for blk in view.blocks
    }

    # Precompute the communication plan and bind the exchange executor.
    channel = (
        ReliableComm(
            comm, retry_timeout=retry_timeout, max_retries=max_retries,
            tree=tree,
        )
        if resilient
        else comm
    )
    exchange, remote_dst = make_exchange(comm_mode, view, runtimes, channel, tree)

    def scope(name: str):
        return tree.scoped(name) if tree is not None else nullcontext()

    # Intra-rank sweep engine (the aPbT thread axis) and the shared
    # block-sweep schedule.
    engine = make_engine(exec_mode, workers, tree)
    timeloop = TimeLoop(tree=tree, engine=engine)
    BlockSweepSchedule(
        runtimes, exchange, engine, tree,
        overlap=comm_mode == "overlap", remote_dst=remote_dst,
    ).register(timeloop)
    if checkpoint_every > 0:
        # Periodic checkpoint: collective gather + atomic rank-0 write.
        timeloop.configure_checkpoint(
            lambda done: _write_rank0_checkpoint(
                comm, runtimes, checkpoint_path, done
            ),
            checkpoint_every,
        )

    if restore_from is not None:
        timeloop.steps_run = _restore_from_checkpoint(comm, runtimes, restore_from)

    try:
        for step in range(timeloop.steps_run, int(steps)):
            # Fault-schedule boundary: scheduled stalls/crashes fire here.
            if resilient:
                channel.begin_step(step)
            else:
                comm.fault_tick(step)
            timeloop.step()
            # Keep ranks in lockstep (mirrors waLBerla's per-step sync).
            with scope("sync"):
                comm.barrier()
    finally:
        timeloop.close()

    return {
        block_id: rt.field.interior_view.copy()
        for block_id, rt in runtimes.items()
    }


def run_spmd_simulation(
    world: VirtualMPI,
    forest: SetupBlockForest,
    collision: Collision,
    steps: int,
    conditions: Optional[Sequence[Condition]] = None,
    geometry: Optional[ImplicitGeometry] = None,
    flag_setter: Optional[Callable[[LocalBlock, FlagField], None]] = None,
    colors: Optional[ColorMap] = None,
    model: LatticeModel = D3Q19,
    timing_trees: Optional[Sequence[TimingTree]] = None,
    resilient: bool = True,
    retry_timeout: float = 0.05,
    max_retries: int = 10,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    restore_from: Optional[str] = None,
    comm_mode: str = "per-face",
    exec_mode: Optional[str] = None,
    workers: int = 1,
) -> Dict[object, np.ndarray]:
    """Run the SPMD program on every virtual rank and merge the results.

    ``exec_mode`` / ``workers`` are forwarded to every rank's
    :func:`spmd_rank_program` — ``world.size`` ranks x ``workers``
    threads is the paper's hybrid aPbT execution.

    ``world.size`` must equal the forest's process count.  Returns the
    final interior PDFs of every block, keyed by block id.

    ``timing_trees`` — one :class:`~repro.perf.timing.TimingTree` per
    rank — turns on per-rank sweep/sub-scope timing; reduce them
    afterwards with :func:`~repro.perf.timing.reduce_trees`.

    Resilience knobs (``resilient``, ``retry_timeout``, ``max_retries``,
    ``checkpoint_every``/``checkpoint_path``, ``restore_from``) are
    forwarded to :func:`spmd_rank_program`; attach a
    :class:`~repro.comm.faults.FaultInjector` to ``world`` to exercise
    them under chaos.  A fault-injected crash raises
    :class:`~repro.errors.RankCrashedError` out of this call; restart by
    calling again with ``restore_from`` pointing at the last checkpoint.
    """
    if world.size != forest.n_processes:
        raise CommunicationError(
            f"world size {world.size} != forest processes {forest.n_processes}"
        )
    if timing_trees is not None and len(timing_trees) != world.size:
        raise CommunicationError(
            f"need one timing tree per rank: got {len(timing_trees)} "
            f"for {world.size} ranks"
        )
    if conditions is None:
        conditions = []

    def program(comm: Comm):
        return spmd_rank_program(
            comm, forest, collision, steps, conditions,
            geometry=geometry, flag_setter=flag_setter, colors=colors,
            model=model,
            tree=timing_trees[comm.rank] if timing_trees is not None else None,
            resilient=resilient,
            retry_timeout=retry_timeout,
            max_retries=max_retries,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            restore_from=restore_from,
            comm_mode=comm_mode,
            exec_mode=exec_mode,
            workers=workers,
        )

    per_rank = world.run(program)
    merged: Dict[object, np.ndarray] = {}
    for result in per_rank:
        overlap = merged.keys() & result.keys()
        if overlap:
            raise CommunicationError(f"blocks owned by two ranks: {overlap}")
        merged.update(result)
    return merged
