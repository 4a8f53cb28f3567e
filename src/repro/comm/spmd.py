"""SPMD distributed simulation over virtual MPI: the same driver on one
rank's view.

The paper's program is SPMD: "every process voxelizes its blocks
independently" (§2.3), then exchanges and steps them.  Here every rank
is one thread of a :class:`~repro.comm.vmpi.VirtualMPI` world, and each
constructs the one multi-block driver,
:class:`~repro.comm.distributed.DistributedSimulation`, with its own
endpoint (``comm=``): the driver builds only that rank's blocks (from
:func:`~repro.blocks.forest.view_for_rank`) and its
:class:`~repro.comm.buffersystem.BufferSystem`, exactly the rank the
in-process driver builds.  :func:`spmd_rank_program` only wraps the
endpoint, steps the driver in lockstep with the other ranks and returns
the interiors; the tests assert the results are bit-identical to the
in-process driver's.  Each rank keeps one timing ledger: the tree it
hands both its channel and its driver, which the caller reduces across
ranks with :func:`~repro.perf.timing.reduce_trees`.

Resilience
----------
By default the ghost exchange runs over
:class:`~repro.comm.vmpi.ReliableComm` — sequence-numbered, idempotent
messages with timeout/retransmit recovery — so the program survives any
delay/reorder/duplicate/drop schedule of an attached
:class:`~repro.comm.faults.FaultInjector` bit-identically
(``tests/chaos/`` samples such schedules).  ``checkpoint_every`` writes
periodic atomic state checkpoints through the driver's
``enable_checkpointing``: :func:`~repro.io.checkpoint.save_checkpoint`
gathers every rank's blocks to rank 0, which writes one file.  After a
fault-injected rank crash aborts the run with
:class:`~repro.errors.RankCrashedError`, ``restore_from`` resumes from
the last checkpoint (:func:`~repro.io.checkpoint.load_checkpoint`, read
on rank 0 and broadcast) to the exact state an uninterrupted run
reaches.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..blocks.setup import SetupBlockForest
from ..errors import CommunicationError, ConfigurationError
from ..lbm.boundary import Condition
from ..lbm.collision import SRT, TRT
from ..perf.timing import TimingTree
from .distributed import DistributedSimulation
from .vmpi import Comm, ReliableComm, VirtualMPI

__all__ = ["run_spmd_simulation", "spmd_rank_program"]

Collision = Union[SRT, TRT]


def spmd_rank_program(
    comm: Comm,
    forest: SetupBlockForest,
    collision: Collision,
    steps: int,
    conditions: Sequence[Condition],
    tree: Optional[TimingTree] = None,
    resilient: bool = True,
    retry_timeout: float = 0.05,
    max_retries: int = 10,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    restore_from: Optional[str] = None,
    **options,
) -> Dict[object, np.ndarray]:
    """One rank's complete simulation: build the rank's
    :class:`~repro.comm.distributed.DistributedSimulation` (``options``
    are its keywords — ``geometry``, ``flag_setter``, ``periodic``,
    ``comm_mode``, ``workers``, ...), step it in lockstep
    with the other ranks, and return the final interior PDFs of the
    local blocks (keyed by block id).

    ``conditions`` are the driver's ``boundaries``.  ``workers`` gives
    each rank an intra-rank sweep engine — the paper's hybrid aPbT
    configurations: ``a`` virtual MPI ranks each driving ``b`` worker
    threads.

    ``tree`` is the rank's timing tree (a fresh one when ``None``): the
    driver's sweeps with their sub-scopes, the per-step ``sync``
    barrier, checkpoint writes, cell/byte counters and the resilient
    layer's ``comm.timeouts`` / ``comm.retransmits`` /
    ``comm.duplicates_dropped`` recovery counters — reduce the per-rank
    trees afterwards with :func:`~repro.perf.timing.reduce_trees`.

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
    if tree is None:
        tree = TimingTree()
    channel = (
        ReliableComm(
            comm, retry_timeout=retry_timeout, max_retries=max_retries, tree=tree
        )
        if resilient
        else comm
    )
    sim = DistributedSimulation(
        forest, collision, boundaries=conditions, comm=channel, tree=tree, **options
    )
    try:
        if checkpoint_every > 0:
            sim.enable_checkpointing(checkpoint_path, checkpoint_every)
        if restore_from is not None:
            sim.restart(restore_from)
        for step in range(sim.timeloop.steps_run, int(steps)):
            # Fault-schedule boundary: scheduled stalls/crashes fire here.
            if resilient:
                channel.begin_step(step)
            else:
                comm.fault_tick(step)
            sim.timeloop.step()
            # Keep ranks in lockstep (mirrors waLBerla's per-step sync).
            with tree.scoped("sync"):
                comm.barrier()
    finally:
        sim.close()
    return {
        block_id: rt.field.interior_view.copy()
        for block_id, rt in sim.runtimes.items()
    }


def run_spmd_simulation(
    world: VirtualMPI,
    forest: SetupBlockForest,
    collision: Collision,
    steps: int,
    conditions: Optional[Sequence[Condition]] = None,
    timing_trees: Optional[Sequence[TimingTree]] = None,
    resilient: bool = True,
    retry_timeout: float = 0.05,
    max_retries: int = 10,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    restore_from: Optional[str] = None,
    **options,
) -> Dict[object, np.ndarray]:
    """Run the SPMD program on every virtual rank and merge the results.

    ``options`` (the :class:`~repro.comm.distributed.DistributedSimulation`
    keywords) are forwarded to every rank's :func:`spmd_rank_program` —
    ``world.size`` ranks x ``workers`` threads is the paper's hybrid
    aPbT execution.

    ``world.size`` must equal the forest's process count.  Returns the
    final interior PDFs of every block, keyed by block id.

    ``timing_trees`` — one :class:`~repro.perf.timing.TimingTree` per
    rank — collects per-rank sweep/sub-scope timing; reduce them
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
            tree=timing_trees[comm.rank] if timing_trees is not None else None,
            resilient=resilient,
            retry_timeout=retry_timeout,
            max_retries=max_retries,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            restore_from=restore_from,
            **options,
        )

    per_rank = world.run(program)
    merged: Dict[object, np.ndarray] = {}
    for result in per_rank:
        overlap = merged.keys() & result.keys()
        if overlap:
            raise CommunicationError(f"blocks owned by two ranks: {overlap}")
        merged.update(result)
    return merged
