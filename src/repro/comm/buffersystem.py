"""Bulk-coalesced ghost-layer communication: waLBerla's buffer system.

The paper never sends one message per block face: "all data exchanged
between two processes is first packed into a single buffer ... exactly
one message travels per pair of ranks per step" (§2.3).
:class:`BufferSystem` is that buffer system for the reproduction, the
coalescing executor of a rank's
:class:`~repro.comm.ghostlayer.RankGhostPlan`.  All (block, face)
payloads destined for one peer rank are packed, at precomputed element
offsets, into a **persistent preallocated** send buffer, and exactly
one message per peer travels per step (tag :data:`BULK_TAG`).  Receives
are drained in arrival order and unpacked straight from the incoming
payload into the ghost regions — there is no receive buffer, and the
steady-state exchange performs zero heap allocations of field-sized
temporaries, mirroring the allocation-free ethos of
:class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`.  Both
simulation drivers run it: the SPMD rank program and, on in-process
ranks, :class:`~repro.comm.distributed.DistributedSimulation`.

Layout determinism
------------------
Sender and receiver never exchange the layout — both derive it
independently from their (identical) rank plans: segments within a peer
buffer are ordered by the per-face message tag
(:func:`~repro.comm.ghostlayer.message_tag`), which both sides compute
to the same value for the same (destination block, side).  This is the
same trick waLBerla uses to keep its buffer system header-free.

Timing scopes and counters: ``pack`` / ``local copy`` / ``wire`` /
``unpack`` sub-scopes under the caller's communication sweep, plus
``comm.messages_coalesced``, ``comm.coalesced_bytes``,
``comm.remote_bytes`` and ``comm.local_bytes`` counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CommunicationError
from ..perf.timing import TimingTree
from .ghostlayer import (
    CommStats,
    RankGhostPlan,
    SpmdGhostExchange,
    _check_plan_blocks,
    _local_copy_bytes,
    drain_arrival_order,
)

__all__ = [
    "BULK_TAG",
    "BufferSegment",
    "PeerMessage",
    "CoalescedPlan",
    "coalesce_plan",
    "BufferSystem",
    "COMM_MODES",
    "make_exchange",
]

#: The single tag used by coalesced per-rank-pair messages.  Negative so
#: it can never collide with a per-face tag (``root_index * 27 + code``,
#: always >= 0).
BULK_TAG = -1

#: Valid ``comm_mode`` values accepted by the simulation drivers.
COMM_MODES = ("per-face", "coalesced", "overlap")


@dataclass(frozen=True)
class BufferSegment:
    """One (block, side) payload's position inside a peer buffer.

    ``start``/``stop`` are *element* offsets into the flat per-peer
    buffer; ``slices`` indexes the block's padded PDF field and
    ``shape`` is the region's shape (pack reshapes the flat span to it).
    """

    tag: int
    block_id: object
    slices: tuple
    shape: Tuple[int, ...]
    start: int
    stop: int


@dataclass(frozen=True)
class PeerMessage:
    """All segments exchanged with one peer rank, as one message."""

    peer: int
    segments: Tuple[BufferSegment, ...]
    elements: int

    @property
    def nbytes(self) -> int:
        """Payload size of the coalesced message (float64 elements)."""
        return self.elements * 8


@dataclass(frozen=True)
class CoalescedPlan:
    """A rank's bulk communication plan: one message per peer rank.

    Derived from a per-face :class:`~repro.comm.ghostlayer.RankGhostPlan`
    by :func:`coalesce_plan`; fixed for the lifetime of the run.
    """

    sends: Tuple[PeerMessage, ...]
    recvs: Tuple[PeerMessage, ...]
    local_copies: Tuple[Tuple[object, tuple, object, tuple], ...]

    @property
    def messages_per_step(self) -> int:
        """Outgoing messages per exchange — exactly one per peer."""
        return len(self.sends)


def _group(entries, fields) -> Tuple[PeerMessage, ...]:
    """Group per-face plan entries into per-peer messages.

    ``entries`` are ``(peer, tag, block_id, slices)``; segments within a
    peer's buffer are laid out in ascending tag order, which both sides
    of a channel compute identically (see module docstring).
    """
    by_peer: Dict[int, List[Tuple[int, object, tuple]]] = {}
    for peer, tag, block_id, sl in entries:
        by_peer.setdefault(peer, []).append((tag, block_id, sl))
    messages = []
    for peer in sorted(by_peer):
        segs = []
        offset = 0
        for tag, block_id, sl in sorted(by_peer[peer], key=lambda e: e[0]):
            shape = fields[block_id].src[sl].shape
            n = int(np.prod(shape))
            segs.append(
                BufferSegment(tag, block_id, sl, shape, offset, offset + n)
            )
            offset += n
        messages.append(PeerMessage(peer, tuple(segs), offset))
    return tuple(messages)


def coalesce_plan(plan: RankGhostPlan, fields) -> CoalescedPlan:
    """Convert a per-face rank plan into a per-peer bulk plan.

    ``fields`` maps block id to an object with a ``src`` grid, used only
    to size segments (shapes are fixed for the run).  Send and receive
    layouts agree across ranks because both sort by the shared per-face
    message tag.
    """
    _check_plan_blocks(plan, fields)
    return CoalescedPlan(
        sends=_group(plan.sends, fields),
        recvs=_group(plan.recvs, fields),
        local_copies=plan.local_copies,
    )


class BufferSystem:
    """Bulk ghost exchange over persistent per-peer buffers.

    Parameters
    ----------
    plan:
        The rank's per-face :class:`~repro.comm.ghostlayer.RankGhostPlan`,
        coalesced into one message per peer by :func:`coalesce_plan`.
    fields:
        Mapping block id -> object with a ``src`` PDF grid.
    comm:
        A :class:`~repro.comm.vmpi.Comm` or
        :class:`~repro.comm.vmpi.ReliableComm`; with the latter every
        bulk message is sequence-numbered and recoverable, so the
        exchange stays bit-identical under any non-crash fault schedule.
    tree:
        Optional timing tree; pack/local copy/wire/unpack times are
        recorded under the caller's current scope and the
        ``comm.messages_coalesced`` / ``comm.coalesced_bytes`` /
        ``comm.remote_bytes`` / ``comm.local_bytes`` counters
        accumulate.

    Use :meth:`exchange` for the fused path or the :meth:`start` /
    :meth:`finish` pair to overlap interior computation with the
    in-flight messages.  :attr:`stats` is the
    :class:`~repro.comm.ghostlayer.CommStats` ledger.

    Buffer reuse: send buffers are reused every step, and a receiver
    unpacks straight from the sender's payload (vMPI hands it over by
    reference), so every peer must finish a step's exchange before the
    sender packs the next one.  The SPMD rank program guarantees this
    with its per-step sync barrier — the reuse constraint of persistent
    MPI requests.  On in-process ranks it holds because every rank's
    :meth:`finish` runs before any rank's next :meth:`start`.  Under
    fault injection the :class:`~repro.comm.vmpi.ReliableComm` sequence
    numbers discard stale deliveries (which alias the same buffer)
    before their payload is read.
    """

    def __init__(
        self,
        plan: RankGhostPlan,
        fields: Dict[object, object],
        comm,
        tree: Optional[TimingTree] = None,
    ):
        self.plan: CoalescedPlan = coalesce_plan(plan, fields)
        self.fields = fields
        self.comm = comm
        self.tree = tree
        self.stats = CommStats()
        self._local_bytes = _local_copy_bytes(plan, fields)
        # Persistent send buffers, allocated once and reused every step,
        # with each segment's view into its buffer.
        self._sends = []
        for msg in self.plan.sends:
            buf = np.empty(msg.elements, dtype=np.float64)
            views = tuple(
                (buf[seg.start:seg.stop].reshape(seg.shape), seg.block_id, seg.slices)
                for seg in msg.segments
            )
            self._sends.append((msg, buf, views))
        self._recv_channels = [(msg.peer, BULK_TAG) for msg in self.plan.recvs]
        self._requests: list = []

    # -- accounting ---------------------------------------------------------
    def _record(self, name: str, seconds: float) -> None:
        if self.tree is not None:
            self.tree.record(name, seconds)

    def _count(self, name: str, value: float) -> None:
        if self.tree is not None:
            self.tree.add_counter(name, value)

    # -- the two phases -----------------------------------------------------
    def start(self) -> None:
        """Pack all outgoing payloads, post one isend per peer, and run
        the direct copies between blocks owned by this rank.

        Send buffers are owned by this object and reused next step (see
        the class docstring's buffer-reuse rule).
        """
        t0 = time.perf_counter()
        sent = 0
        fields = self.fields
        for msg, buf, views in self._sends:
            for view, block_id, sl in views:
                np.copyto(view, fields[block_id].src[sl])
            sent += msg.nbytes
            self._requests.append(
                self.comm.isend(buf, dest=msg.peer, tag=BULK_TAG)
            )
        self._record("pack", time.perf_counter() - t0)
        self._count("comm.messages_coalesced", len(self.plan.sends))
        self._count("comm.coalesced_bytes", sent)
        t0 = time.perf_counter()
        local = self.plan.local_copies
        for block_id, ghost_sl, src_id, src_sl in local:
            fields[block_id].src[ghost_sl] = fields[src_id].src[src_sl]
        self._record("local copy", time.perf_counter() - t0)
        self.stats.add(
            len(local), self._local_bytes, len(self.plan.sends), sent, self.tree
        )

    def finish(self) -> None:
        """Drain incoming bulk messages (arrival order) and unpack.

        Wire-wait and unpack times are recorded separately, so the
        timing tree shows how much exposed wait the overlap schedule
        still pays.  Completes the posted send requests afterwards.
        """
        wire = 0.0
        unpack = 0.0
        probe_timeout = getattr(self.comm, "retry_timeout", None)
        t0 = time.perf_counter()
        for i, data in drain_arrival_order(
            self.comm, self._recv_channels, probe_timeout
        ):
            wire += time.perf_counter() - t0
            t0 = time.perf_counter()
            msg = self.plan.recvs[i]
            flat = np.asarray(data)
            if flat.shape != (msg.elements,):
                raise CommunicationError(
                    f"bulk message from rank {msg.peer}: got shape "
                    f"{flat.shape}, expected ({msg.elements},)"
                )
            for seg in msg.segments:
                self.fields[seg.block_id].src[seg.slices] = flat[
                    seg.start:seg.stop
                ].reshape(seg.shape)
            unpack += time.perf_counter() - t0
            t0 = time.perf_counter()
        for req in self._requests:
            req.wait()
        self._requests.clear()
        self._record("wire", wire)
        self._record("unpack", unpack)

    def exchange(self) -> None:
        """One full bulk exchange: ``start`` + ``finish``."""
        self.start()
        self.finish()


def make_exchange(
    comm_mode: str,
    plan: RankGhostPlan,
    fields: Dict[object, object],
    comm,
    tree: Optional[TimingTree] = None,
):
    """The executor that runs ``plan`` under ``comm_mode``:
    :class:`~repro.comm.ghostlayer.SpmdGhostExchange` for
    ``"per-face"``, :class:`BufferSystem` for ``"coalesced"`` and
    ``"overlap"``."""
    executor = SpmdGhostExchange if comm_mode == "per-face" else BufferSystem
    return executor(plan, fields, comm, tree=tree)
