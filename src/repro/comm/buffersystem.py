"""Bulk-coalesced ghost-layer communication: waLBerla's buffer system.

The paper never sends one message per block face: "all data exchanged
between two processes is first packed into a single buffer ... exactly
one message travels per pair of ranks per step" (§2.3).  This module is
that buffer system for the reproduction, in two flavors sharing one
plan format:

* :class:`BufferSystem` — the SPMD executor.  All (block, face) payloads
  destined for one peer rank are packed, at precomputed element offsets,
  into a **persistent preallocated** send buffer, and exactly one
  message per peer travels per step (tag :data:`BULK_TAG`).  Receives
  are drained in arrival order and unpacked straight from the incoming
  buffer into the ghost regions — the steady-state exchange performs
  zero heap allocations of field-sized temporaries, mirroring the
  allocation-free ethos of
  :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`.
* :class:`CoalescedGhostExchange` — the same coalescing executed inside
  the direct-copy driver
  (:class:`~repro.comm.distributed.DistributedSimulation`), where every
  virtual rank pair's traffic is staged through one persistent buffer
  per ordered pair.  It exposes ``start``/``finish`` halves so the
  overlap schedule can run interior kernels between pack and unpack.

Layout determinism
------------------
Sender and receiver never exchange the layout — both derive it
independently from their (identical) rank plans: segments within a peer
buffer are ordered by the per-face message tag
(:func:`~repro.comm.ghostlayer.message_tag`), which both sides compute
to the same value for the same (destination block, side).  This is the
same trick waLBerla uses to keep its buffer system header-free.

Buffer reuse contract
---------------------
Send buffers are reused every step, so a step's payload must be fully
consumed before the next pack.  The SPMD time loop guarantees this with
its per-step sync barrier (every rank unpacks before any rank repacks) —
the exact reuse constraint of persistent MPI requests.  Under fault
injection the :class:`~repro.comm.vmpi.ReliableComm` sequence numbers
ensure stale deliveries (which alias the same buffer) are discarded
without their payload ever being read.

Timing scopes and counters: ``pack`` / ``wire`` / ``unpack`` / ``local
copy`` sub-scopes under the caller's communication sweep, plus
``comm.messages_coalesced`` and ``comm.coalesced_bytes`` counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommunicationError
from ..perf.timing import TimingTree
from .ghostlayer import (
    CommStats,
    CopySpec,
    RankGhostPlan,
    drain_arrival_order,
    ghost_slices,
    message_tag,
    send_slices,
)

__all__ = [
    "BULK_TAG",
    "BufferSegment",
    "PeerMessage",
    "CoalescedPlan",
    "coalesce_plan",
    "BufferSystem",
    "CoalescedGhostExchange",
    "COMM_MODES",
]

#: The single tag used by coalesced per-rank-pair messages.  Negative so
#: it can never collide with a per-face tag (``root_index * 27 + code``,
#: always >= 0).
BULK_TAG = -1

#: Valid ``comm_mode`` values accepted by the simulation drivers.
COMM_MODES = ("per-face", "coalesced", "overlap")


def _slice_len(sl: slice, n: int) -> int:
    """Number of elements ``sl`` selects from an axis of length ``n``."""
    return len(range(*sl.indices(n)))


def _region_shape(field_shape: Tuple[int, ...], slices) -> Tuple[int, ...]:
    """Shape of ``field[slices]`` without touching any array data."""
    return tuple(
        _slice_len(sl, n) for sl, n in zip(slices, field_shape)
    )


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


def _group(entries, key_rank, fields) -> Tuple[PeerMessage, ...]:
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
            if block_id not in fields:
                raise CommunicationError(
                    f"coalesced plan references unknown block {block_id}"
                )
            shape = _region_shape(fields[block_id].src.shape, sl)
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
    return CoalescedPlan(
        sends=_group(plan.sends, 0, fields),
        recvs=_group(plan.recvs, 0, fields),
        local_copies=plan.local_copies,
    )


class BufferSystem:
    """SPMD bulk ghost exchange over persistent per-peer buffers.

    Parameters
    ----------
    plan:
        The rank's per-face :class:`~repro.comm.ghostlayer.RankGhostPlan`
        (coalesced internally) or a ready :class:`CoalescedPlan`.
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
        ``comm.remote_bytes`` counters accumulate.

    Use :meth:`exchange` for the fused path or the :meth:`start` /
    :meth:`finish` pair to overlap interior computation with the
    in-flight messages.
    """

    def __init__(
        self,
        plan,
        fields: Dict[object, object],
        comm,
        tree: Optional[TimingTree] = None,
    ):
        if isinstance(plan, RankGhostPlan):
            plan = coalesce_plan(plan, fields)
        self.plan: CoalescedPlan = plan
        self.fields = fields
        self.comm = comm
        self.tree = tree
        # Persistent send buffers: allocated once, reused every step.
        self._send_bufs: Dict[int, np.ndarray] = {
            msg.peer: np.empty(msg.elements, dtype=np.float64)
            for msg in plan.sends
        }
        self._recv_channels = [(msg.peer, BULK_TAG) for msg in plan.recvs]
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
        the module's buffer-reuse contract).
        """
        t0 = time.perf_counter()
        sent = 0
        self._requests = []
        for msg in self.plan.sends:
            buf = self._send_bufs[msg.peer]
            for seg in msg.segments:
                np.copyto(
                    buf[seg.start:seg.stop].reshape(seg.shape),
                    self.fields[seg.block_id].src[seg.slices],
                )
            sent += msg.nbytes
            self._requests.append(
                self.comm.isend(buf, dest=msg.peer, tag=BULK_TAG)
            )
        self._record("pack", time.perf_counter() - t0)
        self._count("comm.messages_coalesced", len(self.plan.sends))
        self._count("comm.coalesced_bytes", sent)
        self._count("comm.remote_bytes", sent)
        t0 = time.perf_counter()
        fields = self.fields
        for block_id, ghost_sl, src_id, src_sl in self.plan.local_copies:
            fields[block_id].src[ghost_sl] = fields[src_id].src[src_sl]
        self._record("local copy", time.perf_counter() - t0)

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
            if flat.size != msg.elements:
                raise CommunicationError(
                    f"bulk message from rank {msg.peer}: got {flat.size} "
                    f"elements, expected {msg.elements}"
                )
            flat = flat.reshape(-1)
            for seg in msg.segments:
                self.fields[seg.block_id].src[seg.slices] = flat[
                    seg.start:seg.stop
                ].reshape(seg.shape)
            unpack += time.perf_counter() - t0
            t0 = time.perf_counter()
        for req in self._requests:
            req.wait()
        self._requests = []
        self._record("wire", wire)
        self._record("unpack", unpack)

    def exchange(self) -> None:
        """One full bulk exchange: ``start`` + ``finish``."""
        self.start()
        self.finish()


class CoalescedGhostExchange:
    """In-process bulk exchange for the direct-copy simulation driver.

    Remote copy specs (those crossing virtual-process boundaries) are
    grouped by ordered rank pair and staged through one persistent
    buffer per pair — the shared-address-space twin of
    :class:`BufferSystem`, byte-accounted in the same
    :class:`~repro.comm.ghostlayer.CommStats` ledger the per-face
    :class:`~repro.comm.ghostlayer.GhostExchange` fills, so the
    performance models can consume either mode unchanged.

    ``start()`` packs and performs the local copies; ``finish()``
    unpacks.  ``exchange()`` fuses both for the non-overlapping
    ``comm_mode="coalesced"``.
    """

    def __init__(
        self,
        fields: Dict[object, object],
        specs: Sequence[CopySpec],
        block_rank: Dict[object, int],
        tree: Optional[TimingTree] = None,
    ):
        if not fields:
            raise CommunicationError("no fields to exchange")
        self.fields = fields
        self.tree = tree
        self.stats = CommStats()
        self._local_ops: List[Tuple[object, tuple, object, tuple]] = []
        by_pair: Dict[Tuple[int, int], List[Tuple[int, CopySpec]]] = {}
        for s in specs:
            if s.dst_key not in fields or s.src_key not in fields:
                raise CommunicationError(
                    f"copy spec references unknown block: {s}"
                )
            dst_sl = (slice(None),) + ghost_slices(s.offset)
            src_sl = (slice(None),) + send_slices(
                tuple(-o for o in s.offset)
            )
            if not s.remote:
                self._local_ops.append((s.dst_key, dst_sl, s.src_key, src_sl))
                continue
            pair = (block_rank[s.src_key], block_rank[s.dst_key])
            tag = message_tag(getattr(s.dst_key, "root_index", 0), s.offset)
            by_pair.setdefault(pair, []).append((tag, s))
        # One persistent buffer + segment table per ordered rank pair.
        self._pair_msgs: List[Tuple[Tuple[int, int], np.ndarray, list]] = []
        for pair in sorted(by_pair):
            segs = []
            offset = 0
            for tag, s in sorted(by_pair[pair], key=lambda e: e[0]):
                dst_sl = (slice(None),) + ghost_slices(s.offset)
                src_sl = (slice(None),) + send_slices(
                    tuple(-o for o in s.offset)
                )
                shape = _region_shape(fields[s.src_key].src.shape, src_sl)
                n = int(np.prod(shape))
                segs.append(
                    (s.src_key, src_sl, s.dst_key, dst_sl, shape,
                     offset, offset + n)
                )
                offset += n
            buf = np.empty(offset, dtype=np.float64)
            self._pair_msgs.append((pair, buf, segs))

    @property
    def messages_per_step(self) -> int:
        """Coalesced messages per exchange: one per ordered rank pair."""
        return len(self._pair_msgs)

    def _record(self, name: str, seconds: float) -> None:
        if self.tree is not None:
            self.tree.record(name, seconds)

    def _count(self, name: str, value: float) -> None:
        if self.tree is not None:
            self.tree.add_counter(name, value)

    def start(self) -> None:
        """Pack every rank pair's buffer and run the local copies."""
        t0 = time.perf_counter()
        remote_bytes = 0
        fields = self.fields
        for _pair, buf, segs in self._pair_msgs:
            for src_key, src_sl, _dst, _dst_sl, shape, start, stop in segs:
                np.copyto(
                    buf[start:stop].reshape(shape), fields[src_key].src[src_sl]
                )
            remote_bytes += buf.nbytes
        self._record("pack", time.perf_counter() - t0)
        t0 = time.perf_counter()
        local_bytes = 0
        for dst_key, dst_sl, src_key, src_sl in self._local_ops:
            region = fields[src_key].src[src_sl]
            fields[dst_key].src[dst_sl] = region
            local_bytes += region.nbytes
        self._record("local copy", time.perf_counter() - t0)
        self.stats.remote_bytes += remote_bytes
        self.stats.local_bytes += local_bytes
        self.stats.remote_messages += len(self._pair_msgs)
        self.stats.local_messages += len(self._local_ops)
        self._count("comm.messages_coalesced", len(self._pair_msgs))
        self._count("comm.coalesced_bytes", remote_bytes)
        self._count("comm.remote_bytes", remote_bytes)
        self._count("comm.local_bytes", local_bytes)

    def finish(self) -> None:
        """Unpack every rank pair's buffer into the ghost regions."""
        t0 = time.perf_counter()
        fields = self.fields
        for _pair, buf, segs in self._pair_msgs:
            for _src, _src_sl, dst_key, dst_sl, shape, start, stop in segs:
                fields[dst_key].src[dst_sl] = buf[start:stop].reshape(shape)
        self._record("unpack", time.perf_counter() - t0)

    def exchange(self) -> None:
        """One full staged exchange (pack + local copies + unpack)."""
        self.start()
        self.finish()
