"""Ghost-layer exchange between blocks (§2.2).

"The regular grid within each block is extended by one additional ghost
layer of cells which is used in every time step during communication in
order to synchronize the cell data on the boundary between neighboring
blocks."

One plan, two executors.  :func:`build_rank_plan` turns one rank's
block view into a :class:`RankGhostPlan`: the face/edge/corner regions
it sends to and receives from each neighbor rank, and the direct copies
between its own blocks.  Two executors run such a plan by message
passing: :class:`SpmdGhostExchange` sends one message per (block, side),
and :class:`~repro.comm.buffersystem.BufferSystem` packs everything
bound for one peer rank into one message.  Both drivers use them — the
SPMD rank program on one thread per rank, and
:class:`~repro.comm.distributed.DistributedSimulation` on in-process
ranks driven from one thread.  Every executor offers ``start()`` (pack,
post sends, local copies), ``finish()`` (drain and unpack) and
``exchange()`` (both) and ``resync()`` (copy every cell in the next
exchanges, after the fields were rewritten between steps), and keeps a
:class:`CommStats` ledger of the
bytes and messages moved within and between ranks, feeding the
communication-time models in :mod:`repro.perf`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.field import PdfField
from ..errors import CommunicationError, RecvTimeoutError
from ..lbm.lattice import LatticeModel
from ..perf.timing import TimingTree

__all__ = [
    "ghost_slices",
    "send_slices",
    "needed_directions",
    "offset_code",
    "message_tag",
    "CommStats",
    "RankGhostPlan",
    "build_rank_plan",
    "SpmdGhostExchange",
    "drain_arrival_order",
]


def drain_arrival_order(comm, channels, probe_timeout: Optional[float] = None):
    """Receive one message per ``(source, tag)`` channel, yielding
    ``(channel_index, payload)`` in the order messages actually *arrive*
    rather than the order channels are listed.

    A fixed-order drain blocks on the first listed channel even when
    every other expected message is already waiting — head-of-line
    blocking that PR 2's delay faults turn into serialized timeout
    rounds.  This helper probes all outstanding channels at once
    (:meth:`~repro.comm.vmpi.Comm.probe_any`) and consumes whichever is
    ready first.  When nothing arrives within ``probe_timeout`` it falls
    back to a blocking receive on the first outstanding channel, which
    on a :class:`~repro.comm.vmpi.ReliableComm` triggers the
    timeout/ledger-retransmit recovery path.

    Ghost-region unpacks commute (each (block, side) region has exactly
    one writer and regions are disjoint), so consuming in arrival order
    is bit-identical to plan order — asserted by the chaos reorder tests.
    """
    # List displays, not ``list()``: only they reuse CPython's free
    # list, which keeps the steady-state exchange allocation-free.
    pending = [*range(len(channels))]
    outstanding = [*channels]
    while pending:
        k = 0
        if len(pending) > 1:
            try:
                k = comm.probe_any(outstanding, timeout=probe_timeout)
            except RecvTimeoutError:
                # Nothing arrived: fall back to plan order; a resilient
                # channel then recovers via its retransmission ledger.
                k = 0
        i = pending.pop(k)
        source, tag = outstanding.pop(k)
        yield i, comm.recv(source, tag)


def needed_directions(
    model: LatticeModel, offset: Tuple[int, int, int]
) -> List[int]:
    """PDF directions a block actually pulls from its ghost region at
    ``offset``.

    A ghost cell on side ``offset`` is read by an interior cell pulling
    direction ``a`` only if ``e_a`` points from the ghost cell into the
    interior, i.e. ``e_a[c] == -offset[c]`` on every axis where the
    offset is nonzero.  For D3Q19 a face needs 5 of 19 PDFs, an edge 1,
    and a corner none (no (±1,±1,±1) velocities) — the basis of the
    direction-filtered communication ablation.  The paper's production
    scheme sends all 19 values ("the amount of data communicated between
    neighboring blocks is the same as for densely populated blocks").
    """
    out = []
    for a in range(model.q):
        e = model.velocities[a]
        if all(int(e[c]) == -int(offset[c]) for c in range(model.dim) if offset[c]):
            if any(offset):
                out.append(a)
    return out


def send_slices(offset: Tuple[int, int, int]) -> Tuple[slice, ...]:
    """Interior region a block sends toward neighbor ``offset``."""
    out = []
    for o in offset:
        if o > 0:
            out.append(slice(-2, -1))
        elif o < 0:
            out.append(slice(1, 2))
        else:
            out.append(slice(1, -1))
    return tuple(out)


def ghost_slices(offset: Tuple[int, int, int]) -> Tuple[slice, ...]:
    """Ghost region a block receives from neighbor ``offset``."""
    out = []
    for o in offset:
        if o > 0:
            out.append(slice(-1, None))
        elif o < 0:
            out.append(slice(0, 1))
        else:
            out.append(slice(1, -1))
    return tuple(out)


def offset_code(offset: Tuple[int, int, int]) -> int:
    """0..26 code of a neighbor offset (used in message tags)."""
    return (offset[0] + 1) * 9 + (offset[1] + 1) * 3 + (offset[2] + 1)


def message_tag(dst_root_index: int, offset: Tuple[int, int, int]) -> int:
    """Message tag for a ghost-region update: which destination block's
    ghost region is refreshed, and from which side."""
    return dst_root_index * 27 + offset_code(offset)


@dataclass
class CommStats:
    """Communication ledger: bytes and messages moved within a rank
    (local) and between ranks (remote), summed over exchanges."""

    local_bytes: int = 0
    remote_bytes: int = 0
    local_messages: int = 0
    remote_messages: int = 0

    @property
    def total_bytes(self) -> int:
        return self.local_bytes + self.remote_bytes

    def add(
        self,
        local_messages: int,
        local_bytes: int,
        remote_messages: int,
        remote_bytes: int,
        tree: Optional[TimingTree] = None,
    ) -> None:
        """Account one exchange's traffic; with ``tree`` set the byte
        totals also feed the ``comm.local_bytes`` / ``comm.remote_bytes``
        counters."""
        self.local_messages += local_messages
        self.local_bytes += local_bytes
        self.remote_messages += remote_messages
        self.remote_bytes += remote_bytes
        if tree is not None:
            tree.add_counter("comm.local_bytes", local_bytes)
            tree.add_counter("comm.remote_bytes", remote_bytes)


@dataclass(frozen=True)
class RankGhostPlan:
    """One rank's precomputed ghost-exchange communication plan.

    ``sends``/``recvs`` entries are ``(peer_rank, tag, block_id,
    slices)``; ``local_copies`` entries are ``(dst_block_id, ghost_sl,
    src_block_id, src_sl)`` for neighbor pairs owned by the same rank.
    The plan is fixed for the lifetime of the run — only payloads move.
    """

    sends: Tuple[Tuple[int, int, object, tuple], ...]
    recvs: Tuple[Tuple[int, int, object, tuple], ...]
    local_copies: Tuple[Tuple[object, tuple, object, tuple], ...]


def build_rank_plan(
    view, rank: int, pdf_filter: Optional[LatticeModel] = None
) -> RankGhostPlan:
    """Build the send/recv/local-copy plan for one rank's block view.

    For every neighbor ``n`` of a local block at offset ``off``, the
    block's ghost region on side ``off`` is fed by the neighbor's
    interior face toward us (its send region for direction ``-off``);
    symmetrically the neighbor needs our face toward it, tagged from its
    perspective (we sit at offset ``-off``).

    ``pdf_filter`` (a lattice model) restricts every region to the PDF
    directions the receiving block pulls from it
    (:func:`needed_directions`: 5/19 per face, 1/19 per edge for
    D3Q19); regions that need none, such as D3Q19 corners, are dropped.
    The paper's scheme sends full ghost layers; the filter is an
    ablation.  A filtered region's first index is an integer array, so
    ``src[sl]`` is a copy: executors write it with ``src[sl] = data``.
    """

    def dirs(off):
        if pdf_filter is None:
            return slice(None)
        needed = needed_directions(pdf_filter, off)
        return np.asarray(needed, dtype=np.int64) if needed else None

    sends: List[Tuple[int, int, object, tuple]] = []
    recvs: List[Tuple[int, int, object, tuple]] = []
    local_copies: List[Tuple[object, tuple, object, tuple]] = []
    for blk in view.blocks:
        for n in blk.neighbors:
            off = n.offset
            back = tuple(-o for o in off)
            d = dirs(off)
            if d is None:  # nothing crosses this boundary in either direction
                continue
            ghost_sl = (d,) + ghost_slices(off)
            if n.owner == rank:
                local_copies.append(
                    (blk.id, ghost_sl, n.id, (d,) + send_slices(back))
                )
                continue
            recvs.append(
                (n.owner, message_tag(blk.id.root_index, off), blk.id, ghost_sl)
            )
            sends.append(
                (
                    n.owner,
                    message_tag(n.id.root_index, back),
                    blk.id,
                    (dirs(back),) + send_slices(off),
                )
            )
    return RankGhostPlan(tuple(sends), tuple(recvs), tuple(local_copies))


def _check_plan_blocks(plan: RankGhostPlan, fields) -> None:
    """Raise :class:`~repro.errors.CommunicationError` if ``plan`` names
    a block missing from ``fields``."""
    ids = [entry[2] for entry in plan.sends + plan.recvs]
    for dst, _, src, _ in plan.local_copies:
        ids += (dst, src)
    for block_id in ids:
        if block_id not in fields:
            raise CommunicationError(
                f"ghost plan references unknown block {block_id}"
            )


def _check_payload(data, shape: Tuple[int, ...], sender: str) -> None:
    """Raise :class:`~repro.errors.CommunicationError` unless ``data`` is
    a C-contiguous float64 array of ``shape`` — checked before any value
    is written, by every executor and copy path (NumPy would otherwise
    cast a float32 payload silently)."""
    if not (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and data.shape == shape
        and data.flags.c_contiguous
        and data.flags.aligned
    ):
        raise CommunicationError(
            f"{sender}: expected a C-contiguous float64 array of shape "
            f"{shape}, got {getattr(data, 'dtype', type(data).__name__)} "
            f"{getattr(data, 'shape', '')}"
        )


def _local_copy_bytes(plan: RankGhostPlan, fields) -> int:
    """Bytes one exchange copies between blocks of the same rank."""
    return sum(
        fields[src].src[sl].nbytes for _, _, src, sl in plan.local_copies
    )


class SpmdGhostExchange:
    """Executes a :class:`RankGhostPlan` by explicit message passing,
    one message per (block, side).

    ``comm`` may be a plain :class:`~repro.comm.vmpi.Comm` or a
    :class:`~repro.comm.vmpi.ReliableComm`; with the latter, every
    message carries a sequence number, duplicates are discarded, and
    dropped or delayed messages are recovered by timeout/retransmit with
    backoff — the exchange result is then bit-identical under any
    non-crash fault schedule.  ``fields`` maps block id to an object
    with a ``src`` grid (a :class:`~repro.core.field.PdfField` works).

    :meth:`start` posts all sends and performs the same-rank direct
    copies; :meth:`finish` drains the expected receives.  With ``tree``
    set the stages are timed as ``pack+send`` / ``local copy`` /
    ``recv+unpack`` sub-scopes under the caller's sweep, and the bytes
    copied within the rank and sent to other ranks accumulate in
    ``comm.local_bytes`` / ``comm.remote_bytes``.  :attr:`stats` keeps
    the same totals plus message counts.
    """

    def __init__(
        self,
        plan: RankGhostPlan,
        fields: Dict[object, "PdfField"],
        comm,
        tree: Optional[TimingTree] = None,
    ):
        _check_plan_blocks(plan, fields)
        self.plan = plan
        self.fields = fields
        self.comm = comm
        self.tree = tree
        self.stats = CommStats()
        self._channels = [(source, tag) for source, tag, _, _ in plan.recvs]
        self._recv_shapes = [
            fields[block_id].src[sl].shape for _, _, block_id, sl in plan.recvs
        ]
        self._local_bytes = _local_copy_bytes(plan, fields)
        self._requests: list = []

    def _scope(self, name: str):
        return self.tree.scoped(name) if self.tree is not None else nullcontext()

    def start(self) -> None:
        """Post every send (``isend``) and run the same-rank copies."""
        plan = self.plan
        fields = self.fields
        comm = self.comm
        sent_bytes = 0
        with self._scope("pack+send"):
            for dest, tag, block_id, sl in plan.sends:
                payload = np.ascontiguousarray(fields[block_id].src[sl])
                sent_bytes += payload.nbytes
                self._requests.append(comm.isend(payload, dest=dest, tag=tag))
        with self._scope("local copy"):
            for block_id, ghost_sl, src_id, src_sl in plan.local_copies:
                fields[block_id].src[ghost_sl] = fields[src_id].src[src_sl]
        self.stats.add(
            len(plan.local_copies), self._local_bytes,
            len(plan.sends), sent_bytes, self.tree,
        )

    def finish(self) -> None:
        """Drain the receives and unpack them into the ghost regions.

        Receives are consumed in *arrival order* via
        :func:`drain_arrival_order`, so one delayed peer does not
        serialize the unpacking of every message behind it in the plan.
        """
        plan = self.plan
        fields = self.fields
        with self._scope("recv+unpack"):
            probe_timeout = getattr(self.comm, "retry_timeout", None)
            for i, data in drain_arrival_order(
                self.comm, self._channels, probe_timeout
            ):
                source, _tag, block_id, ghost_sl = plan.recvs[i]
                _check_payload(
                    data, self._recv_shapes[i], f"ghost message from rank {source}"
                )
                fields[block_id].src[ghost_sl] = data
            for req in self._requests:
                req.wait()
            self._requests.clear()

    def exchange(self) -> None:
        """One full ghost exchange: :meth:`start` + :meth:`finish`."""
        self.start()
        self.finish()

    def resync(self) -> None:
        """Nothing to do: every exchange copies every cell."""
