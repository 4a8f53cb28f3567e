"""Ghost-layer exchange between blocks (§2.2).

"The regular grid within each block is extended by one additional ghost
layer of cells which is used in every time step during communication in
order to synchronize the cell data on the boundary between neighboring
blocks."

The exchange is expressed as a precomputed list of copy operations
(block face/edge/corner regions), executed as direct NumPy copies —
all virtual processes share one address space — while a
:class:`CommStats` ledger records how many bytes crossed process
boundaries, feeding the communication-time models in :mod:`repro.perf`.
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
    "CopySpec",
    "CommStats",
    "GhostExchange",
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
    pending = list(range(len(channels)))
    while pending:
        if len(pending) == 1:
            k = 0
        else:
            try:
                k = comm.probe_any(
                    [channels[i] for i in pending], timeout=probe_timeout
                )
            except RecvTimeoutError:
                # Nothing arrived: fall back to plan order; a resilient
                # channel then recovers via its retransmission ledger.
                k = 0
        i = pending.pop(k)
        source, tag = channels[i]
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


def build_rank_plan(view, rank: int) -> RankGhostPlan:
    """Build the send/recv/local-copy plan for one rank's block view.

    For every neighbor ``n`` of a local block at offset ``off``, the
    block's ghost region on side ``off`` is fed by the neighbor's
    interior face toward us (its send region for direction ``-off``);
    symmetrically the neighbor needs our face toward it, tagged from its
    perspective (we sit at offset ``-off``).
    """
    sends: List[Tuple[int, int, object, tuple]] = []
    recvs: List[Tuple[int, int, object, tuple]] = []
    local_copies: List[Tuple[object, tuple, object, tuple]] = []
    for blk in view.blocks:
        for n in blk.neighbors:
            off = n.offset
            ghost_sl = (slice(None),) + ghost_slices(off)
            src_sl = (slice(None),) + send_slices(tuple(-o for o in off))
            if n.owner == rank:
                local_copies.append((blk.id, ghost_sl, n.id, src_sl))
            else:
                recvs.append(
                    (n.owner, message_tag(blk.id.root_index, off), blk.id, ghost_sl)
                )
                my_send_sl = (slice(None),) + send_slices(off)
                sends.append(
                    (
                        n.owner,
                        message_tag(n.id.root_index, tuple(-o for o in off)),
                        blk.id,
                        my_send_sl,
                    )
                )
    return RankGhostPlan(tuple(sends), tuple(recvs), tuple(local_copies))


class SpmdGhostExchange:
    """Executes a :class:`RankGhostPlan` by explicit message passing.

    ``comm`` may be a plain :class:`~repro.comm.vmpi.Comm` or a
    :class:`~repro.comm.vmpi.ReliableComm`; with the latter, every
    message carries a sequence number, duplicates are discarded, and
    dropped or delayed messages are recovered by timeout/retransmit with
    backoff — the exchange result is then bit-identical under any
    non-crash fault schedule.  ``fields`` maps block id to an object
    with a ``src`` grid (a :class:`~repro.core.field.PdfField` works).

    Each call fires all sends, performs the same-rank direct copies,
    then drains the expected receives; with ``tree`` set the three
    stages are timed as ``pack+send`` / ``local copy`` / ``recv+unpack``
    sub-scopes under the caller's ``communication`` sweep, and the bytes
    sent to other ranks accumulate in ``comm.remote_bytes``.
    """

    def __init__(
        self,
        plan: RankGhostPlan,
        fields: Dict[object, "PdfField"],
        comm,
        tree: Optional[TimingTree] = None,
    ):
        for _, _, block_id, _ in plan.sends + plan.recvs:
            if block_id not in fields:
                raise CommunicationError(
                    f"ghost plan references unknown block {block_id}"
                )
        self.plan = plan
        self.fields = fields
        self.comm = comm
        self.tree = tree

    def _scope(self, name: str):
        return self.tree.scoped(name) if self.tree is not None else nullcontext()

    def exchange(self) -> None:
        """Run one full ghost exchange.

        Sends are posted non-blocking (``isend``); receives are drained
        in *arrival order* via :func:`drain_arrival_order`, so one
        delayed peer no longer serializes the unpacking of every message
        behind it in the plan.
        """
        plan = self.plan
        fields = self.fields
        comm = self.comm
        sent_bytes = 0
        requests = []
        with self._scope("pack+send"):
            for dest, tag, block_id, sl in plan.sends:
                payload = np.ascontiguousarray(fields[block_id].src[sl])
                sent_bytes += payload.nbytes
                requests.append(comm.isend(payload, dest=dest, tag=tag))
        with self._scope("local copy"):
            for block_id, ghost_sl, src_id, src_sl in plan.local_copies:
                fields[block_id].src[ghost_sl] = fields[src_id].src[src_sl]
        with self._scope("recv+unpack"):
            channels = [(source, tag) for source, tag, _, _ in plan.recvs]
            probe_timeout = getattr(comm, "retry_timeout", None)
            for i, data in drain_arrival_order(comm, channels, probe_timeout):
                _source, _tag, block_id, ghost_sl = plan.recvs[i]
                region = fields[block_id].src[ghost_sl]
                if data.shape != region.shape:
                    raise CommunicationError(
                        f"ghost region shape mismatch: got {data.shape}, "
                        f"expected {region.shape}"
                    )
                region[...] = data
            for req in requests:
                req.wait()
        if self.tree is not None:
            self.tree.add_counter("comm.remote_bytes", sent_bytes)


@dataclass(frozen=True)
class CopySpec:
    """One ghost-region update: ``dst`` pulls from ``src``.

    ``offset`` points from the destination block toward the source
    block; ``remote`` marks copies between different virtual processes
    (real MPI messages on a cluster).
    """

    dst_key: object
    src_key: object
    offset: Tuple[int, int, int]
    remote: bool


@dataclass
class CommStats:
    """Per-step communication ledger."""

    local_bytes: int = 0
    remote_bytes: int = 0
    local_messages: int = 0
    remote_messages: int = 0

    def reset(self) -> None:
        self.local_bytes = 0
        self.remote_bytes = 0
        self.local_messages = 0
        self.remote_messages = 0

    @property
    def total_bytes(self) -> int:
        return self.local_bytes + self.remote_bytes


class GhostExchange:
    """Executes a fixed set of ghost-layer copies between block PDF fields.

    Parameters
    ----------
    fields:
        Mapping block key -> :class:`~repro.core.field.PdfField`.  The
        exchange always reads and writes the fields' *current* ``src``
        grids, so the src/dst swap at the end of each time step needs no
        rebinding.  All fields must have identical shape (uniform blocks,
        as in every simulation of the paper).
    specs:
        The copy operations; build them once from the block forest.
    pdf_filter:
        When set to a lattice model, only the PDF directions a block can
        actually pull from each ghost region are copied (5/19 per face,
        1/19 per edge, 0/19 per corner for D3Q19) — an optimization the
        paper's scheme does *not* apply; exposed here as an ablation.
    tree:
        Optional :class:`~repro.perf.timing.TimingTree`.  When set, the
        ``pack`` / ``send/recv`` / ``unpack`` stages of the remote copies
        (staged through contiguous buffers, exactly the structure of an
        MPI ghost exchange) and the ``local copy`` stage are timed as
        sub-scopes of the caller's ``communication`` sweep, and byte
        totals feed the ``comm.*_bytes`` counters.
    """

    def __init__(
        self,
        fields: Dict[object, PdfField],
        specs: List[CopySpec],
        pdf_filter: Optional[LatticeModel] = None,
        tree: Optional[TimingTree] = None,
    ):
        if not fields:
            raise CommunicationError("no fields to exchange")
        shapes = {f.src.shape for f in fields.values()}
        if len(shapes) != 1:
            raise CommunicationError(f"non-uniform block shapes: {shapes}")
        for s in specs:
            if s.dst_key not in fields or s.src_key not in fields:
                raise CommunicationError(f"copy spec references unknown block: {s}")
        self.fields = fields
        self.specs = specs
        self.pdf_filter = pdf_filter
        self.tree = tree
        self.stats = CommStats()
        # Precompute slice tuples (prepend the PDF-direction axis).
        self._ops = []
        for s in specs:
            if pdf_filter is None:
                dirs: object = slice(None)
            else:
                needed = needed_directions(pdf_filter, s.offset)
                if not needed:
                    continue  # e.g. D3Q19 corners carry no pulled PDFs
                dirs = np.asarray(needed, dtype=np.int64)
            dst_sl = (dirs,) + ghost_slices(s.offset)
            src_sl = (dirs,) + send_slices(tuple(-o for o in s.offset))
            self._ops.append((s, dst_sl, src_sl))

    def _scope(self, name: str):
        return self.tree.scoped(name) if self.tree is not None else nullcontext()

    def exchange(self) -> None:
        """Run all copies once (call at the start of every time step).

        Remote copies go through contiguous staging buffers (the MPI
        message an exchange on a cluster would post); local copies stay
        direct.  Reads touch only interior send regions and writes only
        ghost regions, so staging cannot change the result.
        """
        local_bytes = 0
        remote_bytes = 0
        with self._scope("pack"):
            staged = []
            for s, dst_sl, src_sl in self._ops:
                if s.remote:
                    buf = np.ascontiguousarray(self.fields[s.src_key].src[src_sl])
                    staged.append((s, dst_sl, buf))
        with self._scope("local copy"):
            for s, dst_sl, src_sl in self._ops:
                if not s.remote:
                    region = self.fields[s.src_key].src[src_sl]
                    self.fields[s.dst_key].src[dst_sl] = region
                    local_bytes += region.nbytes
                    self.stats.local_messages += 1
        with self._scope("send/recv"):
            # One shared address space: the "wire" transfer is the buffer
            # handoff itself; the ledger still counts it as a message.
            for s, _dst_sl, buf in staged:
                remote_bytes += buf.nbytes
                self.stats.remote_messages += 1
        with self._scope("unpack"):
            for s, dst_sl, buf in staged:
                self.fields[s.dst_key].src[dst_sl] = buf
        self.stats.local_bytes += local_bytes
        self.stats.remote_bytes += remote_bytes
        if self.tree is not None:
            self.tree.add_counter("comm.local_bytes", local_bytes)
            self.tree.add_counter("comm.remote_bytes", remote_bytes)
