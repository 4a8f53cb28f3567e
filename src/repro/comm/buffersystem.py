"""Ghost-layer exchange by message passing: waLBerla's buffer system.

The paper never sends one message per block face: "all data exchanged
between two processes is first packed into a single buffer ... exactly
one message travels per pair of ranks per step" (§2.3).
:class:`BufferSystem` is the one executor of a rank's
:class:`~repro.comm.ghostlayer.RankGhostPlan`.  Every (block, side)
payload is packed, at a precomputed element offset, into a
**persistent preallocated** send buffer, and :func:`coalesce_plan`
groups the payloads into messages by ``comm_mode``:

* ``"per-face"`` — one message per (block, side), on its per-face
  message tag: the baseline the paper's scheme improves on;
* ``"coalesced"`` and ``"overlap"`` — exactly one message per peer rank
  per step, on :data:`BULK_TAG`.

Receives are drained in arrival order and unpacked straight from the
incoming payload into the ghost regions — there is no receive buffer,
and the steady-state exchange performs zero heap allocations of
field-sized temporaries in every mode, mirroring the allocation-free
ethos of :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`.
:class:`~repro.comm.distributed.DistributedSimulation` runs one per
rank, on in-process ranks or, on an SPMD rank, for that rank alone.
Every mode moves the same bytes and gives the same bits; only the
message count differs.

Direction filter
----------------
By default (:func:`make_exchange`) a payload carries only the PDF
planes the receiving block's stream step pulls from that ghost region
(:func:`~repro.comm.ghostlayer.needed_directions`): 5 of 19 on a face,
1 on an edge, none on a corner, whose segments are dropped — the
stencil-derived pack infos of waLBerla's generated code.  The full
ghost layers of the paper (``filtered_communication=False`` of
:class:`~repro.comm.distributed.DistributedSimulation`) are the
baseline; both give bit-identical interiors.  A filtered segment lists
its planes; the NumPy copies move them one plane at a time through
basic slices, so they stay allocation-free, and the compiled copy
walks the plane list.

Layout determinism
------------------
Sender and receiver never exchange the layout — both derive it
independently from their (identical) rank plans: messages are ordered
by ``(peer, tag)`` and the segments within a message by the per-face
message tag (:func:`~repro.comm.ghostlayer.message_tag`), which both
sides compute to the same value for the same (destination block,
side).  This is the same trick waLBerla uses to keep its buffer system
header-free.

Sparse-aware compiled copy
--------------------------
Where the compiled tier builds
(:func:`~repro.lbm.kernels.compiled.ghost_copy_loop`), pack, the
same-rank copies and unpack run in C: one call per rank to pack, one
for the same-rank copies and one per received message to unpack.  The
copy leaves out every cell the *sending* block flags OUTSIDE: no kernel
and no boundary writes those cells after set-up, so their ghost copies
cannot change.  Only the sender's interior flags decide — a receiver's
ghost flags can differ from them (a ``flag_setter`` leaves interface
ghost flags at OUTSIDE, and voxelization may flag a ghost cell OUTSIDE
where the sender has a wall).  Pack and the same-rank copies read the
source block's own flags; unpack uses the sender's, which the first
exchange carries in one extra message per peer on :data:`MASK_TAG`:
the masks of every segment sent to that peer, in tag order, which is
the same under both groupings.  A segment's cells sit in the mask at
its own offset, since segments carry different numbers of planes.  The
first two exchanges, one per grid of the two-grid scheme, copy every
cell (through tables without masks), so the ghost copies of OUTSIDE
cells hold whatever values the fields were given before stepping.  Leaving cells out does not change a
message's size or layout; only the memory traffic inside a rank
shrinks.  Without a compiler every exchange runs the NumPy copies, with
the same bits.

Timing scopes and counters: ``pack`` / ``local copy`` / ``wire`` /
``unpack`` sub-scopes under the caller's communication sweep, plus the
:class:`~repro.comm.ghostlayer.CommStats` ledger's
``comm.remote_messages``, ``comm.remote_bytes`` and
``comm.local_bytes`` counters.  The one-time mask messages are set-up
traffic: they are timed under ``pack`` and ``unpack`` but not counted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .. import flagdefs as fl
from ..errors import CommunicationError, ConfigurationError, RecvTimeoutError
from ..lbm.kernels import compiled
from ..perf.timing import TimingTree
from .ghostlayer import CommStats, RankGhostPlan, build_rank_plan

__all__ = [
    "BULK_TAG",
    "BufferSegment",
    "PeerMessage",
    "CoalescedPlan",
    "coalesce_plan",
    "BufferSystem",
    "COMM_MODES",
    "check_comm_mode",
    "drain_arrival_order",
    "make_exchange",
]

#: The single tag used by coalesced per-rank-pair messages.  Negative so
#: it can never collide with a per-face tag (``root_index * 27 + code``,
#: always >= 0).
BULK_TAG = -1

#: Tag of the one-time message, per peer, that carries the sender's copy
#: masks (see the module docstring).  Negative, like :data:`BULK_TAG`.
MASK_TAG = -2

#: Exchanges that copy every cell before the copy leaves out OUTSIDE
#: cells: one per grid of the two-grid scheme.
FULL_EXCHANGES = 2

#: Valid ``comm_mode`` values accepted by the multi-block driver.
COMM_MODES = ("per-face", "coalesced", "overlap")


def drain_arrival_order(comm, channels, probe_timeout: Optional[float] = None):
    """Receive one message per ``(source, tag)`` channel, yielding
    ``(channel_index, payload)`` in the order messages actually *arrive*
    rather than the order channels are listed.

    A fixed-order drain blocks on the first listed channel even when
    every other expected message is already waiting — head-of-line
    blocking that delay faults turn into serialized timeout rounds.
    This helper probes all outstanding channels at once
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


def _check_payload(data, shape: Tuple[int, ...], sender: str) -> None:
    """Raise :class:`~repro.errors.CommunicationError` unless ``data`` is
    a C-contiguous float64 array of ``shape`` — checked before any value
    is written (NumPy would otherwise cast a float32 payload silently)."""
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


@dataclass(frozen=True)
class BufferSegment:
    """One (block, side) payload's position inside a message buffer.

    ``start``/``stop`` are *element* offsets into the flat message
    buffer; ``tag`` is the payload's per-face message tag, ``slices``
    indexes the block's padded PDF field and ``shape`` is the region's
    shape (pack reshapes the flat span to it).
    """

    tag: int
    block_id: object
    slices: tuple
    shape: Tuple[int, ...]
    start: int
    stop: int


@dataclass(frozen=True)
class PeerMessage:
    """The segments exchanged with one peer rank as one message on
    ``tag``: a segment's per-face tag under ``"per-face"`` grouping,
    :data:`BULK_TAG` otherwise."""

    peer: int
    tag: int
    segments: Tuple[BufferSegment, ...]
    elements: int

    @property
    def nbytes(self) -> int:
        """Payload size of the message (float64 elements)."""
        return self.elements * 8


@dataclass(frozen=True)
class CoalescedPlan:
    """A rank's message plan: its per-face
    :class:`~repro.comm.ghostlayer.RankGhostPlan` grouped into messages
    by :func:`coalesce_plan`; fixed for the lifetime of the run.
    ``sends`` and ``recvs`` are sorted by ``(peer, tag)``.
    """

    sends: Tuple[PeerMessage, ...]
    recvs: Tuple[PeerMessage, ...]
    local_copies: Tuple[Tuple[object, tuple, object, tuple], ...]

    @property
    def messages_per_step(self) -> int:
        """Outgoing messages per exchange: one per peer, or one per
        (block, side) under ``"per-face"`` grouping."""
        return len(self.sends)


def _group(entries, fields, per_face: bool) -> Tuple[PeerMessage, ...]:
    """Group per-face plan entries into messages.

    ``entries`` are ``(peer, tag, block_id, slices)``.  Under
    ``per_face`` each ``(peer, tag)`` is its own message, otherwise each
    peer gets one :data:`BULK_TAG` message; segments within a message
    are laid out in ascending tag order, which both sides of a channel
    compute identically (see module docstring).
    """
    groups: Dict[Tuple[int, int], List[Tuple[int, object, tuple]]] = {}
    for peer, tag, block_id, sl in entries:
        key = (peer, tag if per_face else BULK_TAG)
        groups.setdefault(key, []).append((tag, block_id, sl))
    messages = []
    for peer, msg_tag in sorted(groups):
        segs = []
        offset = 0
        for tag, block_id, sl in sorted(groups[peer, msg_tag], key=lambda e: e[0]):
            planes, _, cells = _region(fields[block_id].src.shape, sl)
            shape = (len(planes),) + cells
            n = math.prod(shape)
            segs.append(
                BufferSegment(tag, block_id, sl, shape, offset, offset + n)
            )
            offset += n
        messages.append(PeerMessage(peer, msg_tag, tuple(segs), offset))
    return tuple(messages)


def coalesce_plan(
    plan: RankGhostPlan, fields, comm_mode: str = "coalesced"
) -> CoalescedPlan:
    """Group a per-face rank plan into the messages of ``comm_mode``:
    one per (block, side) for ``"per-face"``, one per peer rank for
    ``"coalesced"`` and ``"overlap"``.

    ``fields`` maps block id to an object with a ``src`` grid, used only
    to size segments (shapes are fixed for the run).  Send and receive
    layouts agree across ranks because both sort by the shared per-face
    message tag.  Raises :class:`~repro.errors.CommunicationError` if
    ``plan`` names a block missing from ``fields``, and
    :class:`~repro.errors.ConfigurationError` as :func:`check_comm_mode`
    does.
    """
    check_comm_mode(comm_mode)
    ids = [entry[2] for entry in plan.sends + plan.recvs]
    for dst, _, src, _ in plan.local_copies:
        ids += (dst, src)
    for block_id in ids:
        if block_id not in fields:
            raise CommunicationError(
                f"ghost plan references unknown block {block_id}"
            )
    per_face = comm_mode == "per-face"
    return CoalescedPlan(
        sends=_group(plan.sends, fields, per_face),
        recvs=_group(plan.recvs, fields, per_face),
        local_copies=plan.local_copies,
    )


def _mask_layout(messages) -> Tuple[Dict[int, int], List[Tuple[int, ...]]]:
    """Where each segment's cells sit in its peer's one mask message:
    ``(cells per peer, per message the first cell of each segment)``.
    A peer's mask holds its messages' segments in ``(peer, tag)`` order,
    one byte per cell.  Segments are placed by their own cell counts,
    because a filtered message mixes faces (5 planes) and edges (1)."""
    cells: Dict[int, int] = {}
    firsts = []
    for msg in messages:
        at = cells.get(msg.peer, 0)
        starts = []
        for seg in msg.segments:
            starts.append(at)
            at += math.prod(seg.shape[1:])
        firsts.append(tuple(starts))
        cells[msg.peer] = at
    return cells, firsts


@lru_cache(maxsize=None)
def _c_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Element strides of a C-contiguous array of ``shape``."""
    strides = [1] * len(shape)
    for a in range(len(shape) - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    return tuple(strides)


_REGIONS: Dict[tuple, tuple] = {}


def _region(arr_shape: Tuple[int, ...], slices: tuple):
    """``(planes, strides, shape)`` of ``slices`` (unit steps) in a
    C-contiguous array of ``arr_shape``, in elements: the offset of the
    region's first cell in each PDF plane ``slices[0]`` selects, and the
    strides and shape of its ``(x, y, z)`` box.  Ghost plans use a few
    dozen distinct regions, so results are kept (read-only)."""
    index, sx, sy, sz = slices
    key = (
        arr_shape, sx.start, sx.stop, sy.start, sy.stop, sz.start, sz.stop,
        (index.start, index.stop, index.step) if isinstance(index, slice)
        else index.tobytes(),
    )
    hit = _REGIONS.get(key)
    if hit is None:
        strides = _c_strides(arr_shape)
        base = 0
        shape = []
        for a, sl in enumerate((sx, sy, sz), start=1):
            start, stop, _ = sl.indices(arr_shape[a])
            base += start * strides[a]
            shape.append(stop - start)
        planes = base + np.arange(arr_shape[0], dtype=np.int64)[index] * strides[0]
        planes.flags.writeable = False
        hit = _REGIONS[key] = (planes, strides[1:], tuple(shape))
    return hit


def _flat_region(seg: BufferSegment):
    """``(planes, strides, shape)`` of segment ``seg`` in its message
    buffer, where it lies C-ordered from ``seg.start``."""
    strides = _c_strides(seg.shape)
    planes = np.arange(seg.start, seg.stop, strides[0], dtype=np.int64)
    return planes, strides[1:], seg.shape[1:]


def _box(src_slot: int, src, dst_slot: int, dst, copy) -> compiled.GhostBox:
    """The :class:`~repro.lbm.kernels.compiled.GhostBox` copying region
    ``src`` to region ``dst`` (each as :func:`_region` gives it)."""
    return compiled.GhostBox(src_slot, *src[:2], dst_slot, *dst[:2], src[2], copy)


def _planes(slices: tuple) -> List[tuple]:
    """Basic indices of a region for the NumPy copies: ``slices`` itself
    when its PDF index is a slice, else one per PDF plane of its integer
    index (a direction filter).  An integer-array index copies, and the
    steady-state exchange must not allocate."""
    if isinstance(slices[0], slice):
        return [slices]
    return [(q,) + tuple(slices[1:]) for q in slices[0].tolist()]


def _spans(seg: BufferSegment) -> List[Tuple[tuple, int, int, Tuple[int, ...]]]:
    """``(index, lo, hi, shape)`` per NumPy copy of segment ``seg`` (see
    :func:`_planes`): the block's ``src[index]`` is the message span
    ``lo:hi`` reshaped to ``shape``."""
    shape = seg.shape if isinstance(seg.slices[0], slice) else seg.shape[1:]
    n = math.prod(shape)
    return [
        (sl, seg.start + i * n, seg.start + (i + 1) * n, shape)
        for i, sl in enumerate(_planes(seg.slices))
    ]


def _compiled_copy_applies(fields) -> bool:
    """Whether the compiled ghost copy can run: the loop built, and
    every field is a 4-D float64 C-contiguous grid.  Both ends of a
    channel decide alike, because it depends only on the build and on
    run-wide settings."""
    if compiled.ghost_copy_loop() is None:
        return False
    for field in fields.values():
        src = field.src
        if src.ndim != 4 or src.dtype != np.float64 or not src.flags.c_contiguous:
            return False
    return True


class _CompiledGhostCopy:
    """Tables, pointer slots and masks of one rank's compiled ghost copy.

    Pointer-table slots: the rank's blocks (their current ``src``
    grids), then one send buffer per peer, then the payload being
    unpacked.  Each phase has two tables: ``*_full`` copy every cell
    (the first exchanges), the others leave out OUTSIDE cells.  The
    pack and same-rank tables come from the source blocks' flags at
    construction; the masked unpack tables come from the peers' masks
    (:meth:`set_unpack_masks`) on the first exchange.
    """

    def __init__(self, plan: CoalescedPlan, fields, flags, send_buffers):
        self._fn = compiled.ghost_copy_loop()
        self.blocks = list(fields)
        self._fields = [fields[b] for b in self.blocks]
        nb = len(self.blocks)
        self.payload_slot = nb + len(send_buffers)
        self.ptrs = np.zeros(self.payload_slot + 1, dtype=np.uintp)
        for j, buf in enumerate(send_buffers):
            self.ptrs[nb + j] = buf.ctypes.data
        self._ptrs_addr = self.ptrs.ctypes.data
        #: Addresses of the grids and payloads seen (see :func:`_address`).
        self._known: Dict[int, Tuple[np.ndarray, int]] = {}
        self._payloads: Dict[int, Tuple[np.ndarray, int]] = {}
        #: Per block: pointer slot, grid shape, and the padded OUTSIDE
        #: mask of its own flags (``None`` when it has no OUTSIDE cell).
        self._info = {}
        for i, b in enumerate(self.blocks):
            shape = self._fields[i].src.shape
            ff = flags.get(b) if flags is not None else None
            outside = None
            if ff is not None:
                if ff.data.shape != shape[1:]:
                    raise CommunicationError(
                        f"block {b}: flags {ff.data.shape} do not match its "
                        f"field {shape[1:]}"
                    )
                if (ff.interior == fl.OUTSIDE).any():
                    outside = ff.data == fl.OUTSIDE
            self._info[b] = (i, shape, outside)

        boxes = []
        cells, firsts = _mask_layout(plan.sends)
        masks = {peer: np.ones(n, dtype=np.uint8) for peer, n in cells.items()}
        for j, msg in enumerate(plan.sends):
            mask = masks[msg.peer]
            for seg, lo in zip(msg.segments, firsts[j]):
                slot, shape, outside = self._info[seg.block_id]
                copy = None
                if outside is not None:
                    copy = ~outside[seg.slices[1:]]
                    mask[lo:lo + copy.size] = copy.reshape(-1)
                boxes.append(_box(
                    slot, _region(shape, seg.slices), nb + j, _flat_region(seg), copy
                ))
        #: Per peer, ascending: the sender's copy mask of every segment
        #: sent to it, flattened and concatenated (uint8) — the one-time
        #: mask message.
        self.mask_peers = list(masks)
        self.mask_messages = list(masks.values())
        self.pack, self.pack_full = self._tables(boxes)
        boxes = []
        for dst_id, ghost_sl, src_id, src_sl in plan.local_copies:
            src_slot, src_shape, outside = self._info[src_id]
            dst_slot, dst_shape, _ = self._info[dst_id]
            copy = None if outside is None else ~outside[src_sl[1:]]
            boxes.append(_box(
                src_slot, _region(src_shape, src_sl),
                dst_slot, _region(dst_shape, ghost_sl), copy,
            ))
        self.local, self.local_full = self._tables(boxes)
        self._recvs = plan.recvs
        self._recv_firsts = _mask_layout(plan.recvs)[1]
        #: Per received message, its bound unpack tables: ``unpack_full``
        #: copies every cell; ``unpack`` is set on the first exchange.
        self.unpack_full = [
            self._unpack_table(msg, [None] * len(msg.segments)) for msg in plan.recvs
        ]
        self.unpack: Optional[list] = None

    def _unpack_table(self, msg: PeerMessage, copies) -> tuple:
        """Bound unpack table of received message ``msg``, leaving out
        the cells of each segment's ``copies`` mask (``None``: none)."""
        boxes = []
        for seg, copy in zip(msg.segments, copies):
            slot, shape, _ = self._info[seg.block_id]
            boxes.append(_box(
                self.payload_slot, _flat_region(seg), slot, _region(shape, seg.slices),
                copy,
            ))
        return self._bind(compiled.ghost_copy_table(boxes))

    def _tables(self, boxes):
        """Bound ``(masked, full)`` tables of ``boxes``; one table when
        no box leaves a cell out."""
        masked = self._bind(compiled.ghost_copy_table(boxes))
        if all(box.copy is None for box in boxes):
            return masked, masked
        full = [box._replace(copy=None) for box in boxes]
        return masked, self._bind(compiled.ghost_copy_table(full))

    @staticmethod
    def _bind(tables):
        """``(segs, runs, planes, nseg, segs_addr, runs_addr,
        planes_addr)`` of a segment/run/plane table triple; the arrays
        stay referenced so the addresses stay valid."""
        segs, runs, planes = tables
        return (
            segs, runs, planes, len(segs), segs.ctypes.data, runs.ctypes.data,
            planes.ctypes.data,
        )

    def set_unpack_masks(self, masks: Dict[int, np.ndarray]) -> None:
        """Build the masked unpack tables from each peer's mask message
        (``masks[peer]``, already checked)."""
        tables = []
        for msg, firsts in zip(self._recvs, self._recv_firsts):
            mask = masks[msg.peer].view(np.bool_)
            copies = []
            for seg, lo in zip(msg.segments, firsts):
                cells = seg.shape[1:]
                copies.append(mask[lo:lo + math.prod(cells)].reshape(cells))
            tables.append(self._unpack_table(msg, copies))
        self.unpack = tables

    def refresh(self) -> None:
        """Point the block slots at the blocks' current ``src`` grids,
        checking every array the first time it is seen."""
        for i, field in enumerate(self._fields):
            arr = field.src
            entry = self._known.get(id(arr))
            if entry is None or entry[0] is not arr:
                self._check_grid(self.blocks[i], arr)
            self.ptrs[i] = _address(self._known, arr, 4 * len(self.blocks))

    def _check_grid(self, block_id, arr) -> None:
        """Reject a grid whose address the copy cannot use as planned."""
        expected = self._info[block_id][1]
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.float64
            and arr.shape == expected
            and arr.flags.c_contiguous
            and arr.flags.aligned
            and arr.flags.writeable
        ):
            raise CommunicationError(
                f"block {block_id}: ghost copy needs a writeable, aligned, "
                f"C-contiguous float64 grid of shape {expected}"
            )

    def run(self, table) -> None:
        """One C call over a bound table (slots already pointed)."""
        _segs, _runs, _planes, nseg, segs_addr, runs_addr, planes_addr = table
        if nseg:
            self._fn(self._ptrs_addr, segs_addr, nseg, runs_addr, planes_addr)

    def run_unpack(self, i: int, payload: np.ndarray, full: bool) -> None:
        """Unpack received message ``i`` from ``payload`` (checked by
        the caller), every cell when ``full``."""
        self.ptrs[self.payload_slot] = _address(
            self._payloads, payload, 4 * len(self._recvs)
        )
        self.run(self.unpack_full[i] if full else self.unpack[i])


def _address(cache: Dict[int, Tuple[np.ndarray, int]], arr: np.ndarray,
             limit: int) -> int:
    """Data address of ``arr``, looked up once per array: grids and the
    peers' persistent send buffers recur every exchange, and reading
    ``arr.ctypes.data`` allocates.  ``cache`` maps ``id(arr)`` to
    ``(arr, address)``; holding the array keeps its ``id`` from being
    reused, and the cache is emptied when it reaches ``limit`` entries."""
    entry = cache.get(id(arr))
    if entry is None or entry[0] is not arr:
        if len(cache) >= limit:
            cache.clear()
        entry = cache[id(arr)] = (arr, arr.ctypes.data)
    return entry[1]


class BufferSystem:
    """Ghost exchange over persistent message buffers.

    Parameters
    ----------
    plan:
        The rank's per-face :class:`~repro.comm.ghostlayer.RankGhostPlan`,
        grouped into messages by :func:`coalesce_plan`.
    fields:
        Mapping block id -> object with a ``src`` PDF grid.
    comm:
        A :class:`~repro.comm.vmpi.Comm` or
        :class:`~repro.comm.vmpi.ReliableComm`; with the latter every
        message is sequence-numbered and recoverable, so the exchange
        stays bit-identical under any non-crash fault schedule.
    tree:
        Optional timing tree; pack/local copy/wire/unpack times are
        recorded under the caller's current scope and the
        :attr:`stats` ledger feeds the ``comm.remote_messages`` /
        ``comm.remote_bytes`` / ``comm.local_bytes`` counters.
    flags:
        Optional mapping block id -> :class:`~repro.core.flags.FlagField`
        of the same blocks.  With the compiled copy, cells a block flags
        OUTSIDE are not re-copied after the first two exchanges (see the
        module docstring); without ``flags`` every cell is copied.
    comm_mode:
        The message grouping (see :func:`coalesce_plan`): one message
        per (block, side) for ``"per-face"``, one per peer rank for
        ``"coalesced"`` and ``"overlap"``.

    Use :meth:`exchange` for the fused path or the :meth:`start` /
    :meth:`finish` pair to overlap interior computation with the
    in-flight messages; :meth:`resync` makes the next exchanges copy
    every cell again.  :attr:`stats` is the
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
    before their payload is read.  Every incoming payload must be a
    C-contiguous float64 array of the planned size; anything else
    raises :class:`~repro.errors.CommunicationError` before it is read.
    """

    def __init__(
        self,
        plan: RankGhostPlan,
        fields: Dict[object, object],
        comm,
        tree: Optional[TimingTree] = None,
        flags: Optional[Dict[object, object]] = None,
        comm_mode: str = "coalesced",
    ):
        self.plan: CoalescedPlan = coalesce_plan(plan, fields, comm_mode)
        self.fields = fields
        self.comm = comm
        self.tree = tree
        self.stats = CommStats()
        self._local_bytes = 0
        for _, _, src, sl in plan.local_copies:
            planes, _, cells = _region(fields[src].src.shape, sl)
            self._local_bytes += 8 * len(planes) * math.prod(cells)
        # Persistent send buffers, allocated once and reused every step.
        self._sends = [
            (msg, np.empty(msg.elements, dtype=np.float64)) for msg in self.plan.sends
        ]
        self._recv_channels = [(msg.peer, msg.tag) for msg in self.plan.recvs]
        # One slot per message, so posting a step's sends allocates no
        # list storage (per-face posts one per block side).
        self._requests: list = [None] * len(self._sends)
        self._mask_requests: list = []
        #: The compiled ghost copy, or ``None`` (NumPy copies).
        self._copy: Optional[_CompiledGhostCopy] = None
        if _compiled_copy_applies(fields):
            self._copy = _CompiledGhostCopy(
                self.plan, fields, flags, [buf for _, buf in self._sends]
            )
        else:
            self._numpy_copies()
        self._full_left = FULL_EXCHANGES
        self._full_now = False
        self._masks_sent = False

    def _numpy_copies(self) -> None:
        """The NumPy copies (see :func:`_spans`): per message, the view
        into its send buffer, block and index of each pack copy, and
        ``(block_id, index, lo, hi, shape)`` of each unpack copy; and
        the same-rank copies."""
        self._pack_views = [
            tuple(
                (buf[lo:hi].reshape(shape), seg.block_id, sl)
                for seg in msg.segments
                for sl, lo, hi, shape in _spans(seg)
            )
            for msg, buf in self._sends
        ]
        self._unpacks = [
            tuple(
                (seg.block_id,) + span
                for seg in msg.segments
                for span in _spans(seg)
            )
            for msg in self.plan.recvs
        ]
        self._locals = tuple(
            (dst_id, g, src_id, s)
            for dst_id, ghost_sl, src_id, src_sl in self.plan.local_copies
            for g, s in zip(_planes(ghost_sl), _planes(src_sl))
        )

    def _record(self, name: str, seconds: float) -> None:
        if self.tree is not None:
            self.tree.record(name, seconds)

    # -- the two phases -----------------------------------------------------
    def start(self) -> None:
        """Pack all outgoing payloads, post one isend per message, and
        run the direct copies between blocks owned by this rank.

        Send buffers are owned by this object and reused next step (see
        the class docstring's buffer-reuse rule).
        """
        copy = self._copy
        full = self._full_now = self._full_left > 0
        if full:
            self._full_left -= 1
        t0 = time.perf_counter()
        sent = 0
        fields = self.fields
        if copy is not None:
            copy.refresh()
            copy.run(copy.pack_full if full else copy.pack)
        else:
            for views in self._pack_views:
                for view, block_id, sl in views:
                    np.copyto(view, fields[block_id].src[sl])
        for j, (msg, buf) in enumerate(self._sends):
            sent += msg.nbytes
            self._requests[j] = self.comm.isend(buf, dest=msg.peer, tag=msg.tag)
        if copy is not None and not self._masks_sent:
            self._masks_sent = True
            self._mask_requests = [
                self.comm.isend(mask, dest=peer, tag=MASK_TAG)
                for peer, mask in zip(copy.mask_peers, copy.mask_messages)
            ]
        self._record("pack", time.perf_counter() - t0)
        t0 = time.perf_counter()
        local = self.plan.local_copies
        if copy is not None:
            copy.run(copy.local_full if full else copy.local)
        else:
            for block_id, ghost_sl, src_id, src_sl in self._locals:
                fields[block_id].src[ghost_sl] = fields[src_id].src[src_sl]
        self._record("local copy", time.perf_counter() - t0)
        self.stats.add(
            len(local), self._local_bytes, len(self.plan.sends), sent, self.tree
        )

    def finish(self) -> None:
        """Drain incoming messages (arrival order) and unpack.

        Wire-wait and unpack times are recorded separately, so the
        timing tree shows how much exposed wait the overlap schedule
        still pays.  Completes the posted send requests afterwards.
        """
        wire = 0.0
        unpack = 0.0
        probe_timeout = getattr(self.comm, "retry_timeout", None)
        full = self._full_now
        copy = self._copy
        t0 = time.perf_counter()
        for i, data in drain_arrival_order(
            self.comm, self._recv_channels, probe_timeout
        ):
            wire += time.perf_counter() - t0
            t0 = time.perf_counter()
            msg = self.plan.recvs[i]
            _check_payload(
                data, (msg.elements,), f"ghost message from rank {msg.peer}"
            )
            if copy is not None:
                copy.run_unpack(i, data, full)
            else:
                for block_id, sl, lo, hi, shape in self._unpacks[i]:
                    self.fields[block_id].src[sl] = data[lo:hi].reshape(shape)
            unpack += time.perf_counter() - t0
            t0 = time.perf_counter()
        if copy is not None and copy.unpack is None:
            unpack += self._receive_masks(probe_timeout)
        for req in self._requests:
            req.wait()
        for req in self._mask_requests:
            req.wait()
        self._mask_requests.clear()
        self._record("wire", wire)
        self._record("unpack", unpack)

    def _receive_masks(self, probe_timeout) -> float:
        """Receive every peer's one-time mask message and build the
        unpack tables; returns the seconds spent."""
        t0 = time.perf_counter()
        cells = _mask_layout(self.plan.recvs)[0]
        peers = list(cells)
        masks = {}
        for i, data in drain_arrival_order(
            self.comm, [(peer, MASK_TAG) for peer in peers], probe_timeout
        ):
            peer = peers[i]
            if not (
                isinstance(data, np.ndarray)
                and data.dtype == np.uint8
                and data.shape == (cells[peer],)
                and data.flags.c_contiguous
                and int(data.max(initial=0)) <= 1
            ):
                raise CommunicationError(
                    f"mask message from rank {peer}: expected a "
                    f"C-contiguous uint8 array of {cells[peer]} zeros and "
                    f"ones, got "
                    f"{getattr(data, 'dtype', type(data).__name__)} "
                    f"{getattr(data, 'shape', '')}"
                )
            masks[peer] = data
        self._copy.set_unpack_masks(masks)
        return time.perf_counter() - t0

    def exchange(self) -> None:
        """One full ghost exchange: ``start`` + ``finish``."""
        self.start()
        self.finish()

    def resync(self) -> None:
        """Copy every cell again in the next two exchanges, after the
        fields were rewritten between steps (a checkpoint load does
        this).  Collective: every rank of the exchange calls it before
        the same exchange, since a full unpack reads the cells a
        sparse-aware pack leaves stale."""
        self._full_left = FULL_EXCHANGES


def check_comm_mode(comm_mode: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` for an unknown
    ``comm_mode``.  :func:`make_exchange` checks this; the drivers also
    call it on entry, so a bad setting fails before any block is
    built."""
    if comm_mode not in COMM_MODES:
        raise ConfigurationError(
            f"comm_mode must be one of {COMM_MODES}, got {comm_mode!r}"
        )


def make_exchange(
    comm_mode: str,
    view,
    runtimes: Dict[object, object],
    comm,
    tree: Optional[TimingTree] = None,
    filtered: bool = True,
) -> Tuple[BufferSystem, FrozenSet[object]]:
    """One rank's ghost exchange: the plan of its block ``view`` (a
    :class:`~repro.blocks.forest.ProcessView`) and the
    :class:`BufferSystem` (given the blocks' flags) that runs it over
    ``comm``, its messages grouped by ``comm_mode``.

    ``runtimes`` maps block id to a
    :class:`~repro.core.schedule.BlockRuntime` and must hold every block
    of ``view`` (it may hold more).  With ``filtered`` (the default) the
    plan carries only the PDF directions each neighbor pulls, for the
    lattice of the blocks' fields (see
    :func:`~repro.comm.ghostlayer.build_rank_plan`); ``False`` sends
    full ghost layers, the paper's baseline.  Returns ``(executor,
    remote_dst)``, the latter the ids of the blocks whose ghost layers
    are fed by another rank.

    Raises :class:`~repro.errors.ConfigurationError` as
    :func:`check_comm_mode` does.
    """
    check_comm_mode(comm_mode)
    model = None
    if filtered and view.blocks:
        model = runtimes[view.blocks[0].id].field.model
    plan = build_rank_plan(view, view.rank, pdf_filter=model)
    fields = {blk.id: runtimes[blk.id].field for blk in view.blocks}
    flags = {blk.id: runtimes[blk.id].flags for blk in view.blocks}
    remote_dst = frozenset(entry[2] for entry in plan.recvs)
    executor = BufferSystem(
        plan, fields, comm, tree=tree, flags=flags, comm_mode=comm_mode
    )
    return executor, remote_dst
