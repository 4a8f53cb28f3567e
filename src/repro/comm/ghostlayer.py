"""Ghost-layer exchange plan between blocks (§2.2).

"The regular grid within each block is extended by one additional ghost
layer of cells which is used in every time step during communication in
order to synchronize the cell data on the boundary between neighboring
blocks."

One plan, one executor.  :func:`build_rank_plan` turns one rank's block
view into a :class:`RankGhostPlan`: the face/edge/corner regions it
sends to and receives from each neighbor rank, and the direct copies
between its own blocks.  :class:`~repro.comm.buffersystem.BufferSystem`
runs such a plan by message passing, under every ``comm_mode``: it
groups the regions into one message per (block, side) for
``"per-face"`` or one per peer rank otherwise.  The one multi-block
driver, :class:`~repro.comm.distributed.DistributedSimulation`, runs
one per rank: on in-process ranks driven from one thread, or — built
with ``comm=`` by the SPMD rank program — on one rank's view, one
thread per rank.  The executor keeps a :class:`CommStats`
ledger of the bytes and messages moved within and between ranks,
feeding the communication-time models in :mod:`repro.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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
]


def needed_directions(
    model: LatticeModel, offset: Tuple[int, int, int]
) -> List[int]:
    """PDF directions a block actually pulls from its ghost region at
    ``offset``.

    A ghost cell on side ``offset`` is read by an interior cell pulling
    direction ``a`` only if ``e_a`` points from the ghost cell into the
    interior, i.e. ``e_a[c] == -offset[c]`` on every axis where the
    offset is nonzero.  For D3Q19 a face needs 5 of 19 PDFs, an edge 1,
    and a corner none (no (±1,±1,±1) velocities).  The executor sends
    only these by default (see :func:`build_rank_plan`); the paper's
    scheme sends all 19 values ("the amount of data communicated
    between neighboring blocks is the same as for densely populated
    blocks"), which stays available as the full-layer baseline.
    """
    off = np.asarray(offset[: model.dim], dtype=np.int64)
    axes = off != 0
    if not axes.any():
        return []
    pulls = (model.velocities[:, axes] == -off[axes]).all(axis=1)
    return np.flatnonzero(pulls).tolist()


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
        """Account one exchange's traffic; with ``tree`` set it also
        feeds the ``comm.local_bytes`` / ``comm.remote_bytes`` /
        ``comm.remote_messages`` counters."""
        self.local_messages += local_messages
        self.local_bytes += local_bytes
        self.remote_messages += remote_messages
        self.remote_bytes += remote_bytes
        if tree is not None:
            tree.add_counter("comm.local_bytes", local_bytes)
            tree.add_counter("comm.remote_bytes", remote_bytes)
            tree.add_counter("comm.remote_messages", remote_messages)


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


#: :func:`build_rank_plan`'s PDF index per (lattice velocities, offset):
#: the filtered directions, or ``None`` when there are none.  At most 26
#: offsets per lattice, each computed once per process.
_DIRECTIONS: Dict[tuple, Optional[np.ndarray]] = {}


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
    The simulation drivers filter by default (see
    :func:`~repro.comm.buffersystem.make_exchange`); ``None`` gives the
    paper's full ghost layers, the baseline.  A filtered region's first
    index is an integer array of directions, so ``src[sl]`` is a copy.
    """
    if pdf_filter is not None:
        e = pdf_filter.velocities
        velocities = (e.shape, e.tobytes())

    def dirs(off):
        if pdf_filter is None:
            return slice(None)
        key = (velocities, off)
        if key not in _DIRECTIONS:
            needed = needed_directions(pdf_filter, off)
            index = np.asarray(needed, dtype=np.int64) if needed else None
            if index is not None:
                index.flags.writeable = False  # shared by every plan
            _DIRECTIONS[key] = index
        return _DIRECTIONS[key]

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
