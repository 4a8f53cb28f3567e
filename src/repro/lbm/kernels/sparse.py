"""Kernels for blocks only partially covered by fluid cells (§4.3).

The paper describes three strategies for partially filled blocks:

1. **Conditional** — test every cell: "introducing this conditional
   statement in the innermost kernel loop induces a major performance
   penalty ... incompatible with vectorization."  NumPy analog:
   :class:`ConditionalSparseKernel` computes the full dense update and
   masks the write-back, so its cost is proportional to *all* cells of
   the block regardless of how few are fluid.
2. **Index list** — "store the coordinates of a block's fluid lattice
   cells in an array and loop over this array."  NumPy analog:
   :class:`IndexListSparseKernel` packs the fluid cells through flat
   fancy-index gathers, collides the packed 1-D arrays, and scatters
   back.  Cost is proportional to the number of fluid cells, but every
   access is a gather/scatter.
3. **Interval (run-length)** — "store for every line of lattice cells
   the index of the first and last fluid lattice cell, similar to the
   compressed storage scheme of a sparse matrix ... this approach
   enables vectorization."  NumPy analog:
   :class:`IntervalSparseKernel` records per-line ``[first, last]``
   fluid intervals and processes them as padded contiguous runs — reads
   and writes touch consecutive memory, and some skipped cells inside a
   run are processed superfluously, exactly as the paper notes the
   prefetcher loads skipped cells anyway.

All three share the collision arithmetic through :func:`_collide_packed`
and are verified against the dense reference kernel on the fluid cells.
The packed strategies perform the ``vectorized`` tier's operations in
its order, so on every cell they sweep they give the dense tiers' bits.

``interval`` also has a compiled backend,
:class:`~repro.lbm.kernels.compiled.CompiledIntervalKernel`, which
sweeps the maximal contiguous fluid runs of :func:`fluid_runs` with the
generated row loop of the ``compiled`` tier and gives this module's
``interval`` bits; block set-up picks it whenever that tier builds.
Both backends share :class:`IntervalAccounting`.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..collision import SRT, TRT
from ..lattice import D3Q19, LatticeModel
from .common import check_pdf_args, interior_slices
from .contracts import allocation_free
from .d3q19 import build_pair_table, d3q19_step, momentum_terms

__all__ = [
    "ConditionalSparseKernel",
    "IndexListSparseKernel",
    "IntervalSparseKernel",
    "SPARSE_KERNELS",
    "check_mask",
    "fluid_intervals",
    "fluid_runs",
]

Collision = Union[SRT, TRT]


def check_mask(mask: np.ndarray, src: np.ndarray) -> None:
    """Reject a fluid mask that is not boolean or does not match the
    interior of ``src``."""
    if mask.dtype != np.bool_:
        raise TypeError("fluid mask must be boolean")
    if mask.shape != tuple(s - 2 for s in src.shape[1:]):
        raise ValueError(
            f"mask shape {mask.shape} must match field interior "
            f"{tuple(s - 2 for s in src.shape[1:])}"
        )


def _collide_packed(
    model: LatticeModel,
    g: List[np.ndarray],
    collision: Collision,
) -> List[np.ndarray]:
    """Collide packed per-direction value arrays; returns post-collision list.

    ``g[a]`` holds the pulled pre-collision values of direction ``a`` for
    an arbitrary set of cells (1-D or N-D, all the same shape).  The
    arithmetic is the IEEE operation sequence of
    :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel` (and so
    of the compiled tier's row loop), in the same order: on every cell
    it sweeps, a sparse kernel gives the dense tiers' bits.  Division by
    zero density (possible for superfluous packed lanes that are not
    fluid) is silenced; those lanes are never scattered back.
    """
    rho = g[0] + g[1]
    for a in range(2, model.q):
        rho += g[a]
    # First nonzero direction per component writes, the rest accumulate.
    j = []
    for terms in momentum_terms(model):
        (a0, s0), rest = terms[0], terms[1:]
        acc = g[a0].copy() if s0 > 0 else -g[a0]
        for a, sgn in rest:
            if sgn > 0:
                acc += g[a]
            else:
                acc -= g[a]
        j.append(acc)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_rho = 1.0 / rho
    inv_rho = np.where(np.isfinite(inv_rho), inv_rho, 0.0)
    u = [jc * inv_rho for jc in j]
    # usq = ((ux^2 + uy^2) + uz^2) * -1.5 + 1.0
    usq = u[0] * u[0]
    for uc in u[1:]:
        usq += uc * uc
    usq *= -1.5
    usq += 1.0

    if isinstance(collision, SRT):
        lam_e = lam_o = -1.0 / collision.tau
    else:
        lam_e, lam_o = collision.lambda_e, collision.lambda_o

    post: List[np.ndarray] = [None] * model.q  # type: ignore[list-item]
    w0 = float(model.weights[0])
    post[0] = g[0] + (g[0] - rho * usq * w0) * lam_e
    for a, b, w, e in build_pair_table(model):
        eu = None
        for comp, uc in zip(e, u):
            if comp == 0.0:
                continue
            if eu is None:
                eu = uc * comp
            elif comp == 1.0:
                eu += uc
            else:
                eu -= uc
        wrho = rho * w
        eq_plus = (eu * eu * 4.5 + usq) * wrho
        eq_minus = wrho * eu * 3.0
        ga, gb = g[a], g[b]
        sym = ((ga + gb) * 0.5 - eq_plus) * lam_e
        asym = ((ga - gb) * 0.5 - eq_minus) * lam_o
        post[a] = ga + sym + asym
        post[b] = gb + sym - asym
    return post


@allocation_free(
    steady_state=False,
    reason="conditional strategy runs the allocating d3q19 dense step "
    "and masks the write-back; cost and allocations scale with all "
    "cells of the block by design",
)
class ConditionalSparseKernel:
    """Strategy 1: dense update, write-back only where the mask is fluid."""

    name = "conditional"

    def __init__(self, mask: np.ndarray, collision: Collision):
        self.mask = np.asarray(mask, dtype=bool)
        self.collision = collision
        self.fluid_cells = int(self.mask.sum())
        #: Cells whose update is *paid for* (MLUPS denominator): all of them.
        self.processed_cells = int(self.mask.size)
        self._scratch: np.ndarray | None = None

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        check_pdf_args(D3Q19, src, dst)
        check_mask(self.mask, src)
        if self._scratch is None or self._scratch.shape != src.shape:
            self._scratch = np.zeros_like(src)
        with np.errstate(divide="ignore", invalid="ignore"):
            d3q19_step(D3Q19, src, self._scratch, self.collision)
        interior = (slice(None),) + interior_slices(3)
        np.copyto(dst[interior], self._scratch[interior],
                  where=self.mask[None, ...])


def _flat_offsets(model: LatticeModel, padded_shape) -> np.ndarray:
    """Flat-index offset of ``-e_a`` for every direction in a padded array."""
    strides = [1] * 3
    strides[1] = padded_shape[2]
    strides[0] = padded_shape[1] * padded_shape[2]
    offs = []
    for a in range(model.q):
        e = model.velocities[a]
        offs.append(-(int(e[0]) * strides[0] + int(e[1]) * strides[1] + int(e[2]) * strides[2]))
    return np.asarray(offs, dtype=np.int64)


def _interior_flat_indices(mask: np.ndarray, padded_shape) -> np.ndarray:
    """Flat indices (into the padded array) of the True interior cells."""
    ii, jj, kk = np.nonzero(mask)
    s0 = padded_shape[1] * padded_shape[2]
    s1 = padded_shape[2]
    return (ii + 1) * s0 + (jj + 1) * s1 + (kk + 1)


@allocation_free(
    steady_state=False,
    reason="index-list strategy gathers fluid cells into fresh packed "
    "arrays every step (fancy indexing cannot write into preallocated "
    "storage without an extra copy pass)",
    warmup=("_prepare",),
)
class IndexListSparseKernel:
    """Strategy 2: packed gather/collide/scatter over explicit fluid indices."""

    name = "indexlist"

    def __init__(self, mask: np.ndarray, collision: Collision):
        self.mask = np.asarray(mask, dtype=bool)
        self.collision = collision
        self.fluid_cells = int(self.mask.sum())
        self.processed_cells = self.fluid_cells
        self._idx: np.ndarray | None = None
        self._offs: np.ndarray | None = None

    def _prepare(self, padded_shape) -> None:
        self._idx = _interior_flat_indices(self.mask, padded_shape)
        self._offs = _flat_offsets(D3Q19, padded_shape)

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        check_pdf_args(D3Q19, src, dst)
        check_mask(self.mask, src)
        if self._idx is None:
            self._prepare(src.shape[1:])
        idx, offs = self._idx, self._offs
        src_flat = src.reshape(19, -1)
        dst_flat = dst.reshape(19, -1)
        g = [src_flat[a][idx + offs[a]] for a in range(19)]
        post = _collide_packed(D3Q19, g, self.collision)
        for a in range(19):
            dst_flat[a][idx] = post[a]


def fluid_intervals(mask: np.ndarray) -> List[Tuple[int, int, int, int]]:
    """Per-line fluid intervals: ``(i, j, first, last_plus_one)``.

    A "line" runs along the innermost (z) axis, matching the C-contiguous
    memory layout.  Lines without fluid cells are omitted.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return []
    nz = mask.shape[2]
    ii, jj = np.nonzero(mask.any(axis=2))
    first = mask.argmax(axis=2)[ii, jj]
    last = nz - mask[:, :, ::-1].argmax(axis=2)[ii, jj]
    return list(zip(ii.tolist(), jj.tolist(), first.tolist(), last.tolist()))


def fluid_runs(mask: np.ndarray) -> np.ndarray:
    """Maximal contiguous fluid runs along the innermost (z) axis.

    Returns an int64 array of shape ``(n_runs, 4)`` with rows ``(i, j,
    z0, n)`` — the run covers cells ``(i, j, z0 .. z0 + n - 1)`` — in C
    order.  Unlike :func:`fluid_intervals` a run never contains a
    non-fluid cell, so a line with gaps yields several runs.
    """
    mask = np.asarray(mask, dtype=bool)
    # +1 where a run starts, -1 one past where it ends.
    n1, n2, n = mask.shape
    edges = np.zeros((n1, n2, n + 1), dtype=np.int8)
    edges[..., :-1] = mask
    edges[..., 1:] -= mask
    i, j, z0 = np.nonzero(edges == 1)
    z1 = np.nonzero(edges == -1)[2]
    runs = np.empty((z0.size, 4), dtype=np.int64)
    runs[:, 0], runs[:, 1], runs[:, 2], runs[:, 3] = i, j, z0, z1 - z0
    return runs


class IntervalAccounting:
    """Mask, per-line intervals and padded-run accounting of the
    ``interval`` strategy, shared by its NumPy and compiled backends so
    both report the same cell counts and rates."""

    name = "interval"

    def __init__(self, mask: np.ndarray, collision: Collision):
        self.mask = np.asarray(mask, dtype=bool)
        self.collision = collision
        self.fluid_cells = int(self.mask.sum())
        self.intervals = fluid_intervals(self.mask)
        #: Work charged per step: padded-run lanes (>= covered cells).
        width = max((last - first for _, _, first, last in self.intervals), default=0)
        self.run_width = width
        self.processed_cells = width * len(self.intervals)


@allocation_free(
    steady_state=False,
    reason="interval strategy gathers padded per-line runs into fresh "
    "packed arrays every step; streaming access within runs is the "
    "contract, not zero allocation",
    warmup=("_prepare",),
)
class IntervalSparseKernel(IntervalAccounting):
    """Strategy 3: per-line [first, last] runs, processed as padded slabs.

    All runs are packed into a 2-D array of shape ``(n_lines, W)`` where
    ``W`` is the longest run in the block; lanes beyond a line's own run
    are computed superfluously and never written back.  Gathers use
    consecutive flat indices, so memory access is streaming within each
    run — the property that makes this strategy vectorizable in the paper.
    This is the NumPy backend of ``interval``; the compiled one is
    :class:`~repro.lbm.kernels.compiled.CompiledIntervalKernel`.
    """

    def __init__(self, mask: np.ndarray, collision: Collision):
        super().__init__(mask, collision)
        self._idx: np.ndarray | None = None
        self._valid: np.ndarray | None = None
        self._offs: np.ndarray | None = None

    def _prepare(self, padded_shape) -> None:
        s0 = padded_shape[1] * padded_shape[2]
        s1 = padded_shape[2]
        i, j, first, last = np.asarray(self.intervals, dtype=np.int64).reshape(-1, 4).T
        base = (i + 1) * s0 + (j + 1) * s1 + (first + 1)
        length = last - first
        lane = np.arange(self.run_width, dtype=np.int64)
        # Clamp so superfluous lanes never index out of the line.
        idx = base[:, None] + np.minimum(lane, np.maximum(length - 1, 0)[:, None])
        valid = lane < length[:, None]
        # Only scatter back true fluid lanes (runs may contain gaps).
        pad_mask = np.zeros(padded_shape, dtype=bool)
        pad_mask[interior_slices(3)] = self.mask
        valid &= pad_mask.ravel()[idx]
        self._idx = idx
        self._valid = valid
        self._offs = _flat_offsets(D3Q19, padded_shape)

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        check_pdf_args(D3Q19, src, dst)
        check_mask(self.mask, src)
        if not self.intervals:
            return
        if self._idx is None:
            self._prepare(src.shape[1:])
        idx, valid, offs = self._idx, self._valid, self._offs
        src_flat = src.reshape(19, -1)
        dst_flat = dst.reshape(19, -1)
        g = [src_flat[a][idx + offs[a]] for a in range(19)]
        post = _collide_packed(D3Q19, g, self.collision)
        for a in range(19):
            dst_flat[a][idx[valid]] = post[a][valid]


#: Sparse-block kernel strategies by name (§4.3).
SPARSE_KERNELS = {
    "conditional": ConditionalSparseKernel,
    "indexlist": IndexListSparseKernel,
    "interval": IntervalSparseKernel,
}
