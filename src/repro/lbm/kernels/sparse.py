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
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..collision import SRT, TRT
from ..lattice import D3Q19, LatticeModel
from .common import check_pdf_args, interior_slices
from .contracts import allocation_free
from .d3q19 import build_pair_table, d3q19_step

__all__ = [
    "ConditionalSparseKernel",
    "IndexListSparseKernel",
    "IntervalSparseKernel",
    "SPARSE_KERNELS",
    "fluid_intervals",
]

Collision = Union[SRT, TRT]


def _check_mask(mask: np.ndarray, src: np.ndarray) -> None:
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
    an arbitrary set of cells (1-D or N-D, all the same shape).  Division
    by zero density (possible for superfluous packed lanes that are not
    fluid) is silenced; those lanes are never scattered back.
    """
    vels = model.velocities
    rho = g[0].astype(np.float64, copy=True)
    for a in range(1, model.q):
        rho += g[a]
    jx = np.zeros_like(rho)
    jy = np.zeros_like(rho)
    jz = np.zeros_like(rho)
    for a in range(1, model.q):
        ex, ey, ez = int(vels[a, 0]), int(vels[a, 1]), int(vels[a, 2])
        if ex:
            jx += g[a] if ex == 1 else -g[a]
        if ey:
            jy += g[a] if ey == 1 else -g[a]
        if ez:
            jz += g[a] if ez == 1 else -g[a]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_rho = 1.0 / rho
    inv_rho = np.where(np.isfinite(inv_rho), inv_rho, 0.0)
    ux = jx * inv_rho
    uy = jy * inv_rho
    uz = jz * inv_rho
    usq_term = 1.0 - 1.5 * (ux * ux + uy * uy + uz * uz)

    if isinstance(collision, SRT):
        lam_e = lam_o = -1.0 / collision.tau
    else:
        lam_e, lam_o = collision.lambda_e, collision.lambda_o

    post: List[np.ndarray] = [None] * model.q  # type: ignore[list-item]
    w0 = float(model.weights[0])
    feq0 = w0 * rho * usq_term
    post[0] = g[0] + lam_e * (g[0] - feq0)
    for a, b, w, e in build_pair_table(model):
        eu = e[0] * ux + e[1] * uy + e[2] * uz
        wrho = w * rho
        eq_plus = wrho * (usq_term + 4.5 * eu * eu)
        eq_minus = 3.0 * wrho * eu
        ga, gb = g[a], g[b]
        sym = lam_e * (0.5 * (ga + gb) - eq_plus)
        asym = lam_o * (0.5 * (ga - gb) - eq_minus)
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
        _check_mask(self.mask, src)
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
        _check_mask(self.mask, src)
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
    out: List[Tuple[int, int, int, int]] = []
    nx, ny, _nz = mask.shape
    for i in range(nx):
        for j in range(ny):
            line = mask[i, j]
            nz_idx = np.nonzero(line)[0]
            if nz_idx.size:
                out.append((i, j, int(nz_idx[0]), int(nz_idx[-1]) + 1))
    return out


@allocation_free(
    steady_state=False,
    reason="interval strategy gathers padded per-line runs into fresh "
    "packed arrays every step; streaming access within runs is the "
    "contract, not zero allocation",
    warmup=("_prepare",),
)
class IntervalSparseKernel:
    """Strategy 3: per-line [first, last] runs, processed as padded slabs.

    All runs are packed into a 2-D array of shape ``(n_lines, W)`` where
    ``W`` is the longest run in the block; lanes beyond a line's own run
    are computed superfluously and never written back.  Gathers use
    consecutive flat indices, so memory access is streaming within each
    run — the property that makes this strategy vectorizable in the paper.
    """

    name = "interval"

    def __init__(self, mask: np.ndarray, collision: Collision):
        self.mask = np.asarray(mask, dtype=bool)
        self.collision = collision
        self.fluid_cells = int(self.mask.sum())
        self.intervals = fluid_intervals(self.mask)
        #: Work actually performed: padded-run lanes (>= covered cells).
        width = max((last - first for _, _, first, last in self.intervals), default=0)
        self.run_width = width
        self.processed_cells = width * len(self.intervals)
        self._idx: np.ndarray | None = None
        self._valid: np.ndarray | None = None
        self._offs: np.ndarray | None = None

    def _prepare(self, padded_shape) -> None:
        s0 = padded_shape[1] * padded_shape[2]
        s1 = padded_shape[2]
        n = len(self.intervals)
        W = self.run_width
        idx = np.zeros((n, W), dtype=np.int64)
        valid = np.zeros((n, W), dtype=bool)
        lane = np.arange(W, dtype=np.int64)
        for r, (i, j, first, last) in enumerate(self.intervals):
            base = (i + 1) * s0 + (j + 1) * s1 + (first + 1)
            length = last - first
            # Clamp so superfluous lanes never index out of the line.
            k = np.minimum(lane, max(length - 1, 0))
            idx[r] = base + k
            valid[r] = lane < length
        # Only scatter back true fluid lanes (runs may contain gaps).
        mask_flat = np.zeros(int(np.prod(padded_shape)), dtype=bool)
        interior = interior_slices(3)
        pad_mask = np.zeros(padded_shape, dtype=bool)
        pad_mask[interior] = self.mask
        mask_flat = pad_mask.ravel()
        valid &= mask_flat[idx]
        self._idx = idx
        self._valid = valid
        self._offs = _flat_offsets(D3Q19, padded_shape)

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        check_pdf_args(D3Q19, src, dst)
        _check_mask(self.mask, src)
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
