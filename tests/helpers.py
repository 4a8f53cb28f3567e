"""Shared test utilities."""

from __future__ import annotations

import numpy as np

from repro.geometry import CapsuleTreeGeometry


def periodic_ghost_fill(f: np.ndarray) -> None:
    """Fill the one-cell ghost layers of ``f`` periodically, in place.

    ``f`` has shape ``(q,) + padded``.  Applying the copy axis by axis
    also fills edge/corner ghosts correctly.
    """
    dim = f.ndim - 1
    for d in range(1, dim + 1):
        lo = [slice(None)] * f.ndim
        hi = [slice(None)] * f.ndim
        lo[d] = 0
        hi[d] = -2
        f[tuple(lo)] = f[tuple(hi)]
        lo[d] = -1
        hi[d] = 1
        f[tuple(lo)] = f[tuple(hi)]


def random_pdfs(rng, model, cells, lo: float = 0.4, hi: float = 0.6) -> np.ndarray:
    """Random positive PDF field (padded) with moderate densities."""
    shape = (model.q,) + tuple(c + 2 for c in cells)
    return lo + (hi - lo) * rng.random(shape)


def interior(f: np.ndarray) -> np.ndarray:
    """Interior view of a padded (q,)+S array."""
    return f[(slice(None),) + (slice(1, -1),) * (f.ndim - 1)]


def per_face(plan, fields, comm):
    """A ``BufferSystem`` that sends one message per (block, side)."""
    from repro.comm import BufferSystem

    return BufferSystem(plan, fields, comm, comm_mode="per-face")


def exchange_on_ranks(forest, fields, executor):
    """Run one ghost exchange of ``fields`` (block id -> PdfField) with
    ``executor`` (``per_face`` or ``BufferSystem``), one virtual MPI rank
    per forest process; returns the ranks' ``CommStats``."""
    from repro.blocks import view_for_rank
    from repro.comm import VirtualMPI, build_rank_plan

    def program(comm):
        view = view_for_rank(forest, comm.rank)
        mine = {blk.id: fields[blk.id] for blk in view.blocks}
        ex = executor(build_rank_plan(view, comm.rank), mine, comm)
        ex.exchange()
        return ex.stats

    return VirtualMPI(forest.n_processes, timeout=10.0).run(program)


def all_capsule_segment_geometry(geom, points):
    """``(phi, k, t)`` of a ``CapsuleTreeGeometry`` with every point
    tested against every capsule: the reference its candidate culling
    must reproduce bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = points[:, None, :] - geom._starts[None, :, :]
    t = np.einsum("nmj,mj->nm", d, geom._axes) / geom._len2[None, :]
    t = np.clip(t, 0.0, 1.0)
    closest = geom._starts[None] + t[..., None] * geom._axes[None]
    dist = np.linalg.norm(points[:, None, :] - closest, axis=-1)
    phi_all = dist - geom._radii[None, :]
    k = np.argmin(phi_all, axis=1)
    rows = np.arange(len(points))
    return phi_all[rows, k], k, t[rows, k]


class AllCapsuleGeometry(CapsuleTreeGeometry):
    """A ``CapsuleTreeGeometry`` that evaluates every capsule for every
    point (:func:`all_capsule_segment_geometry`)."""

    def _segment_geometry(self, points):
        return all_capsule_segment_geometry(self, points)

    def contains(self, points):
        return self.phi(points) < 0.0
