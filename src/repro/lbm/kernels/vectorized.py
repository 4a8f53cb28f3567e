"""SoA split-loop kernel — the NumPy analog of the paper's SIMD tier.

The paper's fastest kernels (§4.1) combine three transformations: the
SoA data layout, SIMD vectorization, and splitting the innermost loop so
the update proceeds "in a by-direction rather than a by-cell manner",
which reduces the number of concurrent load/store streams.  The paper
notes no compiler could perform this transformation automatically — it
was applied by hand.  This module is that hand transformation in NumPy:

* by-direction processing on contiguous SoA views,
* **preallocated scratch buffers** — a step performs zero heap
  allocations of full-field temporaries,
* in-place ufuncs (``out=``) so every arithmetic pass streams through
  memory once, mirroring SIMD streaming loads/stores.

The kernel is stateful (it owns its scratch memory), so it is exposed as
a class constructed once per block shape.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple, Union

import numpy as np

from ..collision import SRT, TRT
from ..lattice import D3Q19, LatticeModel
from .common import check_pdf_args, interior_slices, pull_slices
from .contracts import allocation_free
from .d3q19 import build_pair_table, momentum_terms

__all__ = ["VectorizedD3Q19Kernel"]

Collision = Union[SRT, TRT]


@allocation_free(steady_state=True, warmup=("_get_scratch",))
class VectorizedD3Q19Kernel:
    """Stateful, allocation-free fused stream-collide kernel for D3Q19.

    Parameters
    ----------
    cells:
        Interior cell counts ``(nx, ny, nz)`` — scratch buffers are sized
        for this shape and the kernel only accepts matching fields.
    collision:
        An :class:`~repro.lbm.collision.SRT` or
        :class:`~repro.lbm.collision.TRT` parameter set.
    """

    name = "vectorized"
    model: LatticeModel = D3Q19
    #: Per-thread bound on the number of interior shapes whose scratch
    #: buffers stay cached (LRU eviction beyond it).  The regular
    #: drivers need at most a handful of shapes per worker (the full
    #: interior, the inner box, a few slab/frontier shapes).
    scratch_cache_size = 8

    def __init__(self, cells, collision: Collision):
        self.cells = tuple(int(c) for c in cells)
        if len(self.cells) != 3 or any(c < 1 for c in self.cells):
            raise ValueError(f"cells must be three positive ints, got {cells}")
        self.collision = collision
        if isinstance(collision, SRT):
            self._lam_e = self._lam_o = -1.0 / collision.tau
        else:
            self._lam_e, self._lam_o = collision.lambda_e, collision.lambda_o
        # Persistent scratch: *per-worker-thread* pools keyed by interior
        # shape (macroscopic fields and per-pair work arrays).  Keying by
        # thread makes concurrent subregion sweeps race-free — two slab
        # workers of the :mod:`repro.exec` engine hitting the same slab
        # shape get distinct buffers — while a persistent pool keeps the
        # steady state allocation-free: each worker allocates its shapes
        # once (warm-up) and reuses them every step.  Each per-thread
        # pool is a small LRU bounded by ``scratch_cache_size`` so
        # long-running simulations cycling through many partition shapes
        # cannot grow memory without limit.  The primary shape is
        # allocated up front for the constructing thread.
        self._scratch = threading.local()
        self._scratch.cache = OrderedDict(
            [(self.cells, tuple(np.empty(self.cells) for _ in range(10)))]
        )
        self._pairs = build_pair_table(D3Q19)
        self._w0 = float(D3Q19.weights[0])
        self._interior = interior_slices(3)
        self._pull = [pull_slices(D3Q19.velocities[a]) for a in range(19)]
        # Per-component (sign, direction) accumulation schedule for the
        # first-write momentum sums: list of (a, +1/-1) per component.
        self._mom_terms = momentum_terms(D3Q19)

    def _get_scratch(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
        """Scratch buffers for an interior ``shape``.

        Cached per (worker thread, shape) in a small per-thread LRU of
        at most :attr:`scratch_cache_size` shapes — a cache hit touches
        no allocator (``move_to_end`` relinks in place), a miss
        allocates the shape's ten buffers and evicts the least recently
        used shape when the bound is exceeded.
        """
        cache = getattr(self._scratch, "cache", None)
        if cache is None:
            cache = OrderedDict()
            self._scratch.cache = cache
        bufs = cache.get(shape)
        if bufs is None:
            bufs = tuple(np.empty(shape) for _ in range(10))
            cache[shape] = bufs
            while len(cache) > self.scratch_cache_size:
                cache.popitem(last=False)
        else:
            cache.move_to_end(shape)
        return bufs

    def scratch_shapes(self) -> Tuple[Tuple[int, ...], ...]:
        """Interior shapes currently cached for the *calling* thread,
        least recently used first (introspection for tests/diagnostics)."""
        cache = getattr(self._scratch, "cache", None)
        return tuple(cache) if cache else ()

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Run one time step: ``dst[interior] = collide(pull(src))``."""
        check_pdf_args(D3Q19, src, dst)
        shape = tuple(s - 2 for s in src.shape[1:])
        rho, inv_rho, ux, uy, uz, usq, t0, t1, t2, t3 = self._get_scratch(shape)
        # O(q) list of zero-copy *views* (no field-sized allocation);
        # caching them is unsound because subregion sweeps pass fresh
        # view objects whose ids can be reused after GC.
        g = [src[(a,) + self._pull[a]] for a in range(19)]  # repro: noqa[KRN001]

        # --- by-direction moment accumulation, all in place ---------------
        np.add(g[0], g[1], out=rho)
        for a in range(2, 19):
            rho += g[a]
        # First-write momentum sums: the first nonzero direction per
        # component writes straight into the accumulator (copy/negate)
        # instead of zero-filling first — this removes three full-field
        # memory passes per step.  Accumulation order per component is
        # identical to the naive fill-then-accumulate loop, and
        # ``copyto(x)`` / ``negative(x)`` match ``0.0 + x`` / ``0.0 - x``
        # bit-for-bit for the strictly positive PDFs of a valid state.
        for acc, terms in zip((ux, uy, uz), self._mom_terms):
            (a0, s0), rest = terms[0], terms[1:]
            if s0 > 0:
                np.copyto(acc, g[a0])
            else:
                np.negative(g[a0], out=acc)
            for a, sgn in rest:
                if sgn > 0:
                    acc += g[a]
                else:
                    acc -= g[a]
        np.divide(1.0, rho, out=inv_rho)
        ux *= inv_rho
        uy *= inv_rho
        uz *= inv_rho
        # usq = 1 - 1.5 (ux^2 + uy^2 + uz^2)
        np.multiply(ux, ux, out=usq)
        np.multiply(uy, uy, out=t0)
        usq += t0
        np.multiply(uz, uz, out=t0)
        usq += t0
        usq *= -1.5
        usq += 1.0

        lam_e, lam_o = self._lam_e, self._lam_o
        interior = self._interior

        # --- rest direction ------------------------------------------------
        # dst0 = g0 + lam_e * (g0 - w0 * rho * usq)
        np.multiply(rho, usq, out=t0)
        t0 *= self._w0
        np.subtract(g[0], t0, out=t1)
        t1 *= lam_e
        np.add(g[0], t1, out=dst[(0,) + interior])

        # --- by-direction pair loop ----------------------------------------
        for a, b, w, e in self._pairs:
            ga, gb = g[a], g[b]
            # t0 := e . u  (only nonzero components touched)
            first = True
            for comp, ucomp in zip(e, (ux, uy, uz)):
                if comp == 0.0:
                    continue
                if first:
                    np.multiply(ucomp, comp, out=t0)
                    first = False
                else:
                    if comp == 1.0:
                        t0 += ucomp
                    else:
                        t0 -= ucomp
            # t1 := w * rho
            np.multiply(rho, w, out=t1)
            # t2 := eq_plus = w rho (usq + 4.5 eu^2)
            np.multiply(t0, t0, out=t2)
            t2 *= 4.5
            t2 += usq
            t2 *= t1
            # t1 := eq_minus = 3 w rho eu
            t1 *= t0
            t1 *= 3.0
            # t0 := sym = lam_e * (0.5 (ga + gb) - eq_plus)
            np.add(ga, gb, out=t0)
            t0 *= 0.5
            t0 -= t2
            t0 *= lam_e
            # t3 := asym = lam_o * (0.5 (ga - gb) - eq_minus)
            np.subtract(ga, gb, out=t3)
            t3 *= 0.5
            t3 -= t1
            t3 *= lam_o
            # dst_a = ga + sym + asym ; dst_b = gb + sym - asym
            out_a = dst[(a,) + interior]
            np.add(ga, t0, out=out_a)
            out_a += t3
            out_b = dst[(b,) + interior]
            np.add(gb, t0, out=out_b)
            out_b -= t3
