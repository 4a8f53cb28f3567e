"""Generated C kernels — the compiled tier.

The paper's fastest kernels run at the memory-bandwidth roofline
(§4.1); NumPy cannot get there because every arithmetic pass of the
``vectorized`` tier streams the whole block through memory once (about
130 passes per call).  This tier follows the code-generation route of
the waLBerla Python extension (pystencils, lbmpy): generate every hot
loop of the time step from one lattice description, compile it once
per process, and call it from Python.

* **Generator.** :func:`generate_source` emits C from :data:`D3Q19` and
  :func:`~repro.lbm.kernels.d3q19.build_pair_table` — the tables the
  NumPy tiers use.  Five loops and a worker pool share one source:

  - the generated **row loop**, which performs, per cell, the same IEEE
    operations in the same order as
    :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`;
  - the **box sweep** (:class:`CompiledD3Q19Kernel`), one row-loop
    call per ``(x, y)`` line of each box of a box table: a kernel call
    sweeps one box, a view's interior, and a table entry (see below)
    all the boxes of one item — a slab, an inner box, a frontier's six
    shells or a whole block;
  - the **sparse sweep** (:class:`CompiledIntervalKernel`, the
    ``interval`` strategy of §4.3), one row-loop call per maximal
    contiguous fluid run of a block;
  - the **boundary links** — NoSlip, UBB and PressureABB loops behind
    one dispatcher, which a boundary-table entry or
    :class:`~repro.lbm.boundary.BoundaryHandling` calls once per block
    and sweep — in the NumPy boundary path's operation order;
  - the **ghost copy**, which
    :class:`~repro.comm.buffersystem.BufferSystem` calls once per rank
    to pack, once per rank for the same-rank copies and once per
    received message to unpack: it walks per-segment plane lists (only
    the PDF directions the receiver pulls) and run tables
    (:func:`ghost_copy_table`) that leave out the cells the sending
    block flags OUTSIDE.  It moves 64-bit words, so every value
    arrives bit for bit;
  - the **entry tables and the worker pool**: ``table_walk`` walks an
    int64 sweep or boundary entry table (:class:`EntryTable`), and
    ``pool_create`` / ``pool_start`` / ``pool_wait`` /
    ``pool_destroy`` run one table per round on ``workers - 1``
    pthreads plus the calling thread (:class:`SweepPool`).

  With ``-ffp-contract=off`` (no fused multiply-add) and no
  ``-ffast-math`` every loop is bit-identical to its NumPy path; the
  NumPy sparse kernels collide in the same order
  (:func:`~repro.lbm.kernels.sparse._collide_packed`), so the dense, the
  sparse and the boundary results do not depend on the backend.
* **Build.** The first :func:`available` call or kernel construction
  compiles the source, once per process, with
  ``cc -O3 -ffp-contract=off -pthread -shared -fPIC`` into a private
  temporary directory and loads it with :mod:`ctypes`.  No
  ``-march=native`` and no OpenMP: an OpenMP region cannot return to
  Python halfway through, and the overlap schedule drains the ghost
  exchange on the calling thread while the pool sweeps.  ``ctypes``
  releases the GIL during every call.
* **Argument checks.** The sweeps pass the data pointers and element
  strides of a field pair to C; the rows along the innermost (z) axis
  must be contiguous, as every view of a C-ordered PDF field is.  The
  boundary loop indexes a whole C-contiguous field by flat spatial
  index.  Before any pointer reaches C the arguments are checked and
  anything a loop cannot read as-is is rejected, never reinterpreted.
* **Entry tables.** A kernel call checks its arguments every time.
  A round of the block schedule
  (:class:`~repro.core.schedule.BlockSweepSchedule`) is instead one
  :class:`EntryTable` over the rank's :class:`GridTable` — one row of
  grid pointers and strides per block — as waLBerla's generated sweeps
  take their per-block arguments once.  Before each round the grid
  table only tests that ``field.src`` / ``field.dst`` are the row's two
  arrays (in either order, for the two-grid swap) and checks any other
  array — the kernel's and the boundary loop's checks and the shape —
  before its address reaches C.  Every participant claims entries
  from one atomic counter; entries write disjoint regions, so the
  result does not depend on the thread count.

:func:`available` tells whether the loops built in this process; the
registry's :func:`~repro.lbm.kernels.registry.default_dense_kernel`
uses it to pick ``compiled`` or ``vectorized``, the same test picks the
``interval`` backend, and boundary handling uses
:func:`boundary_loop` for D3Q19 fields.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Any, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ...errors import ConfigurationError
from ..collision import SRT, TRT
from ..lattice import D3Q19, LatticeModel
from .common import check_pdf_args
from .contracts import allocation_free
from .d3q19 import build_pair_table, momentum_terms
from .sparse import IntervalAccounting, check_mask, fluid_runs

__all__ = [
    "BOUNDARY_KINDS",
    "CompiledD3Q19Kernel",
    "CompiledIntervalKernel",
    "EntryTable",
    "GHOST_SEGMENT_FIELDS",
    "GhostBox",
    "GridTable",
    "SweepPool",
    "available",
    "boundary_loop",
    "boundary_table",
    "check_boundary_field",
    "generate_source",
    "ghost_copy_loop",
    "ghost_copy_table",
    "kernel_table",
]

Collision = Union[SRT, TRT]

#: Exported C entry points: the box (dense) and the sparse sweep, the
#: boundary-link dispatcher, the ghost copy, the table walk and the
#: worker pool.
ENTRIES = {
    "boxes": "d3q19_sweep_boxes",
    "sparse": "d3q19_sparse_sweep",
    "boundary": "d3q19_boundary",
    "ghost_copy": "ghost_copy",
    "table_walk": "table_walk",
    "pool_create": "pool_create",
    "pool_start": "pool_start",
    "pool_wait": "pool_wait",
    "pool_destroy": "pool_destroy",
}

#: How many runs ahead the sparse sweep prefetches a run's rows.
PREFETCH_RUNS = 2

#: Boundary loops by code, as ``d3q19_boundary`` dispatches its ``kind``
#: argument (see :class:`~repro.lbm.boundary.BoundaryHandling`).
BOUNDARY_KINDS = ("noslip", "ubb", "pressure_abb")

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: which round once where NumPy rounds twice; no ``-ffast-math`` (it
#: reassociates) and no ``-march=native`` (the build must not depend on
#: the build host's vector extensions for its results).  ``-pthread``
#: for the worker pool; no OpenMP, whose parallel region cannot return
#: to Python halfway through, as the overlap schedule needs.
CFLAGS = ("-O3", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")

_COMPONENTS = ("ux", "uy", "uz")


def _lit(x: float) -> str:
    """Exact C literal of a double (hexadecimal floating constant)."""
    return float(x).hex()


def _row_function() -> List[str]:
    """C source of one row sweep: ``n`` contiguous cells, pointers
    pre-offset to the row's first cell."""
    q = D3Q19.q
    params = [f"const double *restrict s{a}" for a in range(q)]
    params += [f"double *restrict d{a}" for a in range(q)]
    params += ["ptrdiff_t n", "double lam_e", "double lam_o"]
    out = ["static void row("]
    out.append("    " + ",\n    ".join(params) + ")")
    out.append("{")
    out.append("    for (ptrdiff_t i = 0; i < n; ++i) {")
    for a in range(q):
        out.append(f"        const double g{a} = s{a}[i];")
    # Density: ((g0 + g1) + g2) + ... + g18, as the vectorized tier's
    # add-then-accumulate passes.
    out.append("        double rho = g0 + g1;")
    for a in range(2, q):
        out.append(f"        rho = rho + g{a};")
    # Momentum: the first nonzero direction per component is written
    # (copy or negate), the rest accumulated in direction order.
    for u, terms in zip(_COMPONENTS, momentum_terms(D3Q19)):
        (a0, s0), rest = terms[0], terms[1:]
        out.append(f"        double {u} = {'' if s0 > 0 else '-'}g{a0};")
        for a, sgn in rest:
            out.append(f"        {u} = {u} {'+' if sgn > 0 else '-'} g{a};")
    out.append("        const double inv_rho = 1.0 / rho;")
    for u in _COMPONENTS:
        out.append(f"        {u} = {u} * inv_rho;")
    # usq = ((ux^2 + uy^2) + uz^2) * -1.5 + 1.0
    out.append("        double usq = ux * ux;")
    out.append("        usq = usq + uy * uy;")
    out.append("        usq = usq + uz * uz;")
    out.append("        usq = usq * -1.5;")
    out.append("        usq = usq + 1.0;")
    # Rest direction: g0 + lam_e * (g0 - (rho * usq) * w0).
    w0 = _lit(D3Q19.weights[0])
    out.append(f"        d0[i] = g0 + (g0 - (rho * usq) * {w0}) * lam_e;")
    # Opposite-direction pairs: symmetric / antisymmetric parts.
    for a, b, w, e in build_pair_table(D3Q19):
        eu = None
        for c, u in zip(e, _COMPONENTS):
            if c == 0.0:
                continue
            if eu is None:
                eu = f"{u} * {_lit(c)}"
            else:
                eu = f"({eu}) {'+' if c == 1.0 else '-'} {u}"
        out.append("        {")
        out.append(f"            const double eu = {eu};")
        out.append(f"            const double wrho = rho * {_lit(w)};")
        out.append("            const double eq_plus = ((eu * eu) * 4.5 + usq) * wrho;")
        out.append("            const double eq_minus = (wrho * eu) * 3.0;")
        out.append(f"            const double sym = ((g{a} + g{b}) * 0.5 - eq_plus) * lam_e;")
        out.append(f"            const double asym = ((g{a} - g{b}) * 0.5 - eq_minus) * lam_o;")
        out.append(f"            d{a}[i] = (g{a} + sym) + asym;")
        out.append(f"            d{b}[i] = (g{b} + sym) - asym;")
        out.append("        }")
    out.append("    }")
    out.append("}")
    return out


def _row_pointers(x: str, y: str, z: str) -> List[Tuple[str, str]]:
    """Per direction ``a``, the C expressions of the pull source and the
    destination of padded cell ``(x, y, z)``: cell ``(x, y, z)`` reads
    direction ``a`` from ``(x, y, z) - e_a``."""
    out = []
    for a in range(D3Q19.q):
        ex, ey, ez = (int(c) for c in D3Q19.velocities[a])
        out.append((
            f"src + {a} * sq + ({x} - ({ex})) * sx + ({y} - ({ey})) * sy + ({z} - ({ez}))",
            f"dst + {a} * sq + {x} * sx + {y} * sy + {z}",
        ))
    return out


def _row_call(indent: str, x: str, y: str, z: str, n: str) -> List[str]:
    """C statements that sweep the row of ``n`` cells starting at padded
    cell ``(x, y, z)``: pull pointers, then one :func:`_row_function`
    call."""
    pointers = _row_pointers(x, y, z)
    out = [f"{indent}const double *s{a} = {s};" for a, (s, _) in enumerate(pointers)]
    out += [f"{indent}double *d{a} = {d};" for a, (_, d) in enumerate(pointers)]
    srcs = ", ".join(f"s{a}" for a in range(D3Q19.q))
    dsts = ", ".join(f"d{a}" for a in range(D3Q19.q))
    out.append(f"{indent}row({srcs},\n{indent}    {dsts}, {n}, lam_e, lam_o);")
    return out


def _boxes_function() -> List[str]:
    """C source of the dense sweep: one :func:`_row_function` call per
    ``(x, y)`` line of each box ``(x0, y0, z0, x1, y1, z1)`` of the
    int64 box table (interior coordinates, ``hi`` exclusive)."""
    out = [
        f"void {ENTRIES['boxes']}(const double *src, double *dst,",
        "    const int64_t *boxes, ptrdiff_t nbox,",
        "    ptrdiff_t sq, ptrdiff_t sx, ptrdiff_t sy,",
        "    double lam_e, double lam_o)",
        "{",
        "    for (ptrdiff_t b = 0; b < nbox; ++b) {",
        "        const int64_t *box = boxes + 6 * b;",
        "        const ptrdiff_t z = box[2] + 1, n = box[5] - box[2];",
        "        for (ptrdiff_t x = box[0] + 1; x <= box[3]; ++x) {",
        "            for (ptrdiff_t y = box[1] + 1; y <= box[4]; ++y) {",
    ]
    out += _row_call(" " * 16, "x", "y", "z", "n")
    out += ["            }", "        }", "    }", "}"]
    return out


def _sparse_function() -> List[str]:
    """C source of the sparse sweep: one :func:`_row_function` call per
    run ``(x, y, z0, n)`` of the int64 run table (interior coordinates)."""
    out = [
        f"void {ENTRIES['sparse']}(const double *src, double *dst,",
        "    const int64_t *runs, ptrdiff_t nruns,",
        "    ptrdiff_t sq, ptrdiff_t sx, ptrdiff_t sy,",
        "    double lam_e, double lam_o)",
        "{",
        "    for (ptrdiff_t r = 0; r < nruns; ++r) {",
        "        const int64_t *run = runs + 4 * r;",
        "        const ptrdiff_t x = run[0] + 1, y = run[1] + 1, z = run[2] + 1;",
        f"        if (r + {PREFETCH_RUNS} < nruns) {{",
        f"            const int64_t *next = runs + 4 * (r + {PREFETCH_RUNS});",
        "            const ptrdiff_t px = next[0] + 1, py = next[1] + 1, pz = next[2] + 1;",
        "            const ptrdiff_t last = next[3] - 1;",
    ]
    # Short runs leave 38 streams with gaps that the hardware prefetcher
    # does not follow: fetch both ends of a later run's rows ahead.
    for s_ptr, d_ptr in _row_pointers("px", "py", "pz"):
        out.append(f"            __builtin_prefetch({s_ptr}, 0);")
        out.append(f"            __builtin_prefetch({s_ptr} + last, 0);")
        out.append(f"            __builtin_prefetch({d_ptr}, 1);")
        out.append(f"            __builtin_prefetch({d_ptr} + last, 1);")
    out.append("        }")
    out += _row_call(" " * 8, "x", "y", "z", "run[3]")
    out += ["    }", "}"]
    return out


def _boundary_functions() -> List[str]:
    """C source of the three boundary link loops and their dispatcher.

    Every loop walks the links of one condition direction by direction:
    links of direction ``a`` are ``off[a] .. off[a + 1] - 1`` of the
    ``wall``/``fluid`` flat-index arrays (spatial indices into the
    padded field), and ``coef[a]`` is the condition's per-direction
    coefficient.  Each link reads the fluid cell and writes the wall
    cell, so (with wall and fluid cells disjoint) link order does not
    matter.  PressureABB recomputes the fluid cell's density and
    velocity in the NumPy path's order, ``isfinite -> 0`` guard included.
    """
    q = D3Q19.q
    vel = D3Q19.velocities
    inv = ", ".join(str(int(b)) for b in D3Q19.inverse)
    evec = ", ".join(
        "{" + ", ".join(_lit(float(c)) for c in vel[a]) + "}" for a in range(q)
    )
    link_loop = [
        "    for (int a = 1; a < 19; ++a) {",
        "        double *fa = f + a * sq;",
        "        const double *fb = f + INV[a] * sq;",
    ]
    out = [
        f"static const int INV[19] = {{{inv}}};",
        f"static const double E[19][3] = {{{evec}}};",
        "",
        "static void noslip(double *f, ptrdiff_t sq, const int64_t *wall,",
        "    const int64_t *fluid, const int64_t *off)",
        "{",
        *link_loop,
        "        for (int64_t i = off[a]; i < off[a + 1]; ++i)",
        "            fa[wall[i]] = fb[fluid[i]];",
        "    }",
        "}",
        "",
        "static void ubb(double *f, ptrdiff_t sq, const int64_t *wall,",
        "    const int64_t *fluid, const int64_t *off, const double *coef)",
        "{",
        *link_loop,
        "        const double c = coef[a];",
        "        for (int64_t i = off[a]; i < off[a + 1]; ++i)",
        "            fa[wall[i]] = fb[fluid[i]] + c;",
        "    }",
        "}",
        "",
        "static void pressure_abb(double *f, ptrdiff_t sq, const int64_t *wall,",
        "    const int64_t *fluid, const int64_t *off, const double *coef)",
        "{",
        *link_loop,
        "        const double c = coef[a];",
        "        const double e0 = E[a][0], e1 = E[a][1], e2 = E[a][2];",
        "        for (int64_t i = off[a]; i < off[a + 1]; ++i) {",
        "            const int64_t x = fluid[i];",
    ]
    for b in range(q):
        out.append(f"            const double g{b} = f[{b} * sq + x];")
    out.append("            double rho = g0 + g1;")
    for b in range(2, q):
        out.append(f"            rho = rho + g{b};")
    for comp, u in enumerate(_COMPONENTS):
        j = "j" + u[1]
        out.append(f"            double {j} = 0.0;")
        for b in range(1, q):
            c = int(vel[b, comp])
            if c:
                out.append(f"            {j} = {j} {'+' if c > 0 else '-'} g{b};")
    for u in _COMPONENTS:
        out.append(f"            double {u} = j{u[1]} / rho;")
        out.append(f"            if (!isfinite({u})) {u} = 0.0;")
    out += [
        "            const double eu = (e0 * ux + e1 * uy) + e2 * uz;",
        "            const double usq = (ux * ux + uy * uy) + uz * uz;",
        "            fa[wall[i]] = -fb[x] + c * ((1.0 + (4.5 * eu) * eu) - 1.5 * usq);",
        "        }",
        "    }",
        "}",
        "",
        f"void {ENTRIES['boundary']}(double *f, ptrdiff_t sq, ptrdiff_t ncond,",
        "    const int64_t *kind, const int64_t *wall, const int64_t *fluid,",
        "    const int64_t *off, const double *coef)",
        "{",
        "    for (ptrdiff_t k = 0; k < ncond; ++k) {",
        "        const int64_t *o = off + k * 20;",
        "        const double *c = coef + k * 19;",
        "        switch (kind[k]) {",
    ]
    calls = {
        "noslip": "noslip(f, sq, wall, fluid, o)",
        "ubb": "ubb(f, sq, wall, fluid, o, c)",
        "pressure_abb": "pressure_abb(f, sq, wall, fluid, o, c)",
    }
    for code, kind in enumerate(BOUNDARY_KINDS):
        out.append(f"        case {code}: {calls[kind]}; break;")
    out += ["        }", "    }", "}"]
    return out


#: Fields of one ghost-copy segment record (int64), in table order.
#: ``*_slot`` index the pointer table of a :func:`ghost_copy_loop` call;
#: ``*_1`` / ``*_2`` / ``*_run`` are element strides of the two cross
#: axes and the run axis.  The segment copies, in each of its PDF planes
#: ``plane_lo .. plane_hi - 1`` of the plane table (a plane is the pair
#: of element offsets of its first cell from the two pointers), the
#: whole ``n1 x n2`` box of ``n``-cell lines when ``run_lo < 0``, and
#: otherwise runs ``run_lo .. run_hi - 1`` of the run table.
GHOST_SEGMENT_FIELDS = (
    "src_slot", "dst_slot", "src_1", "dst_1", "src_2", "dst_2",
    "src_run", "dst_run", "n1", "n2", "n", "plane_lo", "plane_hi",
    "run_lo", "run_hi",
)


def _ghost_copy_function() -> List[str]:
    """C source of the ghost copy: per segment, its PDF planes
    outermost, then the box's lines or the segment's runs ``(src_off,
    dst_off, n)`` along the run axis.  Values move as 64-bit words, so
    the copy is bitwise whatever they hold."""
    nf = len(GHOST_SEGMENT_FIELDS)
    field = {name: f"g[{i}]" for i, name in enumerate(GHOST_SEGMENT_FIELDS)}
    return [
        "static inline void copy_run(const uint64_t *restrict a,",
        "    uint64_t *restrict b, ptrdiff_t n, ptrdiff_t sa, ptrdiff_t sb)",
        "{",
        "    if (sa == 1 && sb == 1)",
        "        for (ptrdiff_t i = 0; i < n; ++i) b[i] = a[i];",
        "    else if (sa == 1)",
        "        for (ptrdiff_t i = 0; i < n; ++i) b[i * sb] = a[i];",
        "    else if (sb == 1)",
        "        for (ptrdiff_t i = 0; i < n; ++i) b[i] = a[i * sa];",
        "    else",
        "        for (ptrdiff_t i = 0; i < n; ++i) b[i * sb] = a[i * sa];",
        "}",
        "",
        f"void {ENTRIES['ghost_copy']}(const uintptr_t *ptrs, const int64_t *segs,",
        "    ptrdiff_t nseg, const int64_t *runs, const int64_t *planes)",
        "{",
        "    for (ptrdiff_t k = 0; k < nseg; ++k) {",
        f"        const int64_t *g = segs + {nf} * k;",
        f"        const uint64_t *src = (const uint64_t *)ptrs[{field['src_slot']}];",
        f"        uint64_t *dst = (uint64_t *)ptrs[{field['dst_slot']}];",
        f"        const ptrdiff_t s1 = {field['src_1']}, d1 = {field['dst_1']};",
        f"        const ptrdiff_t s2 = {field['src_2']}, d2 = {field['dst_2']};",
        f"        const ptrdiff_t sr = {field['src_run']}, dr = {field['dst_run']};",
        f"        const ptrdiff_t n1 = {field['n1']}, n2 = {field['n2']}, n = {field['n']};",
        f"        const int64_t *r0 = runs + 3 * {field['run_lo']};",
        f"        const int64_t *r1 = runs + 3 * {field['run_hi']};",
        f"        const int64_t *p1 = planes + 2 * {field['plane_hi']};",
        f"        for (const int64_t *p = planes + 2 * {field['plane_lo']}; p < p1; p += 2) {{",
        "            const uint64_t *sp = src + p[0];",
        "            uint64_t *dp = dst + p[1];",
        f"            if ({field['run_lo']} < 0) {{",
        "                for (ptrdiff_t i1 = 0; i1 < n1; ++i1)",
        "                    for (ptrdiff_t i2 = 0; i2 < n2; ++i2)",
        "                        copy_run(sp + i1 * s1 + i2 * s2, dp + i1 * d1 + i2 * d2,",
        "                                 n, sr, dr);",
        "            } else {",
        "                for (const int64_t *r = r0; r < r1; r += 3)",
        "                    copy_run(sp + r[0], dp + r[1], r[2], sr, dr);",
        "            }",
        "        }",
        "    }",
        "}",
    ]


#: Int64 fields of one row of a :class:`GridTable` (element strides
#: ``sq`` / ``sx`` / ``sy`` of the pair; the innermost stride is 1).
GRID_FIELDS = ("src", "dst", "sq", "sx", "sy")
#: Int64 fields of one sweep-table entry: the block's grid-table row,
#: :data:`SWEEP_KINDS` code, box or run table address and length, and
#: the two collision rates (their float64 bits).
SWEEP_FIELDS = ("grid", "kind", "table", "n", "lam_e", "lam_o")
#: Int64 fields of one boundary-table entry: the block's grid-table row,
#: its condition count and the addresses of its link tables (see
#: :class:`~repro.lbm.boundary.BoundaryHandling`).
BOUNDARY_FIELDS = ("grid", "ncond", "kind", "wall", "fluid", "off", "coef")
#: Sweep-entry kinds: a box table (dense) or a run table (``interval``).
SWEEP_KINDS = ("boxes", "runs")
#: Table operations, as ``table_walk`` and ``pool_start`` take them.
TABLE_OPS = ("sweep", "boundary")


def _table_functions() -> List[str]:
    """C source of the table walks and the worker pool.

    ``table_walk`` runs entries ``0 .. n - 1`` of a table on the calling
    thread.  The pool runs one table per round on
    ``nthreads`` pthreads plus the thread that calls ``pool_wait``:
    every participant claims the next entry from one atomic counter, so
    the entries (which write disjoint regions) may run in any order on
    any thread.  ``pool_wait`` returns once every entry has run; a
    thread that woke too late to claim one is waited for only by the
    next ``pool_start``.  Per participant (the caller is 0) the pool
    records busy wall and CPU seconds and the entries claimed, and per
    entry its wall seconds.
    """
    g = {name: i for i, name in enumerate(GRID_FIELDS)}
    sw = {name: i for i, name in enumerate(SWEEP_FIELDS)}
    bd = {name: i for i, name in enumerate(BOUNDARY_FIELDS)}
    boxes, runs = SWEEP_KINDS.index("boxes"), SWEEP_KINDS.index("runs")

    def at(table: str, fields: dict, name: str) -> str:
        return f"{table}[{fields[name]}]"

    def ptr(ctype: str, expr: str) -> str:
        return f"({ctype} *)(uintptr_t){expr}"

    row = f"grid + {len(GRID_FIELDS)} * e"
    strides = f"{at('g', g, 'sq')}, {at('g', g, 'sx')}, {at('g', g, 'sy')}"
    links = ", ".join(
        ptr("const int64_t", at("e", bd, name)) for name in ("kind", "wall", "fluid", "off")
    )
    return [
        "static double seconds(clockid_t clock)",
        "{",
        "    struct timespec t;",
        "    clock_gettime(clock, &t);",
        "    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;",
        "}",
        "",
        "static void sweep_entry(const int64_t *grid, const int64_t *e)",
        "{",
        f"    const int64_t *g = {row}[{sw['grid']}];",
        "    double lam_e, lam_o;",
        f"    memcpy(&lam_e, e + {sw['lam_e']}, sizeof lam_e);",
        f"    memcpy(&lam_o, e + {sw['lam_o']}, sizeof lam_o);",
        f"    const double *src = {ptr('const double', at('g', g, 'src'))};",
        f"    double *dst = {ptr('double', at('g', g, 'dst'))};",
        f"    const int64_t *t = {ptr('const int64_t', at('e', sw, 'table'))};",
        f"    if ({at('e', sw, 'kind')} == {boxes})",
        f"        {ENTRIES['boxes']}(src, dst, t, {at('e', sw, 'n')}, {strides}, lam_e, lam_o);",
        f"    else if ({at('e', sw, 'kind')} == {runs})",
        f"        {ENTRIES['sparse']}(src, dst, t, {at('e', sw, 'n')}, {strides}, lam_e, lam_o);",
        "}",
        "",
        "static void boundary_entry(const int64_t *grid, const int64_t *e)",
        "{",
        f"    const int64_t *g = {row}[{bd['grid']}];",
        f"    {ENTRIES['boundary']}({ptr('double', at('g', g, 'src'))}, {at('g', g, 'sq')},",
        f"        {at('e', bd, 'ncond')}, {links},",
        f"        {ptr('const double', at('e', bd, 'coef'))});",
        "}",
        "",
        "typedef void (*entry_fn)(const int64_t *, const int64_t *);",
        "static const entry_fn ENTRY_FN[2] = {sweep_entry, boundary_entry};",
        f"static const ptrdiff_t ENTRY_W[2] = {{{len(SWEEP_FIELDS)}, {len(BOUNDARY_FIELDS)}}};",
        "",
        f"void {ENTRIES['table_walk']}(int op, const int64_t *grid, const int64_t *entries,",
        "    ptrdiff_t n, double *times)",
        "{",
        "    for (ptrdiff_t i = 0; i < n; ++i) {",
        "        const double t0 = seconds(CLOCK_MONOTONIC);",
        "        ENTRY_FN[op](grid, entries + ENTRY_W[op] * i);",
        "        times[i] = seconds(CLOCK_MONOTONIC) - t0;",
        "    }",
        "}",
        "",
        "typedef struct pool pool_t;",
        "typedef struct { pool_t *pool; int id; } worker_t;",
        "",
        "struct pool {",
        "    pthread_mutex_t mu;",
        "    pthread_cond_t go, done, idle;",
        "    pthread_t *threads;",
        "    worker_t *workers;",
        "    int nthreads, busy, stop;",
        "    uint64_t epoch;",
        "    pid_t pid;",
        "    /* The round: written under mu while no thread is busy. */",
        "    int op;",
        "    const int64_t *grid, *entries;",
        "    ptrdiff_t n, next, finished;",
        "    double *times;",
        "    /* Per participant; the caller is 0. */",
        "    double *wall, *cpu;",
        "    int64_t *count;",
        "};",
        "",
        "/* Claim and run entries until none is left; returns how many ran. */",
        "static ptrdiff_t participate(pool_t *p, int id)",
        "{",
        "    ptrdiff_t i = __atomic_fetch_add(&p->next, 1, __ATOMIC_RELAXED);",
        "    if (i >= p->n)",
        "        return 0;",
        "    const double w0 = seconds(CLOCK_MONOTONIC);",
        "    const double c0 = seconds(CLOCK_THREAD_CPUTIME_ID);",
        "    const entry_fn fn = ENTRY_FN[p->op];",
        "    const ptrdiff_t width = ENTRY_W[p->op];",
        "    ptrdiff_t k = 0;",
        "    for (; i < p->n; i = __atomic_fetch_add(&p->next, 1, __ATOMIC_RELAXED)) {",
        "        const double t0 = seconds(CLOCK_MONOTONIC);",
        "        fn(p->grid, p->entries + width * i);",
        "        p->times[i] = seconds(CLOCK_MONOTONIC) - t0;",
        "        ++k;",
        "    }",
        "    p->wall[id] = seconds(CLOCK_MONOTONIC) - w0;",
        "    p->cpu[id] = seconds(CLOCK_THREAD_CPUTIME_ID) - c0;",
        "    p->count[id] = k;",
        "    return k;",
        "}",
        "",
        "static void *worker_main(void *arg)",
        "{",
        "    pool_t *p = ((worker_t *)arg)->pool;",
        "    const int id = ((worker_t *)arg)->id;",
        "    uint64_t seen = 0;",
        "    pthread_mutex_lock(&p->mu);",
        "    for (;;) {",
        "        while (!p->stop && p->epoch == seen)",
        "            pthread_cond_wait(&p->go, &p->mu);",
        "        if (p->stop)",
        "            break;",
        "        seen = p->epoch;",
        "        pthread_mutex_unlock(&p->mu);",
        "        const ptrdiff_t k = participate(p, id);",
        "        pthread_mutex_lock(&p->mu);",
        "        p->finished += k;",
        "        if (k && p->finished == p->n)",
        "            pthread_cond_signal(&p->done);",
        "        if (--p->busy == 0)",
        "            pthread_cond_signal(&p->idle);",
        "    }",
        "    pthread_mutex_unlock(&p->mu);",
        "    return NULL;",
        "}",
        "",
        "static void pool_free(pool_t *p)",
        "{",
        "    pthread_mutex_lock(&p->mu);",
        "    p->stop = 1;",
        "    pthread_cond_broadcast(&p->go);",
        "    pthread_mutex_unlock(&p->mu);",
        "    for (int t = 0; t < p->nthreads; ++t)",
        "        pthread_join(p->threads[t], NULL);",
        "    pthread_cond_destroy(&p->go);",
        "    pthread_cond_destroy(&p->done);",
        "    pthread_cond_destroy(&p->idle);",
        "    pthread_mutex_destroy(&p->mu);",
        "    free(p->threads);",
        "    free(p->workers);",
        "    free(p);",
        "}",
        "",
        f"void *{ENTRIES['pool_create']}(int nthreads, double *wall, double *cpu, int64_t *count)",
        "{",
        "    pool_t *p = calloc(1, sizeof *p);",
        "    if (p == NULL)",
        "        return NULL;",
        "    p->threads = calloc(nthreads > 0 ? nthreads : 1, sizeof *p->threads);",
        "    p->workers = calloc(nthreads > 0 ? nthreads : 1, sizeof *p->workers);",
        "    if (p->threads == NULL || p->workers == NULL) {",
        "        free(p->threads);",
        "        free(p->workers);",
        "        free(p);",
        "        return NULL;",
        "    }",
        "    pthread_mutex_init(&p->mu, NULL);",
        "    pthread_cond_init(&p->go, NULL);",
        "    pthread_cond_init(&p->done, NULL);",
        "    pthread_cond_init(&p->idle, NULL);",
        "    p->pid = getpid();",
        "    p->wall = wall;",
        "    p->cpu = cpu;",
        "    p->count = count;",
        "    /* Signals stay with the process's own threads. */",
        "    sigset_t all, old;",
        "    sigfillset(&all);",
        "    pthread_sigmask(SIG_SETMASK, &all, &old);",
        "    for (int t = 0; t < nthreads; ++t) {",
        "        p->workers[t].pool = p;",
        "        p->workers[t].id = t + 1;",
        "        if (pthread_create(&p->threads[t], NULL, worker_main, &p->workers[t]) != 0)",
        "            break;",
        "        p->nthreads = t + 1;",
        "    }",
        "    pthread_sigmask(SIG_SETMASK, &old, NULL);",
        "    if (p->nthreads != nthreads) {",
        "        pool_free(p);",
        "        return NULL;",
        "    }",
        "    return p;",
        "}",
        "",
        f"void {ENTRIES['pool_start']}(void *pool, int op, const int64_t *grid,",
        "    const int64_t *entries, ptrdiff_t n, double *times)",
        "{",
        "    pool_t *p = pool;",
        "    pthread_mutex_lock(&p->mu);",
        "    while (p->busy)",
        "        pthread_cond_wait(&p->idle, &p->mu);",
        "    p->op = op;",
        "    p->grid = grid;",
        "    p->entries = entries;",
        "    p->n = n;",
        "    p->times = times;",
        "    p->next = 0;",
        "    p->finished = 0;",
        "    for (int t = 0; t <= p->nthreads; ++t) {",
        "        p->wall[t] = p->cpu[t] = 0.0;",
        "        p->count[t] = 0;",
        "    }",
        "    p->busy = p->nthreads;",
        "    ++p->epoch;",
        "    pthread_cond_broadcast(&p->go);",
        "    pthread_mutex_unlock(&p->mu);",
        "}",
        "",
        f"void {ENTRIES['pool_wait']}(void *pool)",
        "{",
        "    pool_t *p = pool;",
        "    const ptrdiff_t k = participate(p, 0);",
        "    pthread_mutex_lock(&p->mu);",
        "    p->finished += k;",
        "    while (p->finished < p->n)",
        "        pthread_cond_wait(&p->done, &p->mu);",
        "    pthread_mutex_unlock(&p->mu);",
        "}",
        "",
        f"void {ENTRIES['pool_destroy']}(void *pool)",
        "{",
        "    pool_t *p = pool;",
        "    /* A forked child has none of its parent's threads to join. */",
        "    if (p->pid == getpid())",
        "        pool_free(p);",
        "}",
    ]


def generate_source() -> str:
    """C source of the compiled tier: five generated loops over one
    D3Q19 SoA layout, and the tables and pool that run them (SRT runs
    as TRT with ``lam_e == lam_o``, exactly as in the NumPy tiers).

    * ``d3q19_sweep_boxes(src, dst, boxes, nbox, sq, sx, sy, lam_e,
      lam_o)`` sweeps the ``nbox`` boxes ``(x0, y0, z0, x1, y1, z1)``
      (interior coordinates, ``hi`` exclusive) of an int64 box table
      over a halo-inclusive field pair whose element strides are ``sq``
      (PDF axis), ``sx`` / ``sy`` (outer cell axes) and 1 (innermost
      axis);
    * ``d3q19_sparse_sweep(src, dst, runs, nruns, sq, sx, sy, lam_e,
      lam_o)`` sweeps the ``nruns`` contiguous fluid runs ``(x, y, z0,
      n)`` of an int64 run table, same layout;
    * ``d3q19_boundary(f, sq, ncond, kind, wall, fluid, off, coef)``
      applies ``ncond`` boundary conditions (``kind`` indexes
      :data:`BOUNDARY_KINDS`) to a C-contiguous field through their
      concatenated link tables: condition ``k``'s direction-``a`` links
      are ``off[k, a] .. off[k, a + 1] - 1``, its coefficients
      ``coef[k, :]``;
    * ``ghost_copy(ptrs, segs, nseg, runs, planes)`` copies the
      ``nseg`` regions of a segment table (:data:`GHOST_SEGMENT_FIELDS`,
      built with its run and plane tables by :func:`ghost_copy_table`)
      between the arrays of the pointer table ``ptrs``;
    * ``table_walk(op, grid, entries, n, times)`` runs entries ``0 ..
      n - 1`` of a table (``op`` indexes :data:`TABLE_OPS`; the entries
      are :data:`SWEEP_FIELDS` or :data:`BOUNDARY_FIELDS`) over the grid
      rows of ``grid`` (:data:`GRID_FIELDS`) and writes each entry's
      wall seconds to ``times``;
    * ``pool_create(nthreads, wall, cpu, count)`` starts ``nthreads``
      pthreads, ``pool_start(pool, op, grid, entries, n, times)`` hands
      them a table (``op`` indexes :data:`TABLE_OPS`) and returns,
      ``pool_wait(pool)`` runs entries on the caller until none is left
      and returns once all have run, ``pool_destroy(pool)`` joins the
      threads; see :func:`_table_functions`.

    Both sweeps call the same generated row loop, so the dense and the
    sparse path perform the same IEEE operations per cell.
    """
    lines = [
        "/* Generated by repro.lbm.kernels.compiled: D3Q19 fused",
        " * pull-stream-collide (dense and sparse sweeps, SRT/TRT, two-grid,",
        " * SoA with contiguous rows), link-wise boundary conditions, the",
        " * ghost-region copy, and the entry tables and worker pool. */",
        "#define _GNU_SOURCE",
        "#include <math.h>",
        "#include <pthread.h>",
        "#include <signal.h>",
        "#include <stddef.h>",
        "#include <stdint.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "#include <time.h>",
        "#include <unistd.h>",
        "",
    ]
    for part in (_row_function(), _boxes_function(), _sparse_function(),
                 _boundary_functions(), _ghost_copy_function(), _table_functions()):
        lines += part
        lines.append("")
    return "\n".join(lines)


class _Build(NamedTuple):
    """Outcome of this process's one build attempt: the loaded entry
    points, or ``None`` and the reason they are missing."""

    boxes: Any = None
    sparse: Any = None
    boundary: Any = None
    ghost_copy: Any = None
    table_walk: Any = None
    pool_create: Any = None
    pool_start: Any = None
    pool_wait: Any = None
    pool_destroy: Any = None
    reason: str = ""


_lock = threading.Lock()
_build: Optional[_Build] = None

#: ctypes argument types of each entry point.
_ARGTYPES = {
    "boxes": [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 4 + [ctypes.c_double] * 2,
    "sparse": [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 4 + [ctypes.c_double] * 2,
    "boundary": [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t]
    + [ctypes.c_void_p] * 5,
    "ghost_copy": [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t]
    + [ctypes.c_void_p] * 2,
    "table_walk": [ctypes.c_int] + [ctypes.c_void_p] * 2
    + [ctypes.c_ssize_t, ctypes.c_void_p],
    "pool_create": [ctypes.c_int] + [ctypes.c_void_p] * 3,
    "pool_start": [ctypes.c_void_p, ctypes.c_int] + [ctypes.c_void_p] * 2
    + [ctypes.c_ssize_t, ctypes.c_void_p],
    "pool_wait": [ctypes.c_void_p],
    "pool_destroy": [ctypes.c_void_p],
}


def _compile_and_load() -> _Build:
    """Generate, compile and load the loops; never raises."""
    cc = shutil.which("cc")
    if cc is None:
        return _Build(reason="no C compiler ('cc') on PATH")
    try:
        tmp = tempfile.mkdtemp(prefix="repro-kernel-")
    except OSError as exc:
        return _Build(reason=f"cannot create a build directory: {exc}")
    try:
        c_file = Path(tmp) / "d3q19.c"
        so_file = Path(tmp) / "d3q19.so"
        try:
            c_file.write_text(generate_source())
        except OSError as exc:
            return _Build(reason=f"cannot write the kernel source: {exc}")
        try:
            proc = subprocess.run(
                [cc, *CFLAGS, "-o", str(so_file), str(c_file)],
                capture_output=True,
                text=True,
                timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return _Build(reason=f"cannot run {cc}: {exc}")
        if proc.returncode != 0:
            return _Build(reason=f"{cc} failed: {proc.stderr.strip()}")
        try:
            lib = ctypes.CDLL(str(so_file))
        except OSError as exc:
            return _Build(reason=f"cannot load the compiled kernel: {exc}")
    finally:
        # The loaded library stays mapped after its file is removed.
        shutil.rmtree(tmp, ignore_errors=True)
    fns = {}
    for key, symbol in ENTRIES.items():
        fn = getattr(lib, symbol)
        fn.argtypes = _ARGTYPES[key]
        fn.restype = ctypes.c_void_p if key == "pool_create" else None
        fns[key] = fn
    return _Build(**fns)


def _get_build() -> _Build:
    """This process's build, attempting it on first use."""
    global _build
    with _lock:
        if _build is None:
            _build = _compile_and_load()
        return _build


def available() -> bool:
    """Whether the compiled loops built and loaded in this process
    (builds them on first call)."""
    return _get_build().boxes is not None


def _require(key: str) -> Any:
    """The loaded entry point ``key``; raises
    :class:`~repro.errors.ConfigurationError` with the build failure."""
    build = _get_build()
    fn = getattr(build, key)
    if fn is None:
        raise ConfigurationError(f"compiled kernel tier unavailable: {build.reason}")
    return fn


def _lambdas(collision: Collision) -> Tuple[float, float]:
    """``(lambda_e, lambda_o)``; SRT runs as TRT with equal rates."""
    if isinstance(collision, SRT):
        return -1.0 / collision.tau, -1.0 / collision.tau
    return collision.lambda_e, collision.lambda_o


def _check_buffers(src: np.ndarray, dst: np.ndarray) -> None:
    """Reject arrays the C loop cannot read through (pointer, strides)."""
    if src.dtype != np.float64 or dst.dtype != np.float64:
        raise ValueError(
            f"compiled kernel needs float64 fields, got {src.dtype}/{dst.dtype}"
        )
    if not (src.flags.aligned and dst.flags.aligned):
        raise ValueError("compiled kernel needs aligned arrays")
    if not dst.flags.writeable:
        raise ValueError("compiled kernel needs a writeable dst")
    if src.strides != dst.strides:
        raise ValueError(f"src strides {src.strides} != dst strides {dst.strides}")
    for s in src.strides:
        if s % 8:
            raise ValueError(f"strides {src.strides} are not multiples of 8 bytes")
    if src.strides[-1] != 8:
        raise ValueError(
            f"compiled kernel needs contiguous rows (innermost stride 8 B), "
            f"got strides {src.strides}"
        )
    if np.may_share_memory(src, dst):
        raise ValueError("src and dst must not overlap (two-grid scheme)")


def _box_table(boxes, cells: Tuple[int, ...]) -> np.ndarray:
    """Box table of ``boxes`` (:data:`~repro.lbm.kernels.common.Box`):
    one int64 row ``(x0, y0, z0, x1, y1, z1)`` per box, C order.
    Rejects a box that does not lie in an interior of ``cells``."""
    table = np.array(
        [tuple(lo) + tuple(hi) for lo, hi in boxes], dtype=np.int64
    ).reshape(-1, 6)
    lo, hi = table[:, :3], table[:, 3:]
    if (lo < 0).any() or (hi < lo).any() or (hi > np.asarray(cells)).any():
        raise ValueError(f"boxes {list(boxes)} do not lie in an interior of {cells} cells")
    return table


@allocation_free(steady_state=True)
class CompiledD3Q19Kernel:
    """Fused D3Q19 stream-collide step in generated, compiled C.

    Bit-identical to :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`
    on any halo-inclusive view with contiguous rows; owns no scratch
    memory.  A call sweeps one box, the view's interior;
    :meth:`table_entry` describes any list of boxes of one block as one
    entry of a :class:`EntryTable`.
    Construction builds the library on first use and raises
    :class:`~repro.errors.ConfigurationError` if it cannot.
    """

    name = "compiled"
    model: LatticeModel = D3Q19

    def __init__(self, collision: Collision):
        self.collision = collision
        self._lam_e, self._lam_o = _lambdas(collision)
        self._fn = _require("boxes")
        #: Per view shape: the one-box table of its interior and its address.
        self._views: dict = {}

    def check(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Reject a pair the box sweep cannot read as-is."""
        check_pdf_args(D3Q19, src, dst)
        _check_buffers(src, dst)

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Run one time step: ``dst[interior] = collide(pull(src))``."""
        self.check(src, dst)
        view = self._views.get(src.shape)
        if view is None:
            table = _box_table([((0, 0, 0), tuple(n - 2 for n in src.shape[1:]))],
                               src.shape[1:])
            view = self._views[src.shape] = (table, table.ctypes.data)
        sq, sx, sy, _ = src.strides
        self._fn(
            src.ctypes.data, dst.ctypes.data, view[1], 1,
            sq // 8, sx // 8, sy // 8, self._lam_e, self._lam_o,
        )

    def table_entry(self, boxes, cells: Tuple[int, ...]) -> Tuple[str, np.ndarray, float, float]:
        """``(kind, table, lam_e, lam_o)`` of a sweep-table entry over
        ``boxes`` (a list of :data:`~repro.lbm.kernels.common.Box`;
        ``None``: the whole interior) of a block of ``cells`` interior
        cells; rejects a box outside that interior."""
        table = _box_table([((0, 0, 0), cells)] if boxes is None else boxes, cells)
        return "boxes", table, self._lam_e, self._lam_o

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<compiled kernel, D3Q19, {self.collision}>"


@allocation_free(steady_state=True)
class CompiledIntervalKernel(IntervalAccounting):
    """The ``interval`` sparse strategy (§4.3) in generated, compiled C.

    Sweeps every maximal contiguous fluid run of the block with the
    dense tier's row loop, so each fluid cell gets the operations of
    :class:`CompiledD3Q19Kernel` — and, with the shared operation order,
    of the NumPy :class:`~repro.lbm.kernels.sparse.IntervalSparseKernel`,
    bit for bit.  Writes fluid cells only.  The run table ``(x, y, z0,
    n)`` is built once here; the kernel owns no scratch memory.
    Accounting (``fluid_cells``, ``processed_cells``, ``intervals``)
    is the NumPy strategy's, so both backends report the same rates.
    """

    model: LatticeModel = D3Q19

    def __init__(self, mask: np.ndarray, collision: Collision):
        super().__init__(mask, collision)
        self._lam_e, self._lam_o = _lambdas(collision)
        self._fn = _require("sparse")
        #: Contiguous fluid runs ``(x, y, z0, n)``, int64, C order.
        self.runs = fluid_runs(self.mask)
        self._runs_ptr = self.runs.ctypes.data

    def check(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Reject a pair the run table cannot sweep."""
        check_pdf_args(D3Q19, src, dst)
        check_mask(self.mask, src)
        _check_buffers(src, dst)

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Run one time step on the fluid cells of ``mask``."""
        self.check(src, dst)
        sq, sx, sy, _ = src.strides
        self._fn(
            src.ctypes.data, dst.ctypes.data,
            self._runs_ptr, self.runs.shape[0],
            sq // 8, sx // 8, sy // 8,
            self._lam_e, self._lam_o,
        )

    def table_entry(self, boxes, cells: Tuple[int, ...]) -> Tuple[str, np.ndarray, float, float]:
        """``(kind, table, lam_e, lam_o)`` of a sweep-table entry over
        the run table.  A sparse block is swept whole: ``boxes`` must be
        ``None`` and ``cells`` the mask's shape."""
        if boxes is not None:
            raise ValueError("the interval kernel sweeps whole blocks; boxes must be None")
        if tuple(cells) != self.mask.shape:
            raise ValueError(f"block of {tuple(cells)} cells != mask {self.mask.shape}")
        return "runs", self.runs, self._lam_e, self._lam_o

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<compiled interval kernel, {len(self.runs)} runs, {self.collision}>"


@allocation_free(steady_state=True, warmup=("_bind",))
class GridTable:
    """One rank's table of the grid pairs its entry tables sweep: an
    int64 row (:data:`GRID_FIELDS`) per block.

    Blocks join while the tables are built (:meth:`slot`), each with
    the checks its entries need; no pointer is read then.  Before each
    round :meth:`refresh` tests that each block's ``(field.src,
    field.dst)`` is the pair in its row, in either order: a swapped
    pair flips the row's two pointers, and any other pair runs the
    shape test and every check of the block before its addresses enter
    the row (a failed check raises :class:`ValueError` and leaves the
    row as it was).  The table keeps the arrays of every row alive.
    """

    def __init__(self, capacity: int):
        #: Rows, C order; the tables' C walks read them.
        self.rows = np.zeros((capacity, len(GRID_FIELDS)), dtype=np.int64)
        self._words = memoryview(self.rows).cast("B").cast("q")
        self._slot_of: dict = {}
        self._fields: list = []
        self._shapes: list = []
        self._checks: list = []
        self._a: list = []
        self._b: list = []

    def slot(self, field, check) -> int:
        """Row of ``field`` (a :class:`~repro.core.field.PdfField`),
        added on first use; ``check(src, dst)`` joins the checks of its
        next pair.  The row's shape is that of the current grids."""
        i = self._slot_of.get(id(field))
        if i is None:
            if len(self._fields) == len(self.rows):
                raise ValueError(f"grid table holds {len(self.rows)} blocks")
            i = self._slot_of[id(field)] = len(self._fields)
            self._fields.append(field)
            self._shapes.append(field.src.shape)
            self._checks.append([])
            self._a.append(None)
            self._b.append(None)
        if check not in self._checks[i]:
            self._checks[i].append(check)
            self._a[i] = self._b[i] = None
        return i

    def refresh(self) -> None:
        """Bring every row up to its field's current pair (see above)."""
        words, width = self._words, len(GRID_FIELDS)
        a, b = self._a, self._b
        for i, field in enumerate(self._fields):
            src, dst = field.src, field.dst
            if src is a[i] and dst is b[i]:
                continue
            if src is b[i] and dst is a[i]:
                a[i], b[i] = src, dst
                j = width * i
                words[j], words[j + 1] = words[j + 1], words[j]
            else:
                self._bind(i, src, dst)

    def _bind(self, i: int, src: np.ndarray, dst: np.ndarray) -> None:
        shape = self._shapes[i]
        if src.shape != shape or dst.shape != shape:
            raise ValueError(
                f"grid shapes {src.shape} / {dst.shape} != {shape}, "
                "the shape the block's entries are bound to"
            )
        for check in self._checks[i]:
            check(src, dst)
        sq, sx, sy = (s // 8 for s in src.strides[:3])
        self.rows[i] = (src.ctypes.data, dst.ctypes.data, sq, sx, sy)
        self._a[i], self._b[i] = src, dst


def _bits(x: float) -> int:
    """The float64 bits of ``x`` as an int64."""
    return int(np.float64(x).view(np.int64))


@allocation_free(steady_state=True, warmup=("_build",))
class EntryTable:
    """One round of compiled work: entries over a :class:`GridTable`,
    walked by one C call (:meth:`run`, on the calling thread) or by a
    :class:`SweepPool` round.

    Made by :func:`kernel_table` and :func:`boundary_table` from one
    item per block, slab or frontier, and built on first use, so that
    set-up reads no grid and makes no table.  The entries are ordered
    by decreasing cost, so that participants claiming the next one
    balance their load.  The table keeps every box, run and link array
    an entry points to.  A round is :meth:`prepare` (refresh the grid
    pointers), the walk (:meth:`run` or a pool round), then
    :meth:`finish`, which records one ``tier:<name>`` timer per kernel
    name — the summed wall time of its entries — under the scope that
    was current at :meth:`prepare`.
    """

    def __init__(self, grids: GridTable, op: str, items, make_row, tree=None):
        self.grids = grids
        self._op = op
        self._items = list(items)
        self._make_row = make_row
        self._tree = tree
        self._anchor = None
        #: ``table_walk`` / ``pool_start`` arguments (``None`` until built).
        self.args: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._items)

    def _build(self) -> None:
        """Make the entries: per item ``make_row(grids, item)`` gives
        ``(row, cost, tier, keep)`` and registers the block's checks."""
        made = [self._make_row(self.grids, item) for item in self._items]
        order = sorted(range(len(made)), key=lambda k: (-made[k][1], k))
        self.entries = np.array([made[k][0] for k in order], dtype=np.int64)
        self.times = np.zeros(len(made))
        self._keep = [m[3] for m in made]
        names = [made[k][2] for k in order]
        self._tiers = [
            (name, np.array([n == name for n in names], dtype=np.float64))
            for name in dict.fromkeys(n for n in names if n is not None)
        ]
        self._walk = _require("table_walk")
        self.args = (
            TABLE_OPS.index(self._op), self.grids.rows.ctypes.data,
            self.entries.ctypes.data, len(made), self.times.ctypes.data,
        )

    def prepare(self) -> None:
        """Refresh the grid pointers (may raise :class:`ValueError`, then
        nothing has run) and note the scope the round records under."""
        if self.args is None:
            self._build()
        self.grids.refresh()
        if self._tree is not None:
            self._anchor = self._tree.current

    def run(self) -> None:
        """Walk every entry on the calling thread, in one C call, through
        the grid pointers of the last refresh."""
        if self.args is None:
            self._build()
        self._walk(*self.args)

    def finish(self) -> None:
        """Record the round's per-name kernel timers."""
        anchor, self._anchor = self._anchor, None
        if anchor is None:
            return
        for name, weights in self._tiers:
            self._tree.record_at(anchor, name, float(weights @ self.times))


def _sweep_row(grids: GridTable, item):
    field, kernel, boxes, cost, tier = item
    cells = tuple(n - 2 for n in field.src.shape[1:])
    kind, table, lam_e, lam_o = kernel.table_entry(boxes, cells)
    row = (
        grids.slot(field, kernel.check), SWEEP_KINDS.index(kind), table.ctypes.data,
        len(table), _bits(lam_e), _bits(lam_o),
    )
    return row, cost, tier, table


def kernel_table(grids: GridTable, items, tree=None) -> EntryTable:
    """The sweep table of ``items``, one ``(field, kernel, boxes, cost,
    tier)`` per block, slab or frontier: ``kernel`` is a compiled kernel
    (its :meth:`~CompiledD3Q19Kernel.table_entry` gives the entry and
    its ``check`` joins the block's grid checks), ``tier`` the timer
    name its entries record into ``tree``."""
    return EntryTable(grids, "sweep", items, _sweep_row, tree)


def _boundary_row(grids: GridTable, item):
    field, check, get_links, cost = item
    links = get_links()
    for arr, dtype in zip(links, (np.int64,) * 4 + (np.float64,)):
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise ValueError(f"link table must be C-contiguous {np.dtype(dtype)}")
    row = (grids.slot(field, check), len(links[0]), *(arr.ctypes.data for arr in links))
    return row, cost, None, links


def boundary_table(grids: GridTable, items) -> EntryTable:
    """The boundary table of ``items``, one ``(field, check, links,
    cost)`` per block: ``links()`` gives ``(kind, wall, fluid, off,
    coef)`` (see
    :meth:`~repro.lbm.boundary.BoundaryHandling.table_links`), and
    ``check`` joins the block's grid checks."""
    return EntryTable(grids, "boundary", items, _boundary_row)


def _destroy_pool(destroy, ptr: int, stats) -> None:
    """Stop and join a pool's threads (the C side skips a pool this
    process did not create); ``stats`` stay alive until then."""
    destroy(ptr)


class SweepPool:
    """``workers - 1`` pthreads of the generated library that run
    :class:`EntryTable` rounds with the calling thread.

    :meth:`start` hands a table to the threads and returns at once;
    :meth:`wait` makes the caller claim entries too and returns once
    every entry has run.  Per participant (the caller is 0) ``wall``,
    ``cpu`` and ``count`` hold the last round's busy wall and CPU
    seconds and entries claimed.  :meth:`close`, or the garbage
    collection of the pool, joins the threads; in a forked child the
    threads are the parent's, so ``pid`` tells its owner to build a new
    pool there and the old one is never waited on.
    """

    def __init__(self, workers: int):
        build = _get_build()
        if build.pool_create is None:
            raise ConfigurationError(f"compiled kernel tier unavailable: {build.reason}")
        self.workers = int(workers)
        self.wall = np.zeros(self.workers)
        self.cpu = np.zeros(self.workers)
        self.count = np.zeros(self.workers, dtype=np.int64)
        ptr = build.pool_create(
            self.workers - 1, self.wall.ctypes.data, self.cpu.ctypes.data,
            self.count.ctypes.data,
        )
        if not ptr:
            raise OSError(f"cannot start {self.workers - 1} sweep pool threads")
        self.pid = os.getpid()
        self._ptr = ptr
        self._start = build.pool_start
        self._wait = build.pool_wait
        self.close = weakref.finalize(
            self, _destroy_pool, build.pool_destroy, ptr, (self.wall, self.cpu, self.count)
        )

    def start(self, table: EntryTable) -> None:
        """Start a round over ``table`` (already prepared)."""
        self._start(self._ptr, *table.args)

    def wait(self) -> None:
        """Join the round on the calling thread until every entry ran."""
        self._wait(self._ptr)


def check_boundary_field(f: np.ndarray, shape: Tuple[int, ...]) -> None:
    """Reject a PDF field the boundary loop cannot index as-is: it needs
    a writeable, aligned, C-contiguous float64 D3Q19 array of spatial
    ``shape`` (link tables hold flat spatial indices)."""
    if f.dtype != np.float64:
        raise ValueError(f"compiled boundary loop needs a float64 field, got {f.dtype}")
    if f.shape != (D3Q19.q,) + tuple(shape):
        raise ValueError(
            f"field shape {f.shape} != {(D3Q19.q,) + tuple(shape)}"
        )
    if not f.flags.c_contiguous:
        raise ValueError("compiled boundary loop needs a C-contiguous field")
    if not f.flags.aligned:
        raise ValueError("compiled boundary loop needs an aligned field")
    if not f.flags.writeable:
        raise ValueError("compiled boundary loop needs a writeable field")


def boundary_loop() -> Any:
    """The loaded ``d3q19_boundary`` entry point, or ``None`` when the
    build failed (builds on first call).  Its caller owns the link
    tables and checks the field with :func:`check_boundary_field`."""
    return _get_build().boundary


def ghost_copy_loop() -> Any:
    """The loaded ``ghost_copy`` entry point, or ``None`` when the build
    failed (builds on first call).  Its caller owns the segment, run and
    plane tables of :func:`ghost_copy_table` and the pointer table, and
    checks every array a pointer comes from."""
    return _get_build().ghost_copy


class GhostBox(NamedTuple):
    """One region copy for :func:`ghost_copy_table`.

    The region is an ``(n_x, n_y, n_z)`` box of cells (``shape``) in
    each of a list of PDF planes.  ``*_planes`` are, per plane, the
    element offsets of the box's first cell from the arrays in
    pointer-table slots ``*_slot`` (equal lengths), and ``*_strides``
    are the box's element strides along ``(x, y, z)`` in those arrays.
    A whole PDF axis lists all ``q`` planes; a direction-filtered region
    lists only the planes it moves.  ``copy`` is a boolean ``(n_x, n_y,
    n_z)`` mask of the cells to copy (every listed plane of a cell moves
    or none does), or ``None`` for all of them.
    """

    src_slot: int
    src_planes: np.ndarray
    src_strides: Tuple[int, int, int]
    dst_slot: int
    dst_planes: np.ndarray
    dst_strides: Tuple[int, int, int]
    shape: Tuple[int, int, int]
    copy: Optional[np.ndarray] = None


def ghost_copy_table(boxes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment, run and plane tables (int64, C order) of the ghost copy
    for ``boxes`` (:class:`GhostBox`), for ``ghost_copy_loop()(ptrs,
    segs, len(segs), runs, planes)``.

    Runs lie along each region's longest axis (the innermost one on a
    tie), relative to a plane's first cell, so one run table serves all
    planes of a box.  A box whose ``copy`` mask is ``None`` or all true
    becomes one whole-box segment without runs; one with no cell or no
    plane to copy is left out; any other gets the maximal runs of its
    mask, so a copy never touches a cell the mask excludes.
    """
    segs: List[List[int]] = []
    runs: List[np.ndarray] = []
    src_planes: List[np.ndarray] = []
    dst_planes: List[np.ndarray] = []
    n_runs = n_planes = 0
    for src_slot, sp, ss, dst_slot, dp, ds, shape, copy in boxes:
        if len(sp) != len(dp):
            raise ValueError(f"{len(sp)} source planes != {len(dp)} destination planes")
        if not len(sp):
            continue
        # Strides and extents are indexed (x, y, z); the run axis is the
        # longest, the innermost one on a tie.
        nx, ny, nz = shape
        axis, o1, o2 = (
            (2, 0, 1) if nz >= nx and nz >= ny
            else (1, 0, 2) if ny >= nx
            else (0, 1, 2)
        )
        row = [
            src_slot, dst_slot, ss[o1], ds[o1], ss[o2], ds[o2], ss[axis], ds[axis],
            shape[o1], shape[o2], shape[axis], n_planes, n_planes + len(sp), -1, -1,
        ]
        if copy is not None:
            if copy.shape != tuple(shape):
                raise ValueError(f"copy mask {copy.shape} != region {tuple(shape)}")
            if not copy.all():
                if not copy.any():
                    continue
                i1, i2, start, length = fluid_runs(copy.transpose(o1, o2, axis)).T
                table = np.empty((len(start), 3), dtype=np.int64)
                table[:, 0] = i1 * ss[o1] + i2 * ss[o2] + start * ss[axis]
                table[:, 1] = i1 * ds[o1] + i2 * ds[o2] + start * ds[axis]
                table[:, 2] = length
                row[-2:] = n_runs, n_runs + len(table)
                n_runs += len(table)
                runs.append(table)
        segs.append(row)
        src_planes.append(sp)
        dst_planes.append(dp)
        n_planes += len(sp)
    seg_table = np.array(segs, dtype=np.int64).reshape(-1, len(GHOST_SEGMENT_FIELDS))
    run_table = (
        np.concatenate(runs) if runs else np.zeros((0, 3), dtype=np.int64)
    )
    plane_table = np.zeros((n_planes, 2), dtype=np.int64)
    if n_planes:
        plane_table[:, 0] = np.concatenate(src_planes)
        plane_table[:, 1] = np.concatenate(dst_planes)
    return seg_table, run_table, plane_table
