"""Generated C stream-collide kernel — the compiled tier.

The paper's fastest kernels run at the memory-bandwidth roofline
(§4.1); NumPy cannot get there because every arithmetic pass of the
``vectorized`` tier streams the whole block through memory once (about
130 passes per call).  This tier follows the code-generation route of
the waLBerla Python extension (pystencils): generate the fused D3Q19
pull-stream-collide loop from the lattice description, compile it once
per process, and call it from Python.

* **Generator.** :func:`generate_source` emits C from :data:`D3Q19` and
  :func:`~repro.lbm.kernels.d3q19.build_pair_table` — the tables the
  ``vectorized`` tier uses — and performs, per cell, the same IEEE
  operations in the same order as
  :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`.  With
  ``-ffp-contract=off`` (no fused multiply-add) and no ``-ffast-math``
  the tier is bit-identical to ``vectorized``.
* **Build.** The first :func:`available` call or kernel construction
  compiles the source, once per process, with
  ``cc -O3 -ffp-contract=off -shared -fPIC`` into a private temporary
  directory and loads it with :mod:`ctypes`.  No
  ``-march=native`` and no OpenMP: intra-rank threading stays with
  :mod:`repro.exec`, and ``ctypes`` releases the GIL during the call,
  so the engine's workers run kernels concurrently.
* **Argument checks.** The kernel takes halo-inclusive views (region
  views, slabs, overlap boxes) and passes the data pointers and element
  strides to C; the rows along the innermost (z) axis must be
  contiguous, as every view of a C-ordered PDF field is.  Before any
  pointer reaches C the arguments are checked and anything the loop
  cannot read as-is is rejected, never reinterpreted.

:func:`available` tells whether the loop built in this process; the
registry's :func:`~repro.lbm.kernels.registry.default_dense_kernel`
uses it to pick ``compiled`` or ``vectorized``.
"""

from __future__ import annotations

import ctypes
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, List, NamedTuple, Optional, Union

import numpy as np

from ...errors import ConfigurationError
from ..collision import SRT, TRT
from ..lattice import D3Q19, LatticeModel
from .common import check_pdf_args
from .contracts import allocation_free
from .d3q19 import build_pair_table

__all__ = [
    "CompiledD3Q19Kernel",
    "available",
    "generate_source",
]

Collision = Union[SRT, TRT]

#: Name of the exported C entry point.
ENTRY = "d3q19_stream_collide"

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: which round once where NumPy rounds twice; no ``-ffast-math`` (it
#: reassociates) and no ``-march=native`` (the build must not depend on
#: the build host's vector extensions for its results).
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_COMPONENTS = ("ux", "uy", "uz")


def _lit(x: float) -> str:
    """Exact C literal of a double (hexadecimal floating constant)."""
    return float(x).hex()


def _row_function() -> List[str]:
    """C source of one row sweep: ``n`` contiguous cells, pointers
    pre-offset to the row's first cell."""
    q = D3Q19.q
    vel = D3Q19.velocities
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
    for comp, u in enumerate(_COMPONENTS):
        terms = [(a, int(vel[a, comp])) for a in range(1, q) if vel[a, comp] != 0]
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


def generate_source() -> str:
    """C source of the fused D3Q19 pull-stream-collide loop.

    The exported function ``d3q19_stream_collide(src, dst, nx, ny, nz,
    sq, sx, sy, lam_e, lam_o)`` sweeps the ``nx*ny*nz`` interior of a
    halo-inclusive SoA field pair whose element strides are ``sq`` (PDF
    axis), ``sx``/``sy`` (outer cell axes) and 1 (innermost axis).  SRT
    runs as TRT with ``lam_e == lam_o``, exactly as in the NumPy tiers.
    """
    q = D3Q19.q
    vel = D3Q19.velocities
    lines = [
        "/* Generated by repro.lbm.kernels.compiled: D3Q19 fused",
        " * pull-stream-collide, SRT/TRT, two-grid, SoA with contiguous rows. */",
        "#include <stddef.h>",
        "",
    ]
    lines += _row_function()
    lines.append("")
    lines.append(
        f"void {ENTRY}(const double *src, double *dst,\n"
        "    ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz,\n"
        "    ptrdiff_t sq, ptrdiff_t sx, ptrdiff_t sy,\n"
        "    double lam_e, double lam_o)"
    )
    lines.append("{")
    lines.append("    for (ptrdiff_t x = 1; x <= nx; ++x) {")
    lines.append("        for (ptrdiff_t y = 1; y <= ny; ++y) {")
    # Pull: cell (x, y, z) reads direction a from (x, y, z) - e_a.
    for a in range(q):
        ex, ey, ez = (int(c) for c in vel[a])
        lines.append(
            f"            const double *s{a} = src + {a} * sq + (x - ({ex})) * sx"
            f" + (y - ({ey})) * sy + (1 - ({ez}));"
        )
    for a in range(q):
        lines.append(f"            double *d{a} = dst + {a} * sq + x * sx + y * sy + 1;")
    srcs = ", ".join(f"s{a}" for a in range(q))
    dsts = ", ".join(f"d{a}" for a in range(q))
    lines.append(f"            row({srcs},\n                {dsts}, nz, lam_e, lam_o);")
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Build(NamedTuple):
    """Outcome of this process's one build attempt: the loaded entry
    point, or ``None`` and the reason it is missing."""

    fn: Any = None
    reason: str = ""


_lock = threading.Lock()
_build: Optional[_Build] = None


def _compile_and_load() -> _Build:
    """Generate, compile and load the loop; never raises."""
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
    fn = getattr(lib, ENTRY)
    fn.argtypes = (
        [ctypes.c_void_p, ctypes.c_void_p]
        + [ctypes.c_ssize_t] * 6
        + [ctypes.c_double] * 2
    )
    fn.restype = None
    return _Build(fn=fn)


def _get_build() -> _Build:
    """This process's build, attempting it on first use."""
    global _build
    with _lock:
        if _build is None:
            _build = _compile_and_load()
        return _build


def available() -> bool:
    """Whether the compiled loop built and loaded in this process
    (builds it on first call)."""
    return _get_build().fn is not None


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


@allocation_free(steady_state=True)
class CompiledD3Q19Kernel:
    """Fused D3Q19 stream-collide step in generated, compiled C.

    Bit-identical to :class:`~repro.lbm.kernels.vectorized.VectorizedD3Q19Kernel`
    on any halo-inclusive view with contiguous rows; owns no scratch
    memory.  Construction
    builds the library on first use and raises
    :class:`~repro.errors.ConfigurationError` if it cannot.
    """

    name = "compiled"
    model: LatticeModel = D3Q19

    def __init__(self, collision: Collision):
        self.collision = collision
        if isinstance(collision, SRT):
            self._lam_e = self._lam_o = -1.0 / collision.tau
        else:
            self._lam_e, self._lam_o = collision.lambda_e, collision.lambda_o
        build = _get_build()
        if build.fn is None:
            raise ConfigurationError(f"compiled kernel tier unavailable: {build.reason}")
        self._fn = build.fn

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Run one time step: ``dst[interior] = collide(pull(src))``."""
        check_pdf_args(D3Q19, src, dst)
        _check_buffers(src, dst)
        _, nx, ny, nz = src.shape
        sq, sx, sy, _ = src.strides
        self._fn(
            src.ctypes.data, dst.ctypes.data,
            nx - 2, ny - 2, nz - 2,
            sq // 8, sx // 8, sy // 8,
            self._lam_e, self._lam_o,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<compiled kernel, D3Q19, {self.collision}>"
