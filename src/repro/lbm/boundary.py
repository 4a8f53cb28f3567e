"""Boundary conditions: no-slip, velocity bounce back, pressure anti bounce back.

These are the three boundary conditions used by the paper (§2.1, citing
[14, Ch. 2.5.2]).  They are implemented in waLBerla's style: a boundary
sweep runs *before* the fused stream-collide kernel and writes the PDFs
of wall cells such that the subsequent uniform stream-pull produces the
correct values in the adjacent fluid cells.  The sweep operates on
precomputed link tables: on D3Q19 fields one call of the compiled
tier's generated boundary loop per block, otherwise (no C compiler, or
another lattice) a handful of vectorized NumPy gathers and scatters per
direction, with the same bits.

With post-collision fields ``f~(t)`` and pull direction ``a`` pointing
from the wall cell ``w`` into the fluid cell ``x = w + e_a``:

* no-slip:        ``f~_a(w) := f~_abar(x)``
* velocity (UBB): ``f~_a(w) := f~_abar(x) + 6 w_a rho0 (e_a . u_wall)``
* pressure (anti bounce back):
  ``f~_a(w) := -f~_abar(x) + 2 w_a rho_w (1 + 4.5 (e_a.u_x)^2 - 1.5 u_x^2)``
  with ``u_x`` taken from the adjacent fluid cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .. import flagdefs as fl
from ..errors import ConfigurationError
from .kernels import compiled
from .lattice import LatticeModel

if TYPE_CHECKING:  # pragma: no cover
    from ..core.flags import FlagField

__all__ = ["NoSlip", "UBB", "PressureABB", "BoundaryHandling"]


@dataclass(frozen=True)
class NoSlip:
    """Plain bounce-back wall."""

    flag: int = int(fl.NO_SLIP)


@dataclass(frozen=True)
class UBB:
    """Velocity bounce back ("UBB"): wall moving with ``velocity``.

    ``rho0`` is the reference density used in the momentum correction.
    """

    velocity: Tuple[float, float, float]
    rho0: float = 1.0
    flag: int = int(fl.VELOCITY_BC)

    def __post_init__(self):
        if len(self.velocity) == 0:
            raise ConfigurationError("UBB requires a velocity vector")


@dataclass(frozen=True)
class PressureABB:
    """Pressure anti bounce back: prescribes wall density ``rho_w``."""

    rho_w: float = 1.0
    flag: int = int(fl.PRESSURE_BC)


Condition = Union[NoSlip, UBB, PressureABB]


def _validate(model: LatticeModel, cond: Condition) -> None:
    """Reject a condition that cannot apply to ``model``: a UBB velocity
    needs one component per model dimension."""
    if isinstance(cond, UBB):
        uw = np.asarray(cond.velocity, dtype=np.float64)
        if uw.shape != (model.dim,):
            raise ConfigurationError(
                f"UBB velocity has {uw.shape} components, "
                f"model needs {model.dim}"
            )
    elif not isinstance(cond, (NoSlip, PressureABB)):
        raise ConfigurationError(f"unknown condition {cond!r}")


#: Coefficient rows already computed, by the key :func:`_coefficients`
#: makes: every block of a run shares its conditions.  Emptied when it
#: reaches :data:`_COEF_LIMIT` rows (a time-dependent UBB makes a new
#: condition per update).
_COEF_ROWS: Dict[tuple, np.ndarray] = {}
_COEF_LIMIT = 64


def _coefficients(model: LatticeModel, cond: Condition) -> np.ndarray:
    """Per-direction coefficients of ``cond`` on ``model`` (read-only):
    the UBB momentum correction ``6 w_a rho0 (e_a . u_wall)``, the
    PressureABB prefactor ``2 w_a rho_w``, zero for no-slip and for the
    rest direction.  Computed once per condition, keyed by the exact
    bits of its parameters."""
    if isinstance(cond, UBB):
        params = (*cond.velocity, cond.rho0)
    elif isinstance(cond, PressureABB):
        params = (cond.rho_w,)
    else:
        params = ()
    key = (model.name, type(cond), tuple(float(v).hex() for v in params))
    row = _COEF_ROWS.get(key)
    if row is not None:
        return row
    w = model.weights
    row = np.zeros(model.q, dtype=np.float64)
    for a in range(1, model.q):
        if isinstance(cond, UBB):
            e = model.velocities[a].astype(np.float64)
            uw = np.asarray(cond.velocity, dtype=np.float64)
            row[a] = 6.0 * float(w[a]) * cond.rho0 * float(np.dot(e, uw))
        elif isinstance(cond, PressureABB):
            row[a] = 2.0 * float(w[a]) * cond.rho_w
    row.flags.writeable = False
    if len(_COEF_ROWS) >= _COEF_LIMIT:
        _COEF_ROWS.clear()
    _COEF_ROWS[key] = row
    return row


@lru_cache(maxsize=16)
def _shell(shape: Tuple[int, ...]) -> np.ndarray:
    """Flat mask of the ghost shell of a padded ``shape`` (read-only)."""
    inner = np.zeros(shape, dtype=bool)
    inner[(slice(1, -1),) * len(shape)] = True
    shell = ~inner.ravel()
    shell.flags.writeable = False
    return shell


#: Loop code of each condition type, as the compiled dispatcher reads it.
_KINDS = {
    NoSlip: compiled.BOUNDARY_KINDS.index("noslip"),
    UBB: compiled.BOUNDARY_KINDS.index("ubb"),
    PressureABB: compiled.BOUNDARY_KINDS.index("pressure_abb"),
}


class BoundaryHandling:
    """Precomputed link-wise boundary sweep for one block.

    Parameters
    ----------
    model:
        Lattice model of the PDF field.
    flag_field:
        The block's :class:`~repro.core.flags.FlagField` (padded shape
        must match the PDF field's spatial shape).
    conditions:
        The boundary condition instances active on this block.  Each
        covers the cells whose flags intersect its ``flag`` bit.  They
        are validated here, whether or not the block has links of them.

    The links are stored once, as concatenated ``(wall, fluid)`` flat
    spatial indices with per-(condition, direction) offsets, plus one
    coefficient per (condition, direction): the UBB momentum correction
    or the PressureABB prefactor ``2 w_a rho_w``.  A D3Q19 field is
    swept by the compiled tier's boundary loop
    (:func:`~repro.lbm.kernels.compiled.boundary_loop`) in one call when
    it built in this process, and by the NumPy path otherwise; both
    perform the same IEEE operations in the same order, so they give
    the same bits.  Wall and fluid cells are disjoint
    (:meth:`~repro.core.flags.FlagField.validate_exclusive`), so the
    order in which links are applied does not matter.
    """

    def __init__(
        self,
        model: LatticeModel,
        flag_field: "FlagField",
        conditions: Sequence[Condition],
    ):
        self.model = model
        self.flag_field = flag_field
        self._conditions = list(conditions)
        seen: set[int] = set()
        for c in self._conditions:
            _validate(model, c)
            if c.flag in seen:
                raise ConfigurationError(f"duplicate boundary flag {c.flag}")
            seen.add(c.flag)
        self._build()
        # Written in place by every refresh: entry tables hold their
        # addresses.
        n_cond = len(self._conditions)
        self._kind = np.zeros(n_cond, dtype=np.int64)
        self._coef = np.zeros((n_cond, model.q), dtype=np.float64)
        self._refresh()
        self._ghost: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._loop = compiled.boundary_loop() if model.name == "D3Q19" else None
        # Arguments of the compiled loop after the field pointer and its
        # PDF-axis stride; the arrays live as long as the handler.
        self._loop_args = (
            n_cond, self._kind.ctypes.data, self._wall.ctypes.data,
            self._fluid.ctypes.data, self._off.ctypes.data, self._coef.ctypes.data,
        )

    @property
    def conditions(self) -> Tuple[Condition, ...]:
        """The active conditions, in application order (change them with
        :meth:`replace`)."""
        return tuple(self._conditions)

    def _build(self) -> None:
        padded = self.flag_field.data.shape
        model = self.model
        if len(padded) != model.dim:
            raise ConfigurationError("flag field dimension != model dimension")
        strides = [1] * model.dim
        for d in range(model.dim - 2, -1, -1):
            strides[d] = strides[d + 1] * padded[d + 1]
        # Fluid cells must be interior; pulls from any wall cell (interior
        # or ghost) are legal.
        fluid = (self.flag_field.data & fl.FLUID) != 0
        q, n_cond = model.q, len(self._conditions)
        # near[a - 1, w]: the cell w + e_a is fluid (none beyond the
        # field).  Window i of the fluid mask padded by one cell is the
        # mask shifted by i - 1, so one gather takes all q - 1 shifts.
        ring = np.zeros(tuple(n + 2 for n in padded), dtype=bool)
        ring[(slice(1, -1),) * model.dim] = fluid
        windows = as_strided(
            ring, (3,) * model.dim + padded, ring.strides * 2, writeable=False
        )
        near = windows[tuple(model.velocities[1:].T + 1)]
        walls = np.zeros((n_cond, 1) + padded, dtype=bool)
        for k, c in enumerate(self._conditions):
            walls[k, 0] = (self.flag_field.data & np.uint8(c.flag)) != 0
        # Links in (condition, direction, wall cell) order: one flat
        # nonzero over the stacked masks, split into its three indices.
        hits = np.flatnonzero(walls & near[None])
        pair, wall = np.divmod(hits, fluid.size)  # pair = k * (q - 1) + a - 1
        step = model.velocities.astype(np.int64) @ np.array(strides, dtype=np.int64)
        self._wall = wall
        self._fluid = wall + step[pair % (q - 1) + 1]
        # off[k, a] .. off[k, a + 1]: the links of condition k, direction
        # a (none for the rest direction a = 0).
        start = np.zeros(n_cond * (q - 1) + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair, minlength=n_cond * (q - 1)), out=start[1:])
        first = np.maximum(np.arange(q + 1) - 1, 0)
        self._off = start[np.arange(n_cond)[:, None] * (q - 1) + first]

    def _refresh(self) -> None:
        """Write the per-condition loop codes and coefficients, in place."""
        for k, cond in enumerate(self._conditions):
            self._kind[k] = next(code for cls, code in _KINDS.items() if isinstance(cond, cls))
            self._coef[k] = _coefficients(self.model, cond)

    def replace(self, old: Condition, new: Condition) -> int:
        """Replace every active condition equal to ``old`` with ``new``;
        returns how many were replaced.

        ``new`` must keep ``old``'s flag bit, so the link tables stay
        valid; the coefficients are recomputed.
        """
        if new.flag != old.flag:
            raise ConfigurationError("replacement boundary must keep the same flag bit")
        _validate(self.model, new)
        replaced = 0
        for i, cond in enumerate(self._conditions):
            if cond == old:
                self._conditions[i] = new
                replaced += 1
        if replaced:
            self._refresh()
        return replaced

    @property
    def link_count(self) -> int:
        """Total number of boundary links handled per application."""
        return int(self._wall.size)

    @property
    def compiled(self) -> bool:
        """Whether the compiled tier's loop sweeps this handler's links."""
        return self._loop is not None

    def _in_shell(self, cells: np.ndarray) -> np.ndarray:
        """Which of the flat spatial indices ``cells`` lie in the ghost shell."""
        return _shell(self.flag_field.data.shape)[cells]

    def _ghost_links(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(wall, fluid, off)`` of the links that touch the ghost shell
        — the wall cell they write or the cell they read — in the layout
        of the full tables (built once)."""
        if self._ghost is None:
            shell = self._in_shell(self._wall) | self._in_shell(self._fluid)
            before = np.zeros(shell.size + 1, dtype=np.int64)
            np.cumsum(shell, out=before[1:])
            self._ghost = (self._wall[shell], self._fluid[shell], before[self._off])
        return self._ghost

    def writes_ghost_cells(self) -> bool:
        """True if any boundary link writes a wall cell in the ghost shell.

        A later ghost unpack overwrites such writes, so the overlap
        schedule re-applies the links that touch the ghost shell after
        the exchange (see :meth:`table_links`).
        """
        return bool(self._in_shell(self._wall).any())

    def table_links(self, ghost_only: bool = False):
        """``(kind, wall, fluid, off, coef)`` of a boundary-table entry
        (:func:`~repro.lbm.kernels.compiled.boundary_table`) for a
        handler the compiled loop sweeps (:attr:`compiled`).
        ``ghost_only`` keeps the links that write or read a ghost-shell
        cell: a ghost unpack writes only ghost cells, and no link reads
        a wall cell, so those are the only links whose result an unpack
        can change.  The arrays are the handler's own; :meth:`replace`
        rewrites ``kind`` and ``coef`` in place, so a table stays
        valid."""
        wall, fluid, off = self._ghost_links() if ghost_only else (
            self._wall, self._fluid, self._off
        )
        return self._kind, wall, fluid, off, self._coef

    def check_grid(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Reject a grid pair the compiled loop cannot index as-is."""
        for f in (src, dst):
            compiled.check_boundary_field(f, self.flag_field.data.shape)

    def apply(self, src: np.ndarray) -> None:
        """Write boundary PDFs into ``src`` (call before the LBM sweep)."""
        shape = self.flag_field.data.shape
        if src.shape[1:] != shape:
            raise ValueError("PDF field spatial shape != flag field shape")
        if not src.flags.c_contiguous:
            raise ValueError("boundary handling needs a C-contiguous PDF field")
        if not self._wall.size:
            return
        if self._loop is not None:
            compiled.check_boundary_field(src, shape)
            self._loop(src.ctypes.data, src.strides[0] // 8, *self._loop_args)
            return
        flat = src.reshape(self.model.q, -1)
        inv = self.model.inverse
        for kind, off, coef in zip(self._kind, self._off, self._coef):
            for a in range(1, self.model.q):
                lo, hi = off[a], off[a + 1]
                if lo == hi:
                    continue
                wall, fluid = self._wall[lo:hi], self._fluid[lo:hi]
                pulled = flat[int(inv[a])][fluid]
                if kind == _KINDS[NoSlip]:
                    flat[a][wall] = pulled
                elif kind == _KINDS[UBB]:
                    flat[a][wall] = pulled + coef[a]
                else:
                    term = self._pressure_term(flat, fluid, self.model.velocities[a])
                    flat[a][wall] = -pulled + coef[a] * term

    def _pressure_term(self, flat: np.ndarray, fluid: np.ndarray, e) -> np.ndarray:
        """``1 + 4.5 (e.u)^2 - 1.5 u^2`` with ``u`` the velocity of the
        fluid cells ``fluid`` (0 where the density is 0)."""
        model = self.model
        rho = flat[0][fluid]
        j = [np.zeros(fluid.size) for _ in range(model.dim)]
        for b in range(1, model.q):
            fb = flat[b][fluid]
            rho += fb
            for d in range(model.dim):
                c = int(model.velocities[b, d])
                if c > 0:
                    j[d] += fb
                elif c < 0:
                    j[d] -= fb
        with np.errstate(divide="ignore", invalid="ignore"):
            u = [jd / rho for jd in j]
        u = [np.where(np.isfinite(ud), ud, 0.0) for ud in u]
        eu = float(e[0]) * u[0]
        usq = u[0] * u[0]
        for d in range(1, model.dim):
            eu = eu + float(e[d]) * u[d]
            usq = usq + u[d] * u[d]
        return 1.0 + 4.5 * eu * eu - 1.5 * usq
