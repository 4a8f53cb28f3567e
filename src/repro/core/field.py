"""Ghost-layered fields.

A :class:`PdfField` is the SoA PDF storage of one block: shape
``(q,) + padded_cells`` with one ghost layer per side, used in every
time step for communication between neighboring blocks (§2.2).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..lbm.equilibrium import equilibrium
from ..lbm.lattice import LatticeModel

__all__ = ["PdfField"]


class PdfField:
    """Two-grid (src/dst) PDF storage for one block.

    Parameters
    ----------
    model:
        Lattice model.
    cells:
        Interior cell counts.
    """

    def __init__(self, model: LatticeModel, cells: Tuple[int, ...]):
        self.model = model
        self.cells = tuple(int(c) for c in cells)
        if len(self.cells) != model.dim:
            raise ValueError(
                f"{model.name} needs {model.dim} cell counts, got {cells}"
            )
        padded = tuple(c + 2 for c in self.cells)
        self.src = np.zeros((model.q,) + padded)
        self.dst = np.zeros((model.q,) + padded)

    @property
    def padded_shape(self) -> Tuple[int, ...]:
        """Spatial shape including the one-cell ghost layer per face."""
        return self.src.shape[1:]

    @property
    def interior_view(self) -> np.ndarray:
        """Interior PDFs of the current (src) grid, shape ``(q,) + cells``."""
        return self.src[(slice(None),) + (slice(1, -1),) * self.model.dim]

    def swap(self) -> None:
        """Exchange src and dst (end of a two-grid time step)."""
        self.src, self.dst = self.dst, self.src

    def set_equilibrium(self, rho: float = 1.0, u=None) -> None:
        """Initialize src and dst (everywhere, ghosts included) to the
        equilibrium of the uniform state ``(rho, u)``.

        The equilibrium is computed for one cell and broadcast, so the
        set-up writes each field once and allocates no field-sized
        temporaries.
        """
        if u is None:
            u = np.zeros(self.model.dim)
        feq = equilibrium(
            self.model, np.full((), float(rho)), np.asarray(u, dtype=np.float64)
        )
        self.src[...] = feq.reshape((self.model.q,) + (1,) * self.model.dim)
        self.dst[...] = self.src

    def memory_bytes(self) -> int:
        """Total bytes of PDF storage held by this field (both grids)."""
        return self.src.nbytes + self.dst.nbytes
