"""D3Q19-specialized fused kernel.

The analog of the paper's second tier (§4.1): "another kernel written
specifically for the D3Q19 LB model, enabling the reduction of floating
point operations by fusing the streaming and collision step and
eliminating common subexpressions in the macroscopic value calculation."

Fusion here means the streaming step never materializes: the pulled
per-direction values are *views* into ``src`` (shifted slices), so the
data is read exactly once.  Common subexpressions are shared between
opposite direction pairs: for D3Q19

.. math::

    f^{eq}_\\alpha + f^{eq}_{\\bar\\alpha} = 2 w_\\alpha \\rho
        (1 + 4.5 (e_\\alpha u)^2 - 1.5 u^2), \\qquad
    f^{eq}_\\alpha - f^{eq}_{\\bar\\alpha} = 6 w_\\alpha \\rho (e_\\alpha u)

so the symmetric/asymmetric equilibrium parts needed by TRT come for
free and SRT reconstructs ``f^eq`` from them with one add/subtract.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..collision import SRT, TRT
from ..lattice import D3Q19, LatticeModel
from .common import check_pdf_args, interior_slices, pull_slices
from .contracts import allocation_free

__all__ = ["d3q19_step", "build_pair_table", "momentum_terms"]

Collision = Union[SRT, TRT]


def build_pair_table(model: LatticeModel) -> List[Tuple[int, int, float, np.ndarray]]:
    """Precompute ``(a, abar, w_a, e_a)`` for each opposite pair (a < abar)."""
    pairs = []
    for a, b in model.symmetric_pairs():
        pairs.append((int(a), int(b), float(model.weights[a]),
                      model.velocities[a].astype(np.float64)))
    return pairs


def momentum_terms(model: LatticeModel) -> List[List[Tuple[int, int]]]:
    """Per velocity component, the ``(direction, sign)`` terms of the
    momentum sum in direction order — the accumulation schedule every
    bit-identical tier follows (first term written, the rest added)."""
    vels = model.velocities
    return [
        [(a, int(vels[a, comp])) for a in range(1, model.q) if vels[a, comp] != 0]
        for comp in range(model.dim)
    ]


_PAIRS = build_pair_table(D3Q19)
_W0 = float(D3Q19.weights[0])


def _check_model(model: LatticeModel) -> None:
    if model.name != "D3Q19":
        raise ValueError(f"d3q19_step only supports D3Q19, got {model.name}")


@allocation_free(
    steady_state=False,
    reason="d3q19 tier allocates interior-sized expression temporaries "
    "(rho, u, eq parts) per step; only the vectorized tier owns "
    "persistent scratch",
)
def d3q19_step(
    model: LatticeModel,
    src: np.ndarray,
    dst: np.ndarray,
    collision: Collision,
) -> None:
    """One fused stream-pull + collide step specialized for D3Q19."""
    _check_model(model)
    check_pdf_args(model, src, dst)
    interior = interior_slices(3)
    vels = model.velocities

    # Fused streaming: pulled values are views, no copy.
    g = [src[(a,) + pull_slices(vels[a])] for a in range(19)]

    # Macroscopic values with common subexpressions: accumulate the three
    # momentum components only from directions with a nonzero component.
    rho = g[0] + g[1]
    for a in range(2, 19):
        rho = rho + g[a]
    jx = np.zeros_like(rho)
    jy = np.zeros_like(rho)
    jz = np.zeros_like(rho)
    for a in range(1, 19):
        ex, ey, ez = int(vels[a, 0]), int(vels[a, 1]), int(vels[a, 2])
        if ex:
            jx += ex * g[a] if ex != 1 else g[a]
        if ey:
            jy += ey * g[a] if ey != 1 else g[a]
        if ez:
            jz += ez * g[a] if ez != 1 else g[a]
    inv_rho = 1.0 / rho
    ux = jx * inv_rho
    uy = jy * inv_rho
    uz = jz * inv_rho
    usq_term = 1.0 - 1.5 * (ux * ux + uy * uy + uz * uz)

    if isinstance(collision, SRT):
        lam_e = lam_o = -1.0 / collision.tau
    else:
        lam_e, lam_o = collision.lambda_e, collision.lambda_o

    # Rest direction: purely symmetric.
    feq0 = _W0 * rho * usq_term
    dst[(0,) + interior] = g[0] + lam_e * (g[0] - feq0)

    for a, b, w, e in _PAIRS:
        eu = e[0] * ux + e[1] * uy + e[2] * uz
        wrho = w * rho
        eq_plus = wrho * (usq_term + 4.5 * eu * eu)   # (feq_a + feq_b) / 2
        eq_minus = 3.0 * wrho * eu                    # (feq_a - feq_b) / 2
        ga, gb = g[a], g[b]
        f_plus = 0.5 * (ga + gb)
        f_minus = 0.5 * (ga - gb)
        sym = lam_e * (f_plus - eq_plus)
        asym = lam_o * (f_minus - eq_minus)
        dst[(a,) + interior] = ga + sym + asym
        dst[(b,) + interior] = gb + sym - asym
