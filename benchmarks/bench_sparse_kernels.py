"""§4.3 — the three sparse-block kernel strategies on partially covered
blocks at varying fluid fraction.

Paper shape: at low fluid fraction the fluid-proportional strategies
(index list, interval) far outperform the conditional strategy, whose
cost stays proportional to the whole block.  The §4.3 comparisons use
the NumPy rows only; ``interval-compiled`` (the generated C backend of
``interval``, skipped without a C compiler) must beat NumPy ``interval``.
"""

import shutil

import numpy as np
import pytest

from repro.lbm.collision import TRT
from repro.lbm.kernels import (
    CompiledIntervalKernel,
    ConditionalSparseKernel,
    IndexListSparseKernel,
    IntervalSparseKernel,
)

CELLS = (32, 32, 32)
STRATEGIES = {
    "conditional": ConditionalSparseKernel,
    "indexlist": IndexListSparseKernel,
    "interval": IntervalSparseKernel,
    "interval-compiled": CompiledIntervalKernel,
}
needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler ('cc') on PATH"
)
ROWS = [
    pytest.param(name, marks=needs_cc) if name == "interval-compiled" else name
    for name in STRATEGIES
]


def tube_mask(radius_cells: float) -> np.ndarray:
    nx, ny, nz = CELLS
    x, y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    disk = (x - nx / 2 + 0.5) ** 2 + (y - ny / 2 + 0.5) ** 2 <= radius_cells**2
    return np.broadcast_to(disk[:, :, None], CELLS).copy()


def _setup(strategy: str, radius: float):
    mask = tube_mask(radius)
    kern = STRATEGIES[strategy](mask, TRT.from_tau(0.8))
    rng = np.random.default_rng(0)
    src = 0.5 + 0.01 * rng.random((19,) + tuple(c + 2 for c in CELLS))
    dst = np.zeros_like(src)
    return kern, src, dst


@pytest.mark.parametrize("strategy", ROWS)
@pytest.mark.parametrize("radius", [4.0, 12.0], ids=["sparse", "dense"])
def test_sparse_strategy(benchmark, strategy, radius):
    kern, src, dst = _setup(strategy, radius)
    benchmark(kern, src, dst)
    benchmark.extra_info["fluid_cells"] = kern.fluid_cells
    if benchmark.stats:
        benchmark.extra_info["mflups"] = (
            kern.fluid_cells / benchmark.stats["mean"] / 1e6
        )


def _mflups(strategy: str, radius: float, steps: int = 5) -> float:
    import time

    kern, src, dst = _setup(strategy, radius)
    kern(src, dst)
    t0 = time.perf_counter()
    for _ in range(steps):
        kern(src, dst)
        src, dst = dst, src
    return kern.fluid_cells * steps / (time.perf_counter() - t0) / 1e6


def test_fluid_proportional_strategies_win_when_sparse():
    """At ~5 % fluid fraction, index-list and interval kernels must beat
    the conditional (full-block) strategy decisively."""
    cond = _mflups("conditional", 4.0)
    idx = _mflups("indexlist", 4.0)
    itv = _mflups("interval", 4.0)
    print(
        f"\nsparse tube (~5% fluid): conditional {cond:.2f}, "
        f"indexlist {idx:.2f}, interval {itv:.2f} MFLUPS"
    )
    assert idx > 2.0 * cond
    assert itv > 2.0 * cond


def test_strategies_converge_when_dense():
    """As the block fills up, the advantage shrinks (paper: dense blocks
    do not need sparse handling at all)."""
    cond = _mflups("conditional", 12.0)
    itv = _mflups("interval", 12.0)
    assert itv < 10.0 * cond


@needs_cc
@pytest.mark.parametrize("radius", [4.0, 12.0], ids=["sparse", "dense"])
def test_compiled_interval_beats_numpy(radius):
    """The compiled backend of ``interval`` is at least as fast as the
    NumPy one, at any fill."""
    numpy_rate = _mflups("interval", radius)
    compiled_rate = _mflups("interval-compiled", radius)
    print(
        f"\ntube radius {radius}: interval {numpy_rate:.2f}, "
        f"interval-compiled {compiled_rate:.2f} MFLUPS"
    )
    assert compiled_rate >= numpy_rate
