"""Block-structured vs cell-structured architecture comparison.

The paper's related work (§1) contrasts waLBerla's block-structured
design with cell-structured (indirect addressing) codes like HemeLB.
This bench measures the trade on one partially filled block:

* the block-structured interval kernel pays for superfluous run cells
  (NumPy backend) and full-block storage but streams contiguously —
  each result row is labelled with the ``interval`` backend it ran
  (``numpy``, or ``compiled`` when a C compiler is present);
* the cell-structured solver touches exactly the fluid cells but pays
  an indirect gather per link and a neighbor table in memory.
"""

import shutil

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from repro import flagdefs as fl
from repro.harness import format_table
from repro.lbm import TRT
from repro.lbm.cellstructured import CellStructuredSolver
from repro.lbm.kernels import CompiledIntervalKernel, IntervalSparseKernel

N = 32
#: The two backends of the ``interval`` strategy.
BACKENDS = {"numpy": IntervalSparseKernel, "compiled": CompiledIntervalKernel}
needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler ('cc') on PATH"
)


def tube_flags(radius: float):
    flags = np.zeros((N, N, N), dtype=np.uint8)
    x, y = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    disk = (x - N / 2 + 0.5) ** 2 + (y - N / 2 + 0.5) ** 2 <= radius**2
    flags[disk] = fl.FLUID
    fluid = flags == fl.FLUID
    hull = binary_dilation(fluid) & ~fluid
    flags[hull] = fl.NO_SLIP
    return flags


def _interval_setup(radius, backend="numpy"):
    flags = tube_flags(radius)
    mask = np.zeros((N, N, N), dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = flags[1:-1, 1:-1, 1:-1] == fl.FLUID
    kern = BACKENDS[backend](mask[1:-1, 1:-1, 1:-1], TRT.from_tau(0.8))
    rng = np.random.default_rng(0)
    src = 0.5 + 0.01 * rng.random((19, N, N, N))
    return kern, src, np.zeros_like(src)


@pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_cc)])
@pytest.mark.parametrize("radius", [4.0, 12.0], ids=["sparse", "fuller"])
def test_block_interval(benchmark, radius, backend):
    kern, src, dst = _interval_setup(radius, backend)
    benchmark(kern, src, dst)
    benchmark.extra_info["backend"] = backend
    if benchmark.stats:
        benchmark.extra_info["mflups"] = (
            kern.fluid_cells / benchmark.stats["mean"] / 1e6
        )


@pytest.mark.parametrize("radius", [4.0, 12.0], ids=["sparse", "fuller"])
def test_cell_structured(benchmark, radius):
    cs = CellStructuredSolver(tube_flags(radius), TRT.from_tau(0.8))
    benchmark(cs.step, 1)
    if benchmark.stats:
        benchmark.extra_info["mflups"] = cs.n_fluid / benchmark.stats["mean"] / 1e6


def test_memory_tradeoff_report():
    rows = []
    for radius in (3.0, 6.0, 12.0):
        flags = tube_flags(radius)
        cs = CellStructuredSolver(flags, TRT.from_tau(0.8))
        dense = 2 * (N**3) * 19 * 8
        frac = cs.n_fluid / N**3
        rows.append(
            (f"{frac:.2f}", f"{dense / 2**20:.1f}",
             f"{cs.memory_bytes() / 2**20:.1f}")
        )
    print(
        "\n"
        + format_table(
            ["fluid fraction", "block MiB", "cell-structured MiB"],
            rows,
            title=f"{N}^3 region, D3Q19 double precision:",
        )
    )
    # At low fluid fraction the indirect scheme wins on memory; as the
    # block fills, the neighbor table makes it lose.
    sparse_cs = CellStructuredSolver(tube_flags(3.0), TRT.from_tau(0.8))
    dense_bytes = 2 * (N**3) * 19 * 8
    assert sparse_cs.memory_bytes() < dense_bytes
    full_flags = np.zeros((N, N, N), dtype=np.uint8)
    full_flags[1:-1, 1:-1, 1:-1] = fl.FLUID
    full_flags[full_flags == 0] = fl.NO_SLIP
    full_cs = CellStructuredSolver(full_flags, TRT.from_tau(0.8))
    assert full_cs.memory_bytes() > 0.9 * dense_bytes
