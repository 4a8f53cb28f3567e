"""Kernel registry: construct any kernel tier by name.

Mirrors the paper's three optimization stages (§4.1, Figure 3) plus the
pure-Python reference used only for verification:

==============  =====================================================
``reference``   per-cell Python loops (ground truth, tests only)
``generic``     any lattice model, separate stream/collide passes
``d3q19``       model-specialized, fused, common subexpressions
``vectorized``  SoA split-loop, allocation-free (the "SIMD" analog)
``compiled``    generated C loop, bit-identical to ``vectorized``
==============  =====================================================

The ``compiled`` tier needs a C compiler at run time;
:func:`default_dense_kernel` picks it when it built in this process and
``vectorized`` otherwise.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    # Runtime import would recurse: ``repro.perf`` initializes
    # ``repro.core`` which imports this module back.  The tree argument
    # is duck-typed at runtime anyway.
    from ...perf.timing import TimingTree

from ..collision import SRT, TRT
from ..lattice import D3Q19, LatticeModel
from . import compiled
from .common import Box, region_view
from .d3q19 import d3q19_step
from .generic import generic_step
from .reference import reference_step
from .vectorized import VectorizedD3Q19Kernel

__all__ = [
    "make_kernel",
    "default_dense_kernel",
    "instrument_kernel",
    "InstrumentedKernel",
    "KERNEL_TIERS",
    "run_kernel_on_region",
]

Collision = Union[SRT, TRT]
Kernel = Callable[[np.ndarray, np.ndarray], None]

#: Ordered tiers, slowest to fastest (paper's optimization stages).
KERNEL_TIERS = ("reference", "generic", "d3q19", "vectorized", "compiled")


def default_dense_kernel() -> str:
    """The default tier for dense blocks: ``"compiled"`` when the
    generated loop built and loaded in this process (the first call
    attempts the build), ``"vectorized"`` otherwise — both give the
    same bits, so the choice follows only whether a C compiler is
    present."""
    return "compiled" if compiled.available() else "vectorized"


class _StatelessKernel:
    """Adapter giving step functions the two-argument kernel protocol."""

    def __init__(self, name: str, fn, model: LatticeModel, collision: Collision):
        self.name = name
        self.model = model
        self.collision = collision
        self._fn = fn
        # Surface the step function's allocation contract (see
        # lbm/kernels/contracts.py) on the adapter, so contract_of()
        # works uniformly on stateless and stateful kernels.
        contract = getattr(fn, "__allocation_free__", None)
        if contract is not None:
            self.__allocation_free__ = contract

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self._fn(self.model, src, dst, self.collision)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} kernel, {self.model.name}, {self.collision}>"


class InstrumentedKernel:
    """Wraps any kernel so every call is accounted to a timing tree.

    Each call records under the tree's *current* scope as a child named
    ``tier:<name>`` via :meth:`~repro.perf.timing.TimingTree.record` —
    no scope push, so concurrent per-block kernel calls from a thread
    pool are safe (they accumulate CPU time under the enclosing
    ``kernel`` sweep).  A compiled kernel's entries in a round's table
    (:class:`~repro.lbm.kernels.compiled.EntryTable`) record under the
    same name, once per round.  ``processed_cells`` and other
    attributes of the wrapped kernel are forwarded.
    """

    def __init__(self, kernel: Kernel, tree: TimingTree, name: str):
        self.kernel = kernel
        self.tree = tree
        self.scope_name = name

    def __call__(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Run the wrapped kernel, recording its wall time."""
        t0 = time.perf_counter()
        self.kernel(src, dst)
        self.tree.record(self.scope_name, time.perf_counter() - t0)

    def __getattr__(self, attr: str):
        """Forward e.g. ``processed_cells`` / ``model`` to the wrapped kernel."""
        return getattr(self.kernel, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<instrumented {self.kernel!r} as {self.scope_name}>"


def instrument_kernel(kernel: Kernel, tree: TimingTree, name: str) -> Kernel:
    """Wrap ``kernel`` with per-call timing under scope ``tier:<name>``."""
    return InstrumentedKernel(kernel, tree, f"tier:{name}")


def run_kernel_on_region(kernel: Kernel, src: np.ndarray, dst: np.ndarray, box: Box) -> None:
    """Run ``kernel`` on the subregion ``box`` of a field pair.

    ``box`` is an interior-coordinate box (see
    :func:`~repro.lbm.kernels.common.interior_partition`); the kernel is
    invoked on halo-inclusive *views* so no data is copied and per-cell
    arithmetic is bit-identical to a full-field sweep restricted to the
    box.  All tiers accept arbitrary shapes (the ``vectorized`` tier
    caches scratch buffers per shape, allocating only on first use).
    """
    kernel(region_view(src, box), region_view(dst, box))


def make_kernel(
    tier: str,
    model: LatticeModel,
    collision: Collision,
    cells: Tuple[int, ...] | None = None,
) -> Kernel:
    """Build a kernel of the given tier.

    Parameters
    ----------
    tier:
        One of :data:`KERNEL_TIERS`.
    model:
        Lattice model; ``d3q19``, ``vectorized`` and ``compiled``
        require D3Q19.
    collision:
        SRT or TRT parameters.
    cells:
        Interior cell counts — required for the stateful ``vectorized``
        tier (it preallocates scratch buffers), ignored otherwise.

    Wrap the result with :func:`instrument_kernel` to time its calls.

    Raises :class:`~repro.errors.ConfigurationError` when ``compiled``
    is requested and the loop cannot be built on this host.
    """
    if tier == "reference":
        return _StatelessKernel(tier, reference_step, model, collision)
    if tier == "generic":
        return _StatelessKernel(tier, generic_step, model, collision)
    if tier == "d3q19":
        if model.name != "D3Q19":
            raise ValueError(f"tier 'd3q19' requires the D3Q19 model, got {model.name}")
        return _StatelessKernel(tier, d3q19_step, model, collision)
    if tier == "vectorized":
        if model.name != "D3Q19":
            raise ValueError(
                f"tier 'vectorized' requires the D3Q19 model, got {model.name}"
            )
        if cells is None:
            raise ValueError("tier 'vectorized' needs the interior cell counts")
        return VectorizedD3Q19Kernel(cells, collision)
    if tier == "compiled":
        if model.name != "D3Q19":
            raise ValueError(
                f"tier 'compiled' requires the D3Q19 model, got {model.name}"
            )
        # Raises ConfigurationError (with the reason) if the loop
        # cannot be built: an explicit request never falls back.
        return compiled.CompiledD3Q19Kernel(collision)
    raise ValueError(f"unknown kernel tier {tier!r}; choose from {KERNEL_TIERS}")
