"""LBM compute kernels: the paper's optimization tiers plus sparse-block
strategies (see §4.1 and §4.3)."""

from .compiled import CompiledD3Q19Kernel, CompiledIntervalKernel
from .common import alloc_pdf_field, interior_slices, pdf_shape, pull_slices
from .contracts import allocation_free, contract_of
from .d3q19 import d3q19_step
from .generic import generic_step
from .reference import reference_step
from .registry import KERNEL_TIERS, default_dense_kernel, make_kernel
from .sparse import (
    ConditionalSparseKernel,
    IndexListSparseKernel,
    IntervalSparseKernel,
    SPARSE_KERNELS,
    fluid_intervals,
    fluid_runs,
)
from .vectorized import VectorizedD3Q19Kernel

__all__ = [
    "alloc_pdf_field", "interior_slices", "pdf_shape", "pull_slices",
    "allocation_free", "contract_of",
    "d3q19_step", "generic_step", "reference_step",
    "KERNEL_TIERS", "default_dense_kernel", "make_kernel",
    "ConditionalSparseKernel", "IndexListSparseKernel", "IntervalSparseKernel",
    "SPARSE_KERNELS", "fluid_intervals", "fluid_runs", "VectorizedD3Q19Kernel",
    "CompiledD3Q19Kernel", "CompiledIntervalKernel",
]
