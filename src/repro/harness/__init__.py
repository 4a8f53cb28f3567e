"""Experiment harness: one driver per paper figure/table, with reports
that print the paper's published value next to the reproduction's."""

from .machine_comparison import machine_comparison
from .figures import (
    FigureResult,
    fig1_partitioning,
    fig3_kernel_tiers,
    fig4_ecm_frequency,
    fig5_smt,
    fig6_weak_dense,
    fig7_weak_coronary,
    fig8_strong_coronary,
    roofline_summary,
)
from .paper_case import (
    ProfileResult,
    measure_host_kernel_mlups,
    paper_block_model,
    paper_coronary_tree,
    paper_geometry,
    profile_spmd_cavity,
)
from .report import (
    format_comm_breakdown,
    format_comparison,
    format_table,
    print_header,
)

__all__ = [
    "FigureResult",
    "fig1_partitioning", "fig3_kernel_tiers", "fig4_ecm_frequency",
    "fig5_smt", "fig6_weak_dense", "fig7_weak_coronary",
    "fig8_strong_coronary", "roofline_summary", "machine_comparison",
    "measure_host_kernel_mlups", "paper_block_model",
    "paper_coronary_tree", "paper_geometry",
    "ProfileResult", "profile_spmd_cavity",
    "format_comparison", "format_table", "print_header",
    "format_comm_breakdown",
]
