"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation.  Each returns
the structured series and a ready-to-print report that shows the paper's
published values next to the reproduction's — the benchmarks under
``benchmarks/`` call these and assert the shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..constants import D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE
from ..lbm.collision import SRT, TRT
from ..lbm.kernels.registry import default_dense_kernel
from ..perf.ecm import EcmModel
from ..perf.machines import JUQUEEN, SUPERMUC
from ..perf.roofline import machine_roofline
from ..perf.scaling import (
    NodeConfig,
    PAPER_CONFIGS,
    VesselBlockModel,
    strong_scaling_coronary,
    weak_scaling_coronary,
    weak_scaling_dense,
)
from .paper_case import measure_host_kernel_mlups, paper_block_model
from .report import format_comparison, format_table, print_header

__all__ = [
    "fig1_partitioning",
    "fig3_kernel_tiers",
    "fig4_ecm_frequency",
    "fig5_smt",
    "fig6_weak_dense",
    "fig7_weak_coronary",
    "fig8_strong_coronary",
    "roofline_summary",
]


@dataclass
class FigureResult:
    """Series plus a human-readable report."""

    name: str
    series: Dict[str, object] = field(default_factory=dict)
    report: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.report

    def to_csv(self, directory: str) -> List[str]:
        """Write each series as a CSV file (one per series of scaling
        points; scalar series go into one summary file).  Returns the
        written paths — ready for external plotting."""
        import csv
        import dataclasses
        import os

        os.makedirs(directory, exist_ok=True)
        written: List[str] = []
        scalars = {}
        for key, value in self.series.items():
            safe = str(key).replace("/", "_").replace(" ", "_")
            if isinstance(value, (int, float)):
                scalars[key] = value
                continue
            if isinstance(value, (list, tuple)) and value and dataclasses.is_dataclass(value[0]):
                path = os.path.join(directory, f"{self.name}_{safe}.csv")
                fields = [f.name for f in dataclasses.fields(value[0])]
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(fields)
                    for point in value:
                        writer.writerow(
                            [getattr(point, f) for f in fields]
                        )
                written.append(path)
            else:
                scalars[key] = value
        if scalars:
            path = os.path.join(directory, f"{self.name}_summary.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["quantity", "value"])
                for key, value in scalars.items():
                    writer.writerow([key, value])
            written.append(path)
        return written


# ---------------------------------------------------------------------------
def fig1_partitioning(
    block_model: Optional[VesselBlockModel] = None,
    targets: Sequence[int] = (512, 458752),
) -> FigureResult:
    """Figure 1: one-block-per-process partitioning of the coronary tree.

    Paper: a 512-process target yields 485 blocks (one nodeboard); the
    full-JUQUEEN target of 458,752 processes yields 458,184 blocks —
    i.e. the search fills ~95-99 % of the target with a few processes
    left empty.
    """
    bm = block_model or paper_block_model()
    rows = []
    series = {}
    for target in targets:
        h = bm.find_block_edge(target)
        n = bm.occupied_blocks(h)
        rows.append((target, n, f"{100.0 * n / target:.1f}%"))
        series[target] = n
    report = print_header("Figure 1 — coronary domain partitioning") + "\n"
    report += format_table(
        ["target processes", "blocks", "fill"], rows
    )
    report += "\n" + format_comparison(
        "512 processes -> blocks", "485", str(series.get(512, "-"))
    )
    report += "\n" + format_comparison(
        "458,752 processes -> blocks", "458,184", str(series.get(458752, "-"))
    )
    return FigureResult(name="fig1", series=series, report=report)


# ---------------------------------------------------------------------------
def fig3_kernel_tiers(
    cells=(40, 40, 40), steps: int = 4
) -> FigureResult:
    """Figure 3: kernel optimization tiers, measured on this host plus the
    machine-model node curves.

    Paper (socket/node saturation): generic < D3Q19-specialized < SIMD;
    the SIMD kernel is ~20 % faster than D3Q19 on SuperMUC and 2.5x the
    serial kernel on JUQUEEN; TRT matches SRT once memory bound.  The
    generated ``compiled`` tier joins the ladder when a C compiler
    built it in this process.
    """
    host_rows = []
    series: Dict[str, float] = {}
    tiers = ["generic", "d3q19", "vectorized"]
    if default_dense_kernel() == "compiled":
        tiers.append("compiled")
    for tier in tiers:
        for name, coll in (("SRT", SRT(0.8)), ("TRT", TRT.from_tau(0.8))):
            rate = measure_host_kernel_mlups(tier, cells, steps, coll)
            host_rows.append((tier, name, round(rate, 2)))
            series[f"{tier}/{name}"] = rate
    model_rows = []
    for machine in (SUPERMUC, JUQUEEN):
        ecm = EcmModel(machine)
        smt = machine.smt_ways if machine.name == "JUQUEEN" else 1
        for cores in range(1, machine.cores_per_socket + 1):
            model_rows.append(
                (machine.name, cores, round(ecm.predict(cores, smt=smt).mlups, 1))
            )
    report = print_header("Figure 3 — LBM kernel tiers") + "\n"
    report += format_table(
        ["kernel", "collision", "host MLUPS"], host_rows,
        title="Measured NumPy kernels on this host (dense 3-D block):",
    )
    report += "\n\n" + format_table(
        ["machine", "cores", "model MLUPS"],
        model_rows,
        title="ECM-model per-socket curves (paper's solid lines):",
    )
    gv = series["vectorized/TRT"] / series["generic/TRT"]
    dv = series["vectorized/TRT"] / series["d3q19/TRT"]
    report += "\n" + format_comparison(
        "vectorized vs generic (TRT)", "well above 1x", f"{gv:.2f}x"
    )
    report += "\n" + format_comparison(
        "vectorized vs d3q19 (TRT)", "~1.2x (SuperMUC AVX)", f"{dv:.2f}x"
    )
    fastest = tiers[-1]
    if fastest == "compiled":
        report += "\n" + format_comparison(
            "compiled vs vectorized (TRT)", "roofline vs NumPy passes",
            f"{series['compiled/TRT'] / series['vectorized/TRT']:.2f}x",
        )
    report += "\n" + format_comparison(
        f"TRT vs SRT ({fastest})",
        "equal when memory bound",
        f"{series[f'{fastest}/TRT'] / series[f'{fastest}/SRT']:.2f}x",
    )
    return FigureResult(name="fig3", series=series, report=report)


# ---------------------------------------------------------------------------
def fig4_ecm_frequency() -> FigureResult:
    """Figure 4: ECM model core-scaling at 2.7 and 1.6 GHz on SuperMUC.

    Paper: saturation at ~6 cores at 2.7 GHz; 1.6 GHz reaches 93 % of
    the 2.7 GHz socket performance with 25 % less energy; 1.6 GHz is the
    energy-optimal frequency.
    """
    ecm = EcmModel(SUPERMUC)
    rows = []
    for clock in (2.7e9, 1.6e9):
        for cores in range(1, 9):
            p = ecm.predict(cores, clock_hz=clock)
            rows.append(
                (f"{clock / 1e9:.1f} GHz", cores, round(p.mlups, 1),
                 "yes" if p.saturated else "no")
            )
    p27 = ecm.predict(8, clock_hz=2.7e9)
    p16 = ecm.predict(8, clock_hz=1.6e9)
    steps = np.array([1.2, 1.4, 1.6, 1.8, 2.0, 2.3, 2.7]) * 1e9
    opt = ecm.optimal_frequency(steps)
    report = print_header("Figure 4 — ECM model vs clock frequency") + "\n"
    report += format_table(["clock", "cores", "MLUPS", "saturated"], rows)
    report += "\n" + format_comparison(
        "saturation cores @2.7 GHz", "6 of 8", str(ecm.saturation_cores(2.7e9))
    )
    report += "\n" + format_comparison(
        "perf @1.6 GHz vs @2.7 GHz", "93%", f"{100 * p16.mlups / p27.mlups:.0f}%"
    )
    report += "\n" + format_comparison(
        "energy @1.6 GHz vs @2.7 GHz", "-25%",
        f"{100 * (p16.energy_per_glup_j / p27.energy_per_glup_j - 1):+.0f}%",
    )
    report += "\n" + format_comparison(
        "energy-optimal clock", "1.6 GHz", f"{opt.clock_hz / 1e9:.1f} GHz"
    )
    series = {
        "saturation_cores_2.7": ecm.saturation_cores(2.7e9),
        "perf_ratio": p16.mlups / p27.mlups,
        "energy_ratio": p16.energy_per_glup_j / p27.energy_per_glup_j,
        "optimal_clock": opt.clock_hz,
    }
    return FigureResult(name="fig4", series=series, report=report)


# ---------------------------------------------------------------------------
def fig5_smt() -> FigureResult:
    """Figure 5: SMT levels on a JUQUEEN node.

    Paper: 1-way saturates near 45 MLUPS, 2-way ~62, only 4-way SMT
    approaches the ~73 MLUPS bandwidth limit.
    """
    ecm = EcmModel(JUQUEEN)
    rows = []
    series = {}
    for smt in (1, 2, 4):
        curve = [round(ecm.predict(c, smt=smt).mlups, 1) for c in (1, 4, 8, 16)]
        rows.append((f"{smt}-way", *curve))
        series[smt] = curve[-1]
    report = print_header("Figure 5 — SMT on a JUQUEEN node") + "\n"
    report += format_table(
        ["SMT", "1 core", "4 cores", "8 cores", "16 cores"], rows
    )
    report += "\n" + format_comparison(
        "16-core MLUPS at 1/2/4-way SMT", "~45 / ~62 / ~73",
        " / ".join(f"{series[s]:.0f}" for s in (1, 2, 4)),
    )
    return FigureResult(name="fig5", series=series, report=report)


# ---------------------------------------------------------------------------
def fig6_weak_dense(
    core_exponents: Sequence[int] = (5, 7, 9, 11, 13, 15, 17),
) -> FigureResult:
    """Figure 6: dense weak scaling on both machines, all three aPbT
    configurations, MLUPS/core plus MPI time share."""
    series: Dict[str, List] = {}
    blocks = []
    for machine, cpc, extra in (
        (SUPERMUC, 3_430_000, []),
        (JUQUEEN, 1_728_000, [458752]),
    ):
        cores = [
            2**k for k in core_exponents if 2**k <= machine.total_cores
        ] + extra
        for config in PAPER_CONFIGS[machine.name]:
            pts = weak_scaling_dense(machine, config, cpc, cores)
            key = f"{machine.name}/{config.label}"
            series[key] = pts
            rows = [
                (p.cores, round(p.mlups_per_core, 2),
                 f"{100 * p.comm_fraction:.1f}%",
                 f"{p.total_mlups / 1e3:.0f}")
                for p in pts
            ]
            blocks.append(
                format_table(
                    ["cores", "MLUPS/core", "MPI %", "total GLUPS"],
                    rows,
                    title=f"{machine.name} {config.label} "
                    f"({cpc / 1e6:.2f}M cells/core):",
                )
            )
    sm = series["SuperMUC/4P4T"]
    jq = series["JUQUEEN/16P4T"]
    report = print_header("Figure 6 — dense weak scaling") + "\n"
    report += "\n\n".join(blocks)
    report += "\n" + format_comparison(
        "SuperMUC total at 2^17 cores", "837 GLUPS",
        f"{sm[-1].total_mlups / 1e3:.0f} GLUPS",
    )
    report += "\n" + format_comparison(
        "JUQUEEN total on full machine", "1930 GLUPS (1.93e12 LUPS)",
        f"{jq[-1].total_mlups / 1e3:.0f} GLUPS",
    )
    report += "\n" + format_comparison(
        "JUQUEEN parallel efficiency", "92%",
        f"{100 * jq[-1].mlups_per_core / jq[0].mlups_per_core:.0f}%",
    )
    return FigureResult(name="fig6", series=series, report=report)


# ---------------------------------------------------------------------------
def fig7_weak_coronary(
    block_model: Optional[VesselBlockModel] = None,
    core_exponents: Sequence[int] = (9, 11, 13, 15, 17),
) -> FigureResult:
    """Figure 7: weak scaling on the coronary tree (MFLUPS/core rises
    with the fluid fraction)."""
    bm = block_model or paper_block_model()
    series = {}
    blocks = []
    for machine, config, edge, extra in (
        (SUPERMUC, NodeConfig(4, 4), 170, []),
        (JUQUEEN, NodeConfig(16, 4), 80, [458752]),
    ):
        cores = [2**k for k in core_exponents if 2**k <= machine.total_cores]
        cores += extra
        pts = weak_scaling_coronary(machine, config, bm, edge, cores)
        series[machine.name] = pts
        rows = [
            (p.cores, round(p.mflups_per_core, 2),
             f"{p.fluid_fraction:.2f}", f"{p.dx * 1e6:.2f}",
             f"{p.total_fluid_cells:.2e}")
            for p in pts
        ]
        blocks.append(
            format_table(
                ["cores", "MFLUPS/core", "fluid frac", "dx [um]", "fluid cells"],
                rows,
                title=f"{machine.name} ({edge}^3 blocks, {config.label}):",
            )
        )
    jq = series["JUQUEEN"]
    report = print_header("Figure 7 — coronary weak scaling") + "\n"
    report += "\n\n".join(blocks)
    report += "\n" + format_comparison(
        "MFLUPS/core trend", "rises with cores",
        "rises" if jq[-1].mflups_per_core > jq[0].mflups_per_core else "falls",
    )
    report += "\n" + format_comparison(
        "full-JUQUEEN resolution", "1.276 um", f"{jq[-1].dx * 1e6:.2f} um"
    )
    report += "\n" + format_comparison(
        "full-JUQUEEN fluid cells", "1.03e12", f"{jq[-1].total_fluid_cells:.2e}"
    )
    return FigureResult(name="fig7", series=series, report=report)


# ---------------------------------------------------------------------------
def fig8_strong_coronary(
    block_model: Optional[VesselBlockModel] = None,
    resolutions: Sequence[float] = (1e-4, 5e-5),
    core_exponents_supermuc: Sequence[int] = (4, 6, 8, 11, 13, 15),
    core_exponents_juqueen: Sequence[int] = (9, 11, 13, 15, 17),
) -> FigureResult:
    """Figure 8: strong scaling on the coronary tree at 0.1 mm and
    0.05 mm resolution, on both machines."""
    bm = block_model or paper_block_model()
    series = {}
    blocks = []
    for machine, config, exps in (
        (SUPERMUC, NodeConfig(4, 4), core_exponents_supermuc),
        (JUQUEEN, NodeConfig(16, 4), core_exponents_juqueen),
    ):
        for dx in resolutions:
            cores = [2**k for k in exps]
            pts = strong_scaling_coronary(
                machine, config, bm, dx, cores, skip_infeasible=True
            )
            key = f"{machine.name}/{dx * 1e3:.2f}mm"
            series[key] = pts
            rows = [
                (p.cores, round(p.timesteps_per_s, 1),
                 round(p.mflups_per_core, 2),
                 round(p.blocks_per_core, 1), p.block_edge_cells)
                for p in pts
            ]
            blocks.append(
                format_table(
                    ["cores", "steps/s", "MFLUPS/core", "blocks/core", "edge"],
                    rows,
                    title=f"{machine.name}, dx = {dx * 1e3:.2f} mm:",
                )
            )
    report = print_header("Figure 8 — coronary strong scaling") + "\n"
    report += "\n\n".join(blocks)
    sm1 = series["SuperMUC/0.10mm"]
    report += "\n" + format_comparison(
        "SuperMUC 0.1mm single node", "11.4 steps/s",
        f"{sm1[0].timesteps_per_s:.1f} steps/s",
    )
    report += "\n" + format_comparison(
        "SuperMUC 0.1mm large scale", "6638 steps/s @ 32k cores",
        f"{sm1[-1].timesteps_per_s:.0f} steps/s @ {sm1[-1].cores} cores",
    )
    report += "\n" + format_comparison(
        "optimal blocks/core", "32 -> 1",
        f"{sm1[0].blocks_per_core:.0f} -> {sm1[-1].blocks_per_core:.0f}",
    )
    report += "\n" + format_comparison(
        "block edges", "34^3 -> 9^3",
        f"{sm1[0].block_edge_cells}^3 -> {sm1[-1].block_edge_cells}^3",
    )
    return FigureResult(name="fig8", series=series, report=report)


# ---------------------------------------------------------------------------
def roofline_summary() -> FigureResult:
    """§4.1 text: roofline bounds of both machines plus this host,
    measured with the fastest dense tier available here
    (:func:`~repro.lbm.kernels.registry.default_dense_kernel`).

    Every row divides an LBM-pattern bandwidth by the paper's 456 B per
    cell update.  On this host, probe and kernel touch the same
    footprint: the probe's 19 source and 19 destination streams are as
    long as the kernel block's halo-inclusive cell count (80³ cells, a
    ~156 MB working set, larger than common last-level caches), so both
    run from the same level of the memory hierarchy.
    """
    from ..perf.stream import measure_copy_bandwidth, measure_lbm_pattern_bandwidth

    cells = (78, 78, 78)
    host_stream = measure_copy_bandwidth(n_doubles=4_000_000, repeats=3)
    host_lbm = measure_lbm_pattern_bandwidth(
        n_doubles=int(np.prod([c + 2 for c in cells]))
    )
    host_bound = host_lbm.bandwidth_bytes_per_s / D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE / 1e6
    tier = default_dense_kernel()
    measured = measure_host_kernel_mlups(tier, cells, 4)
    rows = [
        ("SuperMUC socket", 37.3, round(machine_roofline(SUPERMUC).mlups, 1), "87.8 (paper)"),
        ("JUQUEEN node", 32.4, round(machine_roofline(JUQUEEN).mlups, 1), "76.2 (paper)"),
        ("this host", round(host_lbm.gib_per_s, 1), round(host_bound, 1),
         f"{measured:.1f} measured ({tier})"),
    ]
    report = print_header("Roofline bounds (456 B per cell update)") + "\n"
    report += format_table(
        ["target", "LBM-pattern GiB/s", "bound MLUPS", "reference"], rows
    )
    report += "\n" + format_comparison(
        f"host {tier} kernel vs host roofline", "close when memory bound",
        f"{100 * measured / host_bound:.0f}% of bound",
    )
    series = {
        "host_stream_gib": host_stream.gib_per_s,
        "host_lbm_gib": host_lbm.gib_per_s,
        "host_bound_mlups": host_bound,
        "host_measured_mlups": measured,
    }
    return FigureResult(name="roofline", series=series, report=report)
