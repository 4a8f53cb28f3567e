"""Performance engineering: machine models (SuperMUC, JUQUEEN), roofline
and ECM kernel models, STREAM benchmarks, interconnect models, and the
machine-scale scaling simulator (§3, §4)."""

from .ecm import EcmModel, EcmPrediction
from .machines import JUQUEEN, MACHINES, MachineSpec, SUPERMUC
from .metrics import (
    bandwidth_utilization,
    comm_bandwidth,
    flops_estimate,
    mflups,
    mlups,
    parallel_efficiency,
)
from .timing import (
    ReducedTimingNode,
    ReducedTimingTree,
    TimerStats,
    TimingNode,
    TimingTree,
    best_of,
    reduce_over_comm,
    reduce_trees,
)
from .network import (
    IslandTreeNetwork,
    NetworkModel,
    TorusNetwork,
    cross_island_fraction,
    exchange_time_from_counters,
    network_for,
)
from .roofline import RooflinePoint, lbm_traffic_per_cell, machine_roofline, roofline_mlups
from .scaling import (
    CoronaryWeakPoint,
    FrameworkCosts,
    NodeConfig,
    PAPER_CONFIGS,
    StrongScalingPoint,
    VesselBlockModel,
    WeakScalingPoint,
    node_kernel_mlups,
    strong_scaling_coronary,
    weak_scaling_coronary,
    weak_scaling_dense,
)
from .solution_time import SolutionEstimate, estimate_time_to_solution
from .stream import StreamResult, measure_copy_bandwidth, measure_lbm_pattern_bandwidth

__all__ = [
    "EcmModel", "EcmPrediction",
    "JUQUEEN", "MACHINES", "MachineSpec", "SUPERMUC",
    "bandwidth_utilization", "comm_bandwidth", "flops_estimate",
    "mflups", "mlups", "parallel_efficiency",
    "ReducedTimingNode", "ReducedTimingTree", "TimerStats", "TimingNode",
    "TimingTree", "best_of",
    "reduce_over_comm", "reduce_trees",
    "IslandTreeNetwork", "NetworkModel", "TorusNetwork",
    "cross_island_fraction", "exchange_time_from_counters", "network_for",
    "RooflinePoint", "lbm_traffic_per_cell", "machine_roofline", "roofline_mlups",
    "CoronaryWeakPoint", "FrameworkCosts", "NodeConfig", "PAPER_CONFIGS",
    "StrongScalingPoint", "VesselBlockModel", "WeakScalingPoint",
    "node_kernel_mlups", "strong_scaling_coronary", "weak_scaling_coronary",
    "weak_scaling_dense",
    "SolutionEstimate", "estimate_time_to_solution",
    "StreamResult", "measure_copy_bandwidth", "measure_lbm_pattern_bandwidth",
]
