"""Interconnect models (§3): JUQUEEN's 5-D torus and SuperMUC's islanded
pruned fat tree.

These models explain the two weak-scaling signatures of Figure 6:

* On the torus, every node has fixed per-neighbor bandwidth regardless
  of machine size, so the MPI time fraction stays nearly constant and
  parallel efficiency holds at 92 % to the full machine.
* On SuperMUC, communication inside a 512-node island crosses a
  non-blocking tree, but traffic between islands shares links pruned
  4:1 — so once a job spans multiple islands, a fraction of each node's
  ghost-layer traffic sees a quarter of the bandwidth plus extra
  latency, and the MPI share of the runtime grows.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .machines import MachineSpec

__all__ = [
    "NetworkModel",
    "TorusNetwork",
    "IslandTreeNetwork",
    "network_for",
    "cross_island_fraction",
    "exchange_time_from_counters",
]


def exchange_time_from_counters(
    model: "NetworkModel",
    counters,
    steps: int,
    ranks: int,
    job_nodes: int = 1,
) -> float:
    """Predicted per-step exchange time from *measured* comm counters.

    Validates a network model against an actual run: reads the
    counters every ghost exchange accumulates in the timing tree
    (``comm.remote_messages`` / ``comm.remote_bytes``), converts them to
    the per-node per-step quantities the models are parameterized in,
    and returns ``model.exchange_time``.  Because coalescing changes the
    message count (one per rank pair instead of one per block face)
    without changing the byte volume, comparing the prediction across
    modes isolates the latency term of the model.
    """
    if steps < 1 or ranks < 1:
        raise ValueError("steps and ranks must be >= 1")
    get = counters.get if hasattr(counters, "get") else counters.counters.get
    messages = float(get("comm.remote_messages", 0.0))
    nbytes = float(get("comm.remote_bytes", 0.0))
    messages_per_node = messages / steps / ranks
    bytes_per_node = nbytes / steps / ranks
    return model.exchange_time(
        job_nodes, bytes_per_node, int(round(messages_per_node))
    )


def cross_island_fraction(job_nodes: int, island_nodes: int) -> float:
    """Fraction of a node's neighbor-exchange traffic that leaves its
    island, assuming a roughly cubic job placed island by island.

    For a job inside one island this is 0.  For larger jobs, islands
    tile the job; traffic crosses an island boundary when a process's
    face neighbor lies in the next island.  With an island holding an
    ``m^3``-node brick, each axis contributes ``1/m`` of its face
    traffic, i.e. fraction ``(2/m)/6 * 3 = 1/m`` of all face traffic.
    """
    if job_nodes <= island_nodes:
        return 0.0
    m = island_nodes ** (1.0 / 3.0)
    return min(1.0, 1.0 / m)


class NetworkModel(ABC):
    """Communication time model for the per-step ghost-layer exchange."""

    @abstractmethod
    def exchange_time(
        self,
        job_nodes: int,
        bytes_per_node: float,
        messages_per_node: int,
    ) -> float:
        """Seconds for one ghost-layer exchange (per-node view)."""


@dataclass(frozen=True)
class TorusNetwork(NetworkModel):
    """A torus: constant per-node bandwidth, constant latency.

    ``link_bandwidth`` is the effective per-node injection bandwidth for
    neighbor exchanges (nearest-neighbor traffic never shares links on
    a torus with a cubic process layout, so it is size-independent —
    the property that gives JUQUEEN its flat MPI fraction).
    """

    link_bandwidth: float
    latency_s: float
    #: Mild growth of effective exchange cost with machine size: larger
    #: torus partitions are less regular, so some neighbor pairs route
    #: over multiple hops and share links.  Calibrated to the paper's
    #: 92 % parallel efficiency on the full JUQUEEN.
    routing_dilation: float = 0.1

    def exchange_time(
        self, job_nodes: int, bytes_per_node: float, messages_per_node: int
    ) -> float:
        if job_nodes < 1 or bytes_per_node < 0 or messages_per_node < 0:
            raise ValueError("invalid exchange parameters")
        base = (
            messages_per_node * self.latency_s
            + bytes_per_node / self.link_bandwidth
        )
        return base * (1.0 + self.routing_dilation * math.log2(max(job_nodes, 1)))


@dataclass(frozen=True)
class IslandTreeNetwork(NetworkModel):
    """Islands with non-blocking trees inside and pruned links between.

    Traffic that stays within an island sees the full ``link_bandwidth``;
    the :func:`cross_island_fraction` of the traffic that leaves the
    island shares uplinks pruned ``pruning``:1 and pays an extra switch
    hop of latency.
    """

    link_bandwidth: float
    latency_s: float
    island_nodes: int
    pruning: float
    #: Contention growth on the pruned uplinks as the job spreads over
    #: more islands (calibrated to the Figure 6a efficiency drop).
    contention_exponent: float = 0.5

    def exchange_time(
        self, job_nodes: int, bytes_per_node: float, messages_per_node: int
    ) -> float:
        if job_nodes < 1 or bytes_per_node < 0 or messages_per_node < 0:
            raise ValueError("invalid exchange parameters")
        x = cross_island_fraction(job_nodes, self.island_nodes)
        intra = (1.0 - x) * bytes_per_node / self.link_bandwidth
        islands = self.islands_used(job_nodes)
        cross_bw = self.link_bandwidth / (
            self.pruning * islands**self.contention_exponent
        )
        inter = x * bytes_per_node / cross_bw
        # Cross-island messages traverse more switch levels.
        lat = messages_per_node * self.latency_s * (1.0 + 2.0 * x)
        return lat + intra + inter

    def islands_used(self, job_nodes: int) -> int:
        """Number of islands a job of ``job_nodes`` nodes spans."""
        return max(1, math.ceil(job_nodes / self.island_nodes))


def network_for(machine: MachineSpec) -> NetworkModel:
    """Instantiate the interconnect model of a machine description."""
    if machine.network_kind == "torus":
        return TorusNetwork(
            link_bandwidth=machine.network_link_bandwidth,
            latency_s=machine.network_latency_s,
        )
    if machine.network_kind == "pruned_fat_tree":
        if machine.island_nodes is None:
            raise ValueError(f"{machine.name} lacks island size")
        return IslandTreeNetwork(
            link_bandwidth=machine.network_link_bandwidth,
            latency_s=machine.network_latency_s,
            island_nodes=machine.island_nodes,
            pruning=machine.island_pruning,
        )
    raise ValueError(f"unknown network kind {machine.network_kind!r}")
