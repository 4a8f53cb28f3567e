"""Figure 6 — weak scaling on dense, regular domains.

Two parts, mirroring the repo's correctness/performance split:

* a *real* weak scaling of the distributed implementation on this host
  (virtual processes, one block each, fixed cells per process) — the
  per-process rate must stay flat, which is the paper's data-structure
  scalability claim exercised for real;
* the machine-model curves for SuperMUC and JUQUEEN with the paper's
  cell counts, configurations, and core counts.
"""

import pytest

from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation
from repro.geometry import AABB
from repro.harness import fig6_weak_dense
from repro.lbm import TRT

CELLS = (20, 20, 20)


def _run_weak(n_ranks: int, steps: int = 4) -> float:
    """Real distributed run: total MLUPS over all virtual ranks.

    All virtual ranks share this host's compute, so the meaningful
    flat-weak-scaling check is that the *total* update rate does not
    degrade as blocks/ranks are added — i.e. the distributed data
    structures and the ghost exchange add no per-rank overhead."""
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), (float(n_ranks), 1.0, 1.0)), (n_ranks, 1, 1), CELLS
    )
    balance_forest(forest, n_ranks, strategy="round_robin")
    sim = DistributedSimulation(
        forest, TRT.from_tau(0.8), periodic=(True, True, True), boundaries=[]
    )
    sim.run(steps)
    return sim.mlups()


@pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
def test_weak_scaling_real(benchmark, n_ranks):
    rate = benchmark.pedantic(
        _run_weak, args=(n_ranks,), rounds=2, iterations=1
    )
    benchmark.extra_info["total_mlups"] = rate


def test_weak_scaling_no_overhead():
    """Total throughput must not degrade as virtual ranks are added —
    the data structures and ghost exchange are overhead-free (§4.2)."""
    r1 = _run_weak(1)
    r8 = _run_weak(8)
    assert r8 > 0.6 * r1


def test_fig6_report_and_shape():
    result = fig6_weak_dense(core_exponents=(5, 9, 13, 17))
    print(result.report)
    sm = result.series["SuperMUC/4P4T"]
    jq = result.series["JUQUEEN/16P4T"]
    # Paper headline numbers (±15 %).
    assert sm[-1].total_mlups == pytest.approx(837e3, rel=0.15)
    assert jq[-1].total_mlups == pytest.approx(1.93e6, rel=0.15)
    # JUQUEEN keeps ~92 % efficiency; SuperMUC drops across islands.
    assert jq[-1].mlups_per_core / jq[0].mlups_per_core == pytest.approx(
        0.92, abs=0.05
    )
    assert sm[-1].mlups_per_core < sm[0].mlups_per_core
    assert sm[-1].comm_fraction > sm[0].comm_fraction
