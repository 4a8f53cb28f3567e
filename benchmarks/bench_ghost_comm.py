"""Ghost-layer communication benchmark: per-face vs bulk-coalesced vs
overlapped exchange on a >= 8-block SPMD run (the tentpole's numbers).

Per ``comm_mode`` this runs the same lid-driven-cavity problem through
:func:`repro.comm.run_spmd_simulation` with per-rank timing trees and
reports

* **messages/step** — per-face posts one message per (block, face)
  pair, coalesced and overlap exactly one per rank pair (read back from
  the ``comm.remote_messages`` counter in every mode),
* **bytes/step** — identical across modes (coalescing repacks, it does
  not re-send), read from the ``comm.remote_bytes`` counter,
* **comm-stage seconds** — the sum of the top-level ``communication*``
  scopes of the reduced timing tree (max over ranks: the critical
  path), best-of ``REPEATS`` interleaved samples,
* **total MLUPS** — cell updates over accounted wall time.

A second, sparse case runs a coronary-like forest (most ghost-region
cells flagged OUTSIDE by their sender) on in-process ranks twice: with
the compiled ghost copy, which leaves those cells out after the first
two exchanges, and with the NumPy fallback (a forced failed build).  It
checks that both give the same bits in every cell of both grids and
that the compiled exchange is not slower; it is skipped without a C
compiler.

The result lands in ``BENCH_comm.json`` next to the repo root so the
bench trajectory has data, together with the interconnect-model
validation of :func:`repro.perf.network.exchange_time_from_counters`:
the measured counters of the coalesced run are fed through the JUQUEEN
torus and SuperMUC island-tree models of §3, which isolates the latency
term (message count) from the bandwidth term (byte volume).

Run directly (``PYTHONPATH=src python benchmarks/bench_ghost_comm.py``)
or via pytest (``pytest benchmarks/bench_ghost_comm.py``).
"""

import json
import os
import shutil
import time

import numpy as np
import pytest

from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import (
    COMM_MODES,
    DistributedSimulation,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, TRT, UBB
from repro.lbm.kernels import compiled
from repro.perf.machines import JUQUEEN, SUPERMUC
from repro.perf.network import exchange_time_from_counters, network_for
from repro.perf.timing import TimingTree, reduce_trees
from repro.scenarios import lid_driven_cavity

RANKS = 4
GRID = (4, 2, 2)          # 16 blocks — comfortably past the 8-block floor
CELLS = (10, 10, 10)      # small faces: the latency term dominates
STEPS = 30
REPEATS = 3               # interleaved best-of, as the other benches do
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_comm.json")


def _forest():
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in GRID)), GRID, CELLS
    )
    balance_forest(forest, RANKS, strategy="morton")
    return forest


def _run(mode: str):
    trees = [TimingTree() for _ in range(RANKS)]
    world = VirtualMPI(RANKS)
    t0 = time.perf_counter()
    result = run_spmd_simulation(
        world,
        _forest(),
        TRT.from_tau(0.65),
        STEPS,
        conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=lid_driven_cavity(GRID),
        timing_trees=trees,
        comm_mode=mode,
    )
    wall = time.perf_counter() - t0
    return result, reduce_trees(trees), wall


def _comm_seconds(reduced) -> tuple:
    """(avg, max-over-ranks) seconds in top-level communication scopes."""
    avg = mx = 0.0
    for node in reduced.root.children.values():
        if node.name.startswith("communication"):
            avg += node.total_avg
            mx += node.total_max
    return avg, mx


def _collect(mode: str) -> dict:
    best = None
    for _ in range(REPEATS):
        _, reduced, wall = _run(mode)
        comm_avg, comm_max = _comm_seconds(reduced)
        if best is None or comm_max < best["comm_seconds_max"]:
            c = reduced.counters
            messages = c.get("comm.remote_messages", 0.0)
            nbytes = c.get("comm.remote_bytes", 0.0)
            updates = c.get("cells_updated", 0.0)
            best = {
                "comm_mode": mode,
                "messages_per_step": messages / STEPS,
                "bytes_per_step": nbytes / STEPS,
                "comm_seconds_avg": comm_avg,
                "comm_seconds_max": comm_max,
                "comm_fraction": comm_avg / reduced.total_seconds(),
                "wall_seconds": wall,
                "mlups": updates / wall / 1e6,
                "overlap_efficiency": c.get("comm.overlap_efficiency"),
                "counters": {
                    k: v for k, v in sorted(c.items()) if k.startswith("comm.")
                },
            }
    return best


def _model_validation(reduced) -> dict:
    """Feed the measured coalesced counters through the §3 interconnect
    models — the per-node per-step exchange time each machine's network
    would need for this traffic."""
    out = {}
    for machine in (JUQUEEN, SUPERMUC):
        model = network_for(machine)
        out[machine.name] = {
            "network_kind": machine.network_kind,
            "predicted_exchange_seconds_1_node": exchange_time_from_counters(
                model, reduced.counters, steps=STEPS, ranks=RANKS, job_nodes=1
            ),
            "predicted_exchange_seconds_4096_nodes": exchange_time_from_counters(
                model, reduced.counters, steps=STEPS, ranks=RANKS, job_nodes=4096
            ),
        }
    return out


SPARSE_WARMUP = 3         # the first two exchanges copy every cell
SPARSE_STEPS = 20


def _sparse_sim():
    """Coronary-like forest on 4 in-process ranks, coalesced exchange."""
    geom = CapsuleTreeGeometry(CoronaryTree.generate(generations=3, seed=4))
    forest = SetupBlockForest.create(
        geom.aabb(), (4, 4, 4), (12, 12, 12), geometry=geom
    )
    balance_forest(forest, 4, strategy="metis")
    return DistributedSimulation(
        forest,
        TRT.from_tau(0.8),
        geometry=geom,
        boundaries=[NoSlip(), UBB(velocity=(0.0, 0.0, 0.01)), PressureABB(rho_w=1.0)],
        comm_mode="coalesced",
    )


def _sparse_sample(fallback: bool):
    """``(exchange seconds per step, {block: (src, dst)})`` of one run."""
    with pytest.MonkeyPatch.context() as m:
        if fallback:
            m.setattr(compiled, "_build", compiled._Build(reason="forced failure"))
        sim = _sparse_sim()
    try:
        sim.run(SPARSE_WARMUP)
        before = sim.timeloop.timings().get("communication", 0.0)
        sim.run(SPARSE_STEPS)
        seconds = sim.timeloop.timings()["communication"] - before
        grids = {k: (f.src.copy(), f.dst.copy()) for k, f in sim.fields.items()}
        return seconds / SPARSE_STEPS, grids
    finally:
        sim.close()


def run_sparse_case() -> dict:
    """The sparse case: compiled copy vs NumPy fallback, interleaved
    best-of ``REPEATS``; ``identical`` compares every cell of both
    grids after the last repeat."""
    best = {"compiled": float("inf"), "fallback": float("inf")}
    grids = {}
    for _ in range(REPEATS):
        for name in best:
            seconds, grids[name] = _sparse_sample(name == "fallback")
            best[name] = min(best[name], seconds)
    identical = grids["compiled"].keys() == grids["fallback"].keys() and all(
        np.array_equal(a, b)
        for key in grids["compiled"]
        for a, b in zip(grids["compiled"][key], grids["fallback"][key])
    )
    return {
        "exchange_seconds_per_step": best,
        "speedup": best["fallback"] / best["compiled"],
        "identical": identical,
        "steps": SPARSE_STEPS,
    }


def run_benchmark(write_json: bool = True) -> dict:
    forest = _forest()
    modes = {m: _collect(m) for m in COMM_MODES}

    # One extra instrumented coalesced run feeds the network models.
    _, reduced, _ = _run("coalesced")
    payload = {
        "schema": "repro.bench-comm/1",
        "ranks": RANKS,
        "blocks": len(forest.blocks),
        "cells_per_block": list(CELLS),
        "steps": STEPS,
        "repeats": REPEATS,
        "modes": modes,
        "network_model_validation": _model_validation(reduced),
    }
    if compiled.available():
        payload["sparse_ghost_copy"] = run_sparse_case()
    if write_json:
        with open(OUT_PATH, "w") as fh:
            json.dump(payload, fh, indent=2)
    return payload


@pytest.mark.bench
def test_coalescing_reduces_messages_and_comm_time():
    """The acceptance numbers: one message per rank pair per step beats
    one per block face, and the comm stage gets cheaper for it."""
    payload = run_benchmark()
    per_face = payload["modes"]["per-face"]
    coalesced = payload["modes"]["coalesced"]
    overlap = payload["modes"]["overlap"]

    # Message coalescing: strictly fewer messages, same byte volume.
    assert coalesced["messages_per_step"] < per_face["messages_per_step"]
    assert coalesced["messages_per_step"] <= RANKS * (RANKS - 1)
    assert coalesced["bytes_per_step"] == per_face["bytes_per_step"]
    assert overlap["messages_per_step"] == coalesced["messages_per_step"]

    # The point of the exercise: comm-stage time goes down.
    assert coalesced["comm_seconds_max"] < per_face["comm_seconds_max"]

    # Overlap hides (part of) the wire wait behind the inner kernels.
    assert 0.0 <= overlap["overlap_efficiency"] <= 1.0

    # Model validation is finite and ordered sensibly: the pruned tree
    # beyond one island is slower than inside it.
    val = payload["network_model_validation"]
    for entry in val.values():
        assert entry["predicted_exchange_seconds_1_node"] > 0.0
    sm = val["SuperMUC"]
    assert (
        sm["predicted_exchange_seconds_4096_nodes"]
        > sm["predicted_exchange_seconds_1_node"]
    )


@pytest.mark.bench
@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler ('cc') on PATH")
def test_sparse_compiled_copy_identical_and_not_slower():
    """On a sparse forest the compiled copy, which leaves out cells the
    sender flags OUTSIDE, gives the fallback's bits in both grids and
    does not make the exchange slower."""
    case = run_sparse_case()
    assert case["identical"]
    times = case["exchange_seconds_per_step"]
    assert times["compiled"] <= times["fallback"], times


def main():
    payload = run_benchmark()
    print(f"{'mode':<10} {'msg/step':>9} {'kB/step':>9} "
          f"{'comm max (s)':>13} {'MLUPS':>8}")
    for mode, row in payload["modes"].items():
        print(
            f"{mode:<10} {row['messages_per_step']:>9.0f} "
            f"{row['bytes_per_step'] / 1024:>9.1f} "
            f"{row['comm_seconds_max']:>13.4f} {row['mlups']:>8.2f}"
        )
    for name, entry in payload["network_model_validation"].items():
        print(
            f"{name}: predicted exchange "
            f"{entry['predicted_exchange_seconds_1_node'] * 1e6:.1f} us/step "
            f"(1 node) -> "
            f"{entry['predicted_exchange_seconds_4096_nodes'] * 1e6:.1f} us/step "
            f"(4096 nodes)"
        )
    sparse = payload.get("sparse_ghost_copy")
    if sparse is not None:
        t = sparse["exchange_seconds_per_step"]
        print(
            f"sparse forest exchange: compiled {t['compiled'] * 1e3:.2f} ms/step, "
            f"fallback {t['fallback'] * 1e3:.2f} ms/step "
            f"({sparse['speedup']:.2f}x), identical bits: {sparse['identical']}"
        )
    print(f"wrote {os.path.abspath(OUT_PATH)}")


if __name__ == "__main__":
    main()
