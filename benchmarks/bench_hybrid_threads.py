"""Hybrid intra-rank threading benchmark: the workers=1/2/4 MLUPS ladder.

The paper's Figure 5 varies the SMT level within one node (45 -> 62 ->
73 MLUPS at 1-/2-/4-way SMT on JUQUEEN, a 1.00/1.38/1.62 relative
ladder) while the domain stays fixed — the node-level half of the
hybrid MPI+OpenMP execution model.  This benchmark is that experiment
on the :mod:`repro.exec` sweep engine: one large dense block, the
``vectorized`` kernel, swept inline at one worker (the serial engine)
and by a pool of 2/4 threads sweeping interior slabs.

Honest measurement on a time-shared host
----------------------------------------
The CI container typically exposes **one** hardware core, so wall-clock
time cannot speed up with more threads — the workers time-share the
core (and pay dispatch overhead for the privilege).  The engine
therefore accounts, per round, each worker's busy *CPU* seconds
(``time.thread_time``) and accumulates the per-round ``max`` over
workers as ``exec.critical_path_seconds``: the time the round would
take if every worker owned a hardware thread.  The headline ``mlups``
of this ladder is the **critical-path MLUPS**

    cells * steps / critical_path_seconds / 1e6

which measures decomposition quality (slab balance, scheduling, scratch
locality) independently of host core count; ``wall_mlups`` is reported
alongside and matches the critical path only on genuinely multi-core
hosts.  Bit-identity of the final PDF fields across all worker counts
is asserted on every run.

The ECM comparison maps the ladder onto the paper's SMT axis: JUQUEEN's
measured per-core SMT scaling (1.0/1.45/1.75) saturates against the
memory roofline to the 1.00/1.38/1.62 socket ladder of Figure 5.  Our
threads are the analog of SMT lanes — extra instruction streams over
shared execution resources — so the *shape* (sublinear, monotone) is
the comparison, not the absolute factors.

Result lands in ``BENCH_threads.json``.  Run directly
(``PYTHONPATH=src python benchmarks/bench_hybrid_threads.py``) or via
pytest (``pytest benchmarks/bench_hybrid_threads.py``); set
``REPRO_BENCH_QUICK=1`` for the CI-sized problem.
"""

import json
import os

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core import Simulation
from repro.lbm import NoSlip, TRT, UBB
from repro.perf.ecm import EcmModel
from repro.perf.machines import JUQUEEN

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
CELLS = (32, 32, 32) if QUICK else (48, 48, 48)
STEPS = 10 if QUICK else 20
REPEATS = 2 if QUICK else 3
WORKER_LADDER = (1, 2, 4)
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_threads.json")

#: Figure 5 (JUQUEEN, 16 ranks x SMT): measured MLUPS per SMT level.
PAPER_FIG5_MLUPS = {1: 45.0, 2: 62.0, 4: 73.0}


def _build(workers: int) -> Simulation:
    sim = Simulation(
        cells=CELLS,
        collision=TRT.from_tau(0.65),
        kernel="vectorized",
        workers=workers,
    )
    sim.flags.fill(fl.FLUID)
    d = sim.flags.data
    d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, :, 0] = fl.NO_SLIP
    d[:, :, -1] = fl.VELOCITY_BC
    sim.add_boundary(NoSlip())
    sim.add_boundary(UBB(velocity=(0.05, 0.0, 0.0)))
    sim.finalize()
    return sim


def _measure(workers: int) -> dict:
    """Best-of-``REPEATS`` run at one worker count."""
    best = None
    fingerprint = None
    for _ in range(REPEATS):
        sim = _build(workers)
        # Warm up: first step allocates each worker's scratch shapes; it
        # is left out of every rate below.
        sim.run(1)
        kernel0 = sim.timeloop.timings()["kernel"]
        engine = sim.engine
        cp0 = engine.critical_path_seconds
        busy0 = engine.busy_wall_seconds
        sim.run(STEPS)
        cp = engine.critical_path_seconds - cp0
        busy = engine.busy_wall_seconds - busy0
        updates = float(np.prod(CELLS)) * STEPS
        kernel_wall = sim.timeloop.timings()["kernel"] - kernel0
        fingerprint = sim.pdfs.src.copy()
        row = {
            "workers": workers,
            "tasks_per_step": len(sim.schedule.kernel_tasks),
            "mlups": updates / cp / 1e6 if cp > 0 else 0.0,
            "wall_mlups": updates / kernel_wall / 1e6 if kernel_wall else 0.0,
            "critical_path_seconds": cp,
            "busy_wall_seconds": busy,
            "claims": engine.claims,
            "steals": engine.steals,
        }
        sim.close()
        if best is None or row["mlups"] > best["mlups"]:
            best = row
    best["fingerprint"] = fingerprint
    return best


def _ecm_ladder() -> dict:
    """JUQUEEN's ECM-predicted socket MLUPS per SMT level, plus the
    paper's measured Figure 5 points, both normalized to the 1-way rung."""
    model = EcmModel(JUQUEEN)
    cores = JUQUEEN.cores_per_socket
    pred = {s: model.predict(cores, smt=s).mlups for s in (1, 2, 4)}
    return {
        "machine": JUQUEEN.name,
        "cores": cores,
        "ecm_mlups": pred,
        "ecm_relative": {s: pred[s] / pred[1] for s in pred},
        "paper_fig5_mlups": dict(PAPER_FIG5_MLUPS),
        "paper_fig5_relative": {
            s: v / PAPER_FIG5_MLUPS[1] for s, v in PAPER_FIG5_MLUPS.items()
        },
    }


def run_benchmark(write_json: bool = True) -> dict:
    rows = [_measure(w) for w in WORKER_LADDER]
    ref = rows[0].pop("fingerprint")
    identical = True
    for row in rows[1:]:
        identical &= bool(np.array_equal(ref, row.pop("fingerprint")))
    base = rows[0]["mlups"]
    ladder = {
        row["workers"]: (row["mlups"] / base if base > 0 else 0.0)
        for row in rows
    }
    payload = {
        "schema": "repro.bench-threads/1",
        "cells": list(CELLS),
        "steps": STEPS,
        "repeats": REPEATS,
        "quick": QUICK,
        "mlups_metric": (
            "critical-path MLUPS: cells*steps / max-per-worker busy CPU "
            "seconds; wall_mlups alongside (equals it only on multi-core "
            "hosts)"
        ),
        "workers": rows,
        "measured_relative": ladder,
        "bit_identical_across_workers": identical,
        "ecm_smt_ladder": _ecm_ladder(),
    }
    if write_json:
        with open(OUT_PATH, "w") as fh:
            json.dump(payload, fh, indent=2)
    return payload


@pytest.mark.bench
def test_thread_ladder_scales_and_stays_bit_identical():
    """Acceptance: >= 1.5x critical-path MLUPS at workers=4 vs 1 on one
    large dense block, bit-identical fields at every worker count, and a
    monotone measured ladder like the paper's SMT axis."""
    payload = run_benchmark()
    ladder = payload["measured_relative"]
    assert payload["bit_identical_across_workers"]
    assert ladder[1] == 1.0
    assert ladder[4] >= 1.5, f"workers=4 speedup only {ladder[4]:.2f}x"
    assert ladder[2] > 1.0
    # The ECM/Fig5 reference ladder is monotone sublinear, like ours.
    fig5 = payload["ecm_smt_ladder"]["paper_fig5_relative"]
    assert fig5[1] < fig5[2] < fig5[4] < 4.0


def main():
    payload = run_benchmark()
    print(f"hybrid thread ladder, {payload['cells']} cells, "
          f"{payload['steps']} steps (best of {payload['repeats']})")
    print(f"{'workers':>7} {'tasks':>6} {'cp MLUPS':>9} {'wall MLUPS':>11} "
          f"{'rel':>5} {'steals':>7}")
    for row in payload["workers"]:
        rel = payload["measured_relative"][row["workers"]]
        print(
            f"{row['workers']:>7} {row['tasks_per_step']:>6} "
            f"{row['mlups']:>9.2f} {row['wall_mlups']:>11.2f} "
            f"{rel:>5.2f} {row['steals']:>7}"
        )
    ec = payload["ecm_smt_ladder"]
    print(
        "paper Fig 5 SMT ladder (JUQUEEN): "
        + ", ".join(
            f"{s}-way {v:.2f}x" for s, v in ec["paper_fig5_relative"].items()
        )
    )
    print(
        f"bit-identical across workers: "
        f"{payload['bit_identical_across_workers']}"
    )
    print(f"wrote {os.path.abspath(OUT_PATH)}")


if __name__ == "__main__":
    main()
