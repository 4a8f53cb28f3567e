"""Voxelization of the ``coronary`` benchmark workload: culled capsule
candidates vs every capsule for every cell.

``CapsuleTreeGeometry`` evaluates each point batch against only the
capsules that can matter to it (see its docstring).  This benchmark
builds the ``coronary`` workload's block forest from
``perfbench/spec.json``, voxelizes every block twice — with the culled
geometry and with the all-capsule reference of the test suite — asserts
that the flag arrays are identical, and prints both times (best of
``REPEATS``, the two paths alternating).

Run directly (``PYTHONPATH=src python benchmarks/bench_voxelize.py``)
or via pytest (``pytest benchmarks/bench_voxelize.py``).
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from helpers import AllCapsuleGeometry  # noqa: E402
from tracing import NullRecorder  # noqa: E402
from workloads import _coronary_forest, params_for  # noqa: E402

from repro.comm.distributed import default_vascular_colors  # noqa: E402
from repro.geometry import voxelize_block  # noqa: E402

REPEATS = 2


def _voxelize_all(geom, blocks, colors):
    t0 = time.perf_counter()
    flags = [voxelize_block(geom, b.box, b.cells, colors=colors) for b in blocks]
    return time.perf_counter() - t0, flags


def run() -> dict:
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    forest, geom = _coronary_forest(params_for(spec, "coronary", 0), NullRecorder())
    reference = AllCapsuleGeometry(geom.tree)
    colors = default_vascular_colors()
    times = {"culled": [], "all_capsules": []}
    for _ in range(REPEATS):
        t_ref, ref_flags = _voxelize_all(reference, forest.blocks, colors)
        t_cull, flags = _voxelize_all(geom, forest.blocks, colors)
        for b, got, want in zip(forest.blocks, flags, ref_flags):
            assert np.array_equal(got, want), f"flags of block {b.id} differ"
        times["all_capsules"].append(t_ref)
        times["culled"].append(t_cull)
    best = {k: min(v) for k, v in times.items()}
    return {
        "blocks": forest.n_blocks,
        "culled_s": best["culled"],
        "all_capsules_s": best["all_capsules"],
        "speedup": best["all_capsules"] / best["culled"],
    }


def test_culled_voxelization_matches_all_capsules():
    main()


def main() -> None:
    r = run()
    print(
        f"coronary: {r['blocks']} blocks voxelized, flags identical; "
        f"all capsules {r['all_capsules_s']:.3f} s, culled {r['culled_s']:.3f} s "
        f"({r['speedup']:.1f}x)"
    )


if __name__ == "__main__":
    main()
