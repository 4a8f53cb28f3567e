"""The sparse-aware compiled ghost copy of the coalesced exchange.

* its segment/run/plane tables against a per-cell loop (gappy masks,
  one-cell runs, face, edge and corner regions, all PDF planes or a
  subset), read both by a Python walk of the tables and by the compiled
  loop;
* bit identity of whole ``src``/``dst`` grids against the NumPy
  fallback (a forced failed build) on a coronary-like forest, in
  ``coalesced`` and ``overlap`` with 1 and 2 workers: default set-up,
  random values in every cell of both grids, and checkpoint restarts;
  the direction-filtered default plan, whose messages mix face and edge
  segments; and the SPMD driver under delay/reorder/drop faults;
* the checks on incoming bulk payloads and mask messages;
* the invariant the copy rests on: no kernel and no boundary condition
  writes a cell its block flags OUTSIDE.
"""

import shutil

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import (
    BULK_TAG,
    DistributedSimulation,
    FaultInjector,
    FaultSpec,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.comm.buffersystem import MASK_TAG, _mask_layout
from repro.errors import CommunicationError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.io.checkpoint import save_checkpoint
from repro.lbm import D3Q19, NoSlip, PressureABB, TRT, UBB
from repro.lbm.boundary import BoundaryHandling
from repro.lbm.kernels import compiled
from repro.lbm.kernels.compiled import (
    GHOST_SEGMENT_FIELDS,
    GhostBox,
    ghost_copy_table,
)
from repro.scenarios import lid_driven_cavity

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler ('cc') on PATH")

FORCED_FAILURE = compiled._Build(reason="forced failure")


# ---------------------------------------------------------------------------
# Run tables
# ---------------------------------------------------------------------------
def _box(src, src_sl, src_slot, dst, dst_sl, dst_slot, copy):
    """A :class:`GhostBox` copying every PDF plane of ``src[src_sl]`` to
    ``dst[dst_sl]``, with offsets and strides read off the NumPy
    views."""
    a, b = src[src_sl], dst[dst_sl]
    assert a.shape == b.shape

    def planes(view, arr):
        return np.array([(view[q].ctypes.data - arr.ctypes.data) // 8
                         for q in range(view.shape[0])])

    return GhostBox(
        src_slot, planes(a, src), tuple(s // 8 for s in a.strides[1:]),
        dst_slot, planes(b, dst), tuple(s // 8 for s in b.strides[1:]),
        a.shape[1:], copy,
    )


def _walk(segs, runs, planes, arrays):
    """Copy as the tables say, one element at a time (the C loop's
    reading of them, in Python)."""
    flat = [arr.reshape(-1) for arr in arrays]
    for row in segs:
        g = dict(zip(GHOST_SEGMENT_FIELDS, (int(v) for v in row)))
        src, dst = flat[g["src_slot"]], flat[g["dst_slot"]]
        for sb, db in planes[g["plane_lo"]:g["plane_hi"]].tolist():
            if g["run_lo"] < 0:
                lines = [
                    (i1 * g["src_1"] + i2 * g["src_2"],
                     i1 * g["dst_1"] + i2 * g["dst_2"], g["n"])
                    for i1 in range(g["n1"]) for i2 in range(g["n2"])
                ]
            else:
                lines = [tuple(int(v) for v in r) for r in runs[g["run_lo"]:g["run_hi"]]]
            for so, do, n in lines:
                for i in range(n):
                    dst[db + do + i * g["dst_run"]] = src[sb + so + i * g["src_run"]]


def _per_cell(src, src_sl, dst, dst_sl, copy, planes=slice(None)):
    """``dst`` after copying the PDF ``planes`` of each ``copy`` cell."""
    out = dst.copy()
    region_in, region_out = src[src_sl], out[dst_sl]
    for cell in np.ndindex(*copy.shape):
        if copy[cell]:
            region_out[(planes,) + cell] = region_in[(planes,) + cell]
    return out


def _run_compiled(tables, src, out):
    """Run the compiled loop over ``tables`` from ``src`` into ``out``."""
    segs, runs, planes = tables
    ptrs = np.array([src.ctypes.data, out.ctypes.data], dtype=np.uintp)
    compiled.ghost_copy_loop()(ptrs.ctypes.data, segs.ctypes.data, len(segs),
                               runs.ctypes.data, planes.ctypes.data)


# Send region of a (19, 7, 6, 5) padded block -> ghost region of another.
REGIONS = {
    "x-face": ((slice(None), slice(1, 2), slice(1, -1), slice(1, -1)),
               (slice(None), slice(0, 1), slice(1, -1), slice(1, -1))),
    "z-face": ((slice(None), slice(1, -1), slice(1, -1), slice(-2, -1)),
               (slice(None), slice(1, -1), slice(1, -1), slice(-1, None))),
    "edge": ((slice(None), slice(1, -1), slice(1, 2), slice(-2, -1)),
             (slice(None), slice(1, -1), slice(0, 1), slice(-1, None))),
    "corner": ((slice(None), slice(1, 2), slice(-2, -1), slice(1, 2)),
               (slice(None), slice(-1, None), slice(0, 1), slice(-1, None))),
}
SHAPE = (19, 7, 6, 5)


def _mask(kind, shape, rng):
    if kind == "all":
        return np.ones(shape, dtype=bool)
    if kind == "none":
        return np.zeros(shape, dtype=bool)
    if kind == "gappy":
        return rng.random(shape) < 0.5
    if kind == "checker":  # one-cell runs along every axis
        return (np.indices(shape).sum(axis=0) % 2) == 0
    single = np.zeros(shape, dtype=bool)
    single[tuple(s // 2 for s in shape)] = True
    return single


MASKS = ("all", "none", "gappy", "checker", "single")


def _case(region, kind, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.random(SHAPE)
    dst = rng.random(SHAPE)
    src_sl, dst_sl = REGIONS[region]
    copy = _mask(kind, src[src_sl].shape[1:], rng)
    return src, src_sl, dst, dst_sl, copy


class TestRunTables:
    @pytest.mark.parametrize("kind", MASKS)
    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_block_to_block_matches_per_cell_loop(self, region, kind):
        src, src_sl, dst, dst_sl, copy = _case(region, kind)
        expected = _per_cell(src, src_sl, dst, dst_sl, copy)
        tables = ghost_copy_table([_box(src, src_sl, 0, dst, dst_sl, 1, copy)])
        out = dst.copy()
        _walk(*tables, [src, out])
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("kind", MASKS)
    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_pack_then_unpack_matches_per_cell_loop(self, region, kind):
        """Through a flat buffer, as pack and unpack do: a segment at an
        offset of the buffer, laid out in C order."""
        src, src_sl, dst, dst_sl, copy = _case(region, kind, seed=1)
        expected = _per_cell(src, src_sl, dst, dst_sl, copy)
        shape = src[src_sl].shape
        buf = np.full(3 + int(np.prod(shape)), np.nan)
        view = buf[3:].reshape(shape)
        pack = ghost_copy_table([_box(src, src_sl, 0, view, np.s_[...], 1, copy)])
        unpack = ghost_copy_table([_box(view, np.s_[...], 0, dst, dst_sl, 1, copy)])
        # Slot arrays start at the region, so bases are offsets from it.
        _walk(*pack, [src, buf[3:]])
        out = dst.copy()
        _walk(*unpack, [buf[3:], out])
        assert np.array_equal(out, expected)

    def test_runs_follow_the_mask(self):
        src, src_sl, dst, dst_sl, copy = _case("x-face", "checker")
        segs, runs, _ = ghost_copy_table([_box(src, src_sl, 0, dst, dst_sl, 1, copy)])
        assert len(segs) == 1 and (runs[:, 2] == 1).all()
        assert len(runs) == copy.sum()

    def test_full_and_empty_masks(self):
        src, src_sl, dst, dst_sl, _ = _case("x-face", "all")
        full = _box(src, src_sl, 0, dst, dst_sl, 1, None)
        segs, runs, planes = ghost_copy_table([full])
        g = dict(zip(GHOST_SEGMENT_FIELDS, segs[0]))
        assert g["run_lo"] == -1 and len(runs) == 0  # one whole-box segment
        assert (g["plane_lo"], g["plane_hi"]) == (0, 19) and len(planes) == 19
        empty = full._replace(copy=np.zeros(full.shape, dtype=bool))
        none = np.zeros(0, dtype=np.int64)
        no_planes = full._replace(src_planes=none, dst_planes=none)
        for box in (empty, no_planes):
            segs, runs, planes = ghost_copy_table([box])
            assert segs.shape == (0, len(GHOST_SEGMENT_FIELDS))
            assert len(runs) == 0 and len(planes) == 0

    @pytest.mark.parametrize(
        "region, axis_stride",
        [("x-face", 5), ("z-face", 30), ("edge", 30), ("corner", 1)],
    )
    def test_runs_lie_along_the_longest_axis(self, region, axis_stride):
        """The run axis is the region's longest (the innermost on a tie):
        y for the (1, 4, 3) x-face, x for the (5, 4, 1) z-face and the
        (5, 1, 1) edge, z for the corner.  Field strides are (30, 5, 1)."""
        src, src_sl, dst, dst_sl, copy = _case(region, "all")
        segs, _, _ = ghost_copy_table([_box(src, src_sl, 0, dst, dst_sl, 1, copy)])
        g = dict(zip(GHOST_SEGMENT_FIELDS, segs[0]))
        assert g["n"] == max(src[src_sl].shape[1:])
        assert g["src_run"] == axis_stride

    @needs_cc
    @pytest.mark.parametrize("kind", MASKS)
    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_compiled_loop_matches_per_cell_loop(self, region, kind):
        src, src_sl, dst, dst_sl, copy = _case(region, kind, seed=2)
        expected = _per_cell(src, src_sl, dst, dst_sl, copy)
        out = dst.copy()
        _run_compiled(
            ghost_copy_table([_box(src, src_sl, 0, dst, dst_sl, 1, copy)]), src, out
        )
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("kind", MASKS)
    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_plane_subset_matches_per_cell_loop(self, region, kind):
        """A direction-filtered box lists only some PDF planes: those
        move, in both readings of the tables, and no other plane is
        touched."""
        src, src_sl, dst, dst_sl, copy = _case(region, kind, seed=3)
        keep = [1, 7, 18]
        box = _box(src, src_sl, 0, dst, dst_sl, 1, copy)
        tables = ghost_copy_table([box._replace(
            src_planes=box.src_planes[keep], dst_planes=box.dst_planes[keep]
        )])
        expected = _per_cell(src, src_sl, dst, dst_sl, copy, planes=keep)
        out = dst.copy()
        _walk(*tables, [src, out])
        assert np.array_equal(out, expected)
        if HAS_CC:
            out = dst.copy()
            _run_compiled(tables, src, out)
            assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# Bit identity against the NumPy fallback
# ---------------------------------------------------------------------------
def _coronary_forest():
    tree = CoronaryTree.generate(generations=3, seed=4)
    geom = CapsuleTreeGeometry(tree)
    forest = SetupBlockForest.create(geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom)
    balance_forest(forest, 4, strategy="metis")
    return forest, geom


CONDITIONS = (NoSlip(), UBB(velocity=(0.0, 0.0, 0.01)), PressureABB(rho_w=1.0))


def _coronary_sim(mode="coalesced", workers=1, sparse_kernel="interval"):
    forest, geom = _coronary_forest()
    return DistributedSimulation(
        forest, TRT.from_tau(0.8), geometry=geom, boundaries=list(CONDITIONS),
        comm_mode=mode, workers=workers, sparse_kernel=sparse_kernel,
    )


def _randomize(sim, seed):
    """Random near-equilibrium values in every cell (ghosts and OUTSIDE
    cells included) of both grids of every block."""
    rng = np.random.default_rng(seed)
    for key in sorted(sim.fields, key=str):
        field = sim.fields[key]
        for grid in (field.src, field.dst):
            grid[...] = rng.uniform(0.03, 0.07, grid.shape)


STEPS = 9


def _scenario(case, mode, workers, tmp_path):
    """Whole ``src`` and ``dst`` grids after one scenario."""
    sim = _coronary_sim(mode, workers)
    try:
        if case != "default":
            _randomize(sim, 7)
        if case.startswith("restart"):
            at = int(case[len("restart"):])
            path = str(tmp_path / f"ckpt-{mode}-{workers}-{at}.npz")
            sim.run(at)
            save_checkpoint(sim, path)
            sim.run(4)
            sim.restart(path)
        sim.run(STEPS)
        return {
            key: (f.src.copy(), f.dst.copy()) for key, f in sim.fields.items()
        }
    finally:
        sim.close()


CASES = ("default", "random", "restart1", "restart5")


class TestCompiledCopyBitIdentity:
    @pytest.fixture(scope="class")
    def fallback(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fallback")
        with pytest.MonkeyPatch.context() as m:
            m.setattr(compiled, "_build", FORCED_FAILURE)
            return {case: _scenario(case, "coalesced", 1, tmp) for case in CASES}

    @needs_cc
    def test_forest_has_outside_ghost_cells_to_skip(self):
        sim = _coronary_sim()
        try:
            copies = [ex._copy for ex in sim.exchange.executors]
            assert all(c is not None for c in copies)
            # Some segments are partial (run tables) and some are left out.
            assert any(len(c.pack[1]) or len(c.local[1]) for c in copies)
            skipped = sum(
                int((1 - m).sum()) for c in copies for m in c.mask_messages
            )
            assert skipped > 0
        finally:
            sim.close()

    @needs_cc
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["coalesced", "overlap"])
    def test_whole_grids_match_fallback(self, mode, workers, case, fallback, tmp_path):
        got = _scenario(case, mode, workers, tmp_path)
        ref = fallback[case]
        assert set(got) == set(ref)
        for key in ref:
            for grid, a, b in zip(("src", "dst"), got[key], ref[key]):
                assert np.array_equal(a, b), f"block {key} {grid} ({case})"


@needs_cc
def test_direction_filtered_plan_runs_compiled_copy(tmp_path, monkeypatch):
    """The default plan is direction-filtered (5 planes per face, 1 per
    edge, no corner segment) and runs on the compiled copy; its whole
    grids match the NumPy fallback's."""
    sim = _coronary_sim()
    try:
        planes = set()
        for ex in sim.exchange.executors:
            assert ex._copy is not None
            for msg in ex.plan.sends + ex.plan.recvs:
                planes |= {seg.shape[0] for seg in msg.segments}
        assert planes == {1, 5}
    finally:
        sim.close()
    got = _scenario("default", "per-face", 1, tmp_path)
    monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
    ref = _scenario("default", "per-face", 1, tmp_path)
    assert set(got) == set(ref)
    for key in ref:
        for grid, a, b in zip(("src", "dst"), got[key], ref[key]):
            assert np.array_equal(a, b), f"block {key} {grid}"


@needs_cc
def test_mask_offsets_follow_each_segments_plane_count(tmp_path, monkeypatch):
    """A coalesced message of the filtered plan mixes face segments (5
    planes) and edge segments (1 plane) whose sender flags cells
    OUTSIDE.  Each segment's cells sit at their own offset in the mask
    message, so the unpack skips exactly the cells the pack skipped:
    whole grids equal the NumPy fallback's."""
    sim = _coronary_sim("coalesced")
    try:
        mixed = 0
        for ex in sim.exchange.executors:
            masks = dict(zip(ex._copy.mask_peers, ex._copy.mask_messages))
            _, firsts = _mask_layout(ex.plan.sends)
            for msg, starts in zip(ex.plan.sends, firsts):
                counts = {seg.shape[0] for seg in msg.segments}
                skipped = [
                    not masks[msg.peer][lo:lo + np.prod(seg.shape[1:])].all()
                    for seg, lo in zip(msg.segments, starts)
                ]
                # Segments with OUTSIDE cells behind an edge segment, in a
                # message holding both plane counts.
                edge = next(
                    (k for k, seg in enumerate(msg.segments) if seg.shape[0] == 1),
                    len(skipped),
                )
                mixed += counts == {1, 5} and any(skipped[edge + 1:])
        assert mixed > 0
    finally:
        sim.close()
    got = _scenario("random", "coalesced", 1, tmp_path)
    monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
    ref = _scenario("random", "coalesced", 1, tmp_path)
    for key in ref:
        assert np.array_equal(got[key][0], ref[key][0]), f"block {key} src"


class TestSpmdUnderFaults:
    """``run_spmd_simulation`` over ``ReliableComm`` with delays (which
    reorder) and drops: the compiled copy, mask messages included, gives
    the fault-free fallback's bits."""

    STEPS = 8

    def _run(self, mode, faults=None):
        forest, geom = _coronary_forest()
        return run_spmd_simulation(
            VirtualMPI(forest.n_processes, faults=faults), forest,
            TRT.from_tau(0.8), self.STEPS, conditions=list(CONDITIONS),
            geometry=geom, resilient=True, retry_timeout=0.02,
            max_retries=25, comm_mode=mode,
        )

    @needs_cc
    @pytest.mark.parametrize("mode", ["coalesced", "overlap"])
    def test_matches_fault_free_fallback(self, mode, monkeypatch):
        spec = FaultSpec(p_delay=0.4, p_drop=0.15, max_hold=3)
        got = self._run(mode, faults=FaultInjector(spec, 23))
        monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
        ref = self._run("coalesced")
        assert set(got) == set(ref)
        for key in ref:
            assert np.array_equal(got[key], ref[key]), key


# ---------------------------------------------------------------------------
# Incoming payload checks
# ---------------------------------------------------------------------------
def _two_rank_sim():
    grid = (2, 1, 1)
    forest = SetupBlockForest.create(AABB((0, 0, 0), (2.0, 1.0, 1.0)), grid, (4, 4, 4))
    balance_forest(forest, 2, strategy="morton")
    return DistributedSimulation(
        forest, TRT.from_tau(0.7),
        boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=lid_driven_cavity(grid), comm_mode="coalesced",
    )


def _bad_payloads(n):
    return {
        "float32": np.zeros(n, dtype=np.float32),
        "strided": np.zeros(2 * n)[::2],
        "short": np.zeros(n - 1),
        "list": [0.0] * n,
    }


@pytest.fixture(params=["compiled", "numpy"])
def backend(request, monkeypatch):
    if request.param == "compiled":
        if not HAS_CC:
            pytest.skip("no C compiler ('cc') on PATH")
    else:
        monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
    return request.param


class TestPayloadChecks:
    @pytest.mark.parametrize("bad", ["float32", "strided", "short", "list"])
    @pytest.mark.parametrize("steps", [0, 2])
    def test_malformed_bulk_payload_rejected(self, backend, bad, steps):
        """Rank 0 gets a bad bulk message from rank 1 — in the first
        exchanges (every cell copied) and after them, with the compiled
        copy or the NumPy one; either path rejects it before reading."""
        sim = _two_rank_sim()
        try:
            sim.run(steps)
            ex0, ex1 = sim.exchange.executors
            assert (ex0._copy is not None) == (backend == "compiled")
            ex0.start()
            ex0.comm.progress()
            (msg,) = ex0.plan.recvs
            payload = _bad_payloads(msg.elements)[bad]
            ex1.comm.send(payload, dest=0, tag=BULK_TAG)
            with pytest.raises(CommunicationError, match="ghost message from rank 1"):
                ex0.finish()
        finally:
            sim.close()

    @needs_cc
    @pytest.mark.parametrize(
        "grid",
        [
            lambda g: g.astype(np.float32),
            lambda g: np.asfortranarray(g),
            lambda g: np.zeros(g.shape[:-1] + (g.shape[-1] + 1,)),
        ],
        ids=["float32", "fortran", "shape"],
    )
    def test_grid_the_copy_cannot_address_rejected(self, grid):
        """A block grid replaced by one the tables do not describe is
        rejected before its address reaches C."""
        sim = _two_rank_sim()
        try:
            sim.run(2)
            field = next(iter(sim.fields.values()))
            field.src = grid(field.src)
            with pytest.raises(CommunicationError, match="ghost copy needs"):
                sim.exchange.exchange()
        finally:
            sim.close()

    @needs_cc
    @pytest.mark.parametrize(
        "bad",
        [
            lambda m: m.astype(np.float64),
            lambda m: m[:-1],
            lambda m: m + 1,
            lambda m: list(m),
        ],
        ids=["float64", "short", "not-0-1", "list"],
    )
    def test_malformed_mask_message_rejected(self, bad):
        sim = _two_rank_sim()
        try:
            ex0, ex1 = sim.exchange.executors
            ex0.start()
            ex0.comm.progress()
            (msg,) = ex0.plan.recvs
            ex1.comm.send(np.zeros(msg.elements), dest=0, tag=BULK_TAG)
            ex1.comm.send(bad(ex1._copy.mask_messages[0]), dest=0, tag=MASK_TAG)
            with pytest.raises(CommunicationError, match="mask message from rank 1"):
                ex0.finish()
        finally:
            sim.close()


# ---------------------------------------------------------------------------
# The invariant: nothing writes OUTSIDE cells
# ---------------------------------------------------------------------------
def _outside_values(sim):
    """Per block, the values of both grids at interior OUTSIDE cells."""
    out = {}
    for key, field in sim.fields.items():
        outside = sim.flags[key].data == fl.OUTSIDE
        outside[0], outside[-1] = False, False
        outside[:, 0], outside[:, -1] = False, False
        outside[:, :, 0], outside[:, :, -1] = False, False
        out[key] = (field.src[:, outside].copy(), field.dst[:, outside].copy())
    return out


class TestOutsideCellsAreNeverWritten:
    """The compiled copy leaves out cells their sender flags OUTSIDE on
    the ground that nothing writes them after set-up; a kernel or a
    boundary condition that starts writing them fails here."""

    @pytest.mark.parametrize(
        "strategy, backend",
        [
            ("conditional", "numpy"),
            ("indexlist", "numpy"),
            ("interval", "numpy"),
            ("interval", "compiled"),
        ],
    )
    def test_sparse_strategies_and_boundaries(self, strategy, backend, monkeypatch):
        if backend == "compiled" and not HAS_CC:
            pytest.skip("no C compiler ('cc') on PATH")
        if backend == "numpy":
            monkeypatch.setattr(compiled, "_build", FORCED_FAILURE)
        sim = _coronary_sim(sparse_kernel=strategy)
        try:
            sparse = [
                k for k, rt in sim.runtimes.items()
                if (sim.flags[k].interior == fl.OUTSIDE).any()
            ]
            assert sparse
            kinds = {type(sim.runtimes[k].kernel).__name__ for k in sparse}
            if backend == "compiled":
                assert kinds == {"CompiledIntervalKernel"}
            else:
                assert "Compiled" not in "".join(kinds)
            _randomize(sim, 11)
            before = _outside_values(sim)
            sim.run(6)
            after = _outside_values(sim)
            for key in sparse:
                for grid in (0, 1):
                    assert np.array_equal(after[key][grid], before[key][grid]), key
        finally:
            sim.close()

    @pytest.mark.parametrize("backend", ["compiled", "numpy"])
    def test_boundary_handling_alone(self, backend, monkeypatch):
        if backend == "compiled" and not HAS_CC:
            pytest.skip("no C compiler ('cc') on PATH")
        sim = _coronary_sim()
        try:
            rng = np.random.default_rng(5)
            with monkeypatch.context() as m:
                if backend == "numpy":
                    m.setattr(compiled, "_build", FORCED_FAILURE)
                handlers = {
                    k: BoundaryHandling(D3Q19, sim.flags[k], list(CONDITIONS))
                    for k in sim.fields
                }
            assert sum(h.link_count for h in handlers.values()) > 0
            for key, handler in handlers.items():
                outside = sim.flags[key].data == fl.OUTSIDE
                field = rng.uniform(0.03, 0.07, sim.fields[key].src.shape)
                before = field[:, outside].copy()
                for _ in range(3):
                    handler.apply(field)
                assert np.array_equal(field[:, outside], before), key
        finally:
            sim.close()
