"""Bulk-coalesced ghost exchange: plan layout, one-message-per-rank-pair
counting, bit-identity across every ``comm_mode`` (dense and sparse,
single- and multi-threaded, direct-copy and SPMD), steady-state
allocation freedom, and the communication/computation overlap split."""

import tracemalloc

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest, view_for_rank
from repro.comm import (
    BULK_TAG,
    COMM_MODES,
    BufferSystem,
    Comm,
    DistributedSimulation,
    FaultInjector,
    FaultSpec,
    VirtualMPI,
    build_rank_plan,
    coalesce_plan,
    run_spmd_simulation,
)
from repro.comm import distributed, spmd
from repro.errors import ConfigurationError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import NoSlip, PressureABB, TRT, UBB
from repro.lbm.kernels import default_dense_kernel
from repro.lbm.kernels.common import box_cells, interior_partition
from repro.perf.timing import TimingTree, reduce_trees
from repro.scenarios import lid_driven_cavity


def _dense_forest(grid=(2, 2, 2), cells=(5, 5, 5), ranks=4):
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, cells
    )
    balance_forest(forest, ranks, strategy="morton")
    return forest


def _dense_sim(mode, workers=1, grid=(2, 2, 2), cells=(5, 5, 5), ranks=4):
    return DistributedSimulation(
        _dense_forest(grid, cells, ranks),
        TRT.from_tau(0.65),
        boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=lid_driven_cavity(grid),
        comm_mode=mode,
        workers=workers,
    )


def _sparse_sim(mode):
    tree = CoronaryTree.generate(generations=3, seed=4)
    geom = CapsuleTreeGeometry(tree)
    forest = SetupBlockForest.create(
        geom.aabb(), (3, 3, 3), (8, 8, 8), geometry=geom
    )
    balance_forest(forest, 4, strategy="metis")
    return DistributedSimulation(
        forest,
        TRT.from_tau(0.8),
        geometry=geom,
        boundaries=[
            NoSlip(),
            UBB(velocity=(0.0, 0.0, 0.01)),
            PressureABB(rho_w=1.0),
        ],
        comm_mode=mode,
    )


def _periodic_sim(mode, workers=1):
    """Fully periodic 2x2x1 grid on 3 ranks, one shearing velocity per
    block: wraps cross ranks, stay on a rank, and (along z) reach the
    block itself."""
    forest = _dense_forest(grid=(2, 2, 1), ranks=3)
    sim = DistributedSimulation(
        forest,
        TRT.from_tau(0.7),
        boundaries=[],
        periodic=(True, True, True),
        comm_mode=mode,
        workers=workers,
    )
    for key, field in sim.fields.items():
        u = 0.01 * (1 + key.root_index)
        field.set_equilibrium(rho=1.0, u=(u, -0.5 * u, 0.2 * u))
    return sim


def _fields_identical(a, b):
    assert set(a.fields) == set(b.fields)
    for key in a.fields:
        assert np.array_equal(
            a.fields[key].src, b.fields[key].src
        ), f"block {key} diverged"


class TestCoalescedPlan:
    def test_one_message_per_peer_and_tag_sorted_segments(self):
        forest = _dense_forest()
        view = view_for_rank(forest, 0)
        sim = _dense_sim("per-face")  # fields for sizing only
        fields = {
            bid: sim.fields[bid]
            for bid in sim.fields
            if sim.block_rank[bid] == 0
        }
        plan = coalesce_plan(build_rank_plan(view, 0), fields)
        peers = [m.peer for m in plan.sends]
        assert peers == sorted(set(peers)), "one message per peer, sorted"
        assert plan.messages_per_step == len(peers)
        for msg in plan.sends + plan.recvs:
            tags = [seg.tag for seg in msg.segments]
            assert tags == sorted(tags)
            # Segments tile the buffer exactly: no gaps, no overlap.
            pos = 0
            for seg in msg.segments:
                assert seg.start == pos
                assert seg.stop - seg.start == int(np.prod(seg.shape))
                pos = seg.stop
            assert pos == msg.elements
            assert msg.nbytes == msg.elements * 8

    def test_per_face_grouping_one_message_per_block_side(self):
        forest = _dense_forest()
        view = view_for_rank(forest, 0)
        sim = _dense_sim("per-face")
        fields = {
            bid: sim.fields[bid]
            for bid in sim.fields
            if sim.block_rank[bid] == 0
        }
        rank_plan = build_rank_plan(view, 0)
        plan = coalesce_plan(rank_plan, fields, "per-face")
        assert plan.messages_per_step == len(rank_plan.sends)
        keys = [(m.peer, m.tag) for m in plan.sends]
        assert keys == sorted((e[0], e[1]) for e in rank_plan.sends)
        for msg in plan.sends + plan.recvs:
            (seg,) = msg.segments
            assert seg.tag == msg.tag and seg.start == 0
            assert seg.stop == msg.elements
        coalesced = coalesce_plan(rank_plan, fields)
        assert {m.tag for m in coalesced.sends} == {BULK_TAG}
        assert sum(m.elements for m in coalesced.sends) == sum(
            m.elements for m in plan.sends
        )

    def test_send_recv_layouts_mirror_across_ranks(self):
        forest = _dense_forest()
        sim = _dense_sim("per-face")
        plans = {}
        for rank in range(4):
            view = view_for_rank(forest, rank)
            fields = {
                bid: sim.fields[bid]
                for bid in sim.fields
                if sim.block_rank[bid] == rank
            }
            plans[rank] = coalesce_plan(build_rank_plan(view, rank), fields)
        for rank, plan in plans.items():
            for msg in plan.sends:
                twin = next(
                    m for m in plans[msg.peer].recvs if m.peer == rank
                )
                assert twin.elements == msg.elements
                assert [s.tag for s in twin.segments] == [
                    s.tag for s in msg.segments
                ]

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            _dense_sim("bulk")

    def test_bad_mode_rejected_before_blocks_are_built(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("block built before comm_mode was checked")

        monkeypatch.setattr(distributed, "build_block_runtime", no_build)
        with pytest.raises(ConfigurationError, match="comm_mode"):
            _dense_sim("bulk")
        with pytest.raises(ConfigurationError, match="comm_mode"):
            spmd.spmd_rank_program(
                Comm(0, VirtualMPI(1)), _dense_forest(ranks=1),
                TRT.from_tau(0.65), 1, [NoSlip()], comm_mode="bulk",
            )


class TestInteriorPartition:
    @pytest.mark.parametrize(
        "cells", [(4, 4, 4), (3, 5, 7), (8, 3, 3), (5, 6, 4)]
    )
    def test_disjoint_cover(self, cells):
        inner, frontier = interior_partition(cells)
        boxes = ([inner] if inner else []) + frontier
        mask = np.zeros(cells, dtype=int)
        for lo, hi in boxes:
            mask[tuple(slice(a, b) for a, b in zip(lo, hi))] += 1
        assert (mask == 1).all()
        assert sum(box_cells(b) for b in boxes) == int(np.prod(cells))

    def test_degenerate_axis_is_all_frontier(self):
        inner, frontier = interior_partition((2, 8, 8))
        assert inner is None
        assert frontier == [((0, 0, 0), (2, 8, 8))]


class TestBitIdentityAcrossModes:
    STEPS = 12

    @pytest.fixture(scope="class")
    def dense_ref(self):
        return _dense_sim("per-face").run(self.STEPS)

    @pytest.fixture(scope="class")
    def sparse_ref(self):
        return _sparse_sim("per-face").run(self.STEPS)

    @pytest.mark.parametrize("mode", ["coalesced", "overlap"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dense_multiblock(self, mode, workers, dense_ref):
        sim = _dense_sim(mode, workers=workers).run(self.STEPS)
        _fields_identical(sim, dense_ref)

    @pytest.mark.parametrize("mode", ["coalesced", "overlap"])
    def test_sparse_coronary(self, mode, sparse_ref):
        sim = _sparse_sim(mode).run(self.STEPS)
        _fields_identical(sim, sparse_ref)

    @pytest.mark.parametrize("mode", ["coalesced", "overlap"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_periodic(self, mode, workers):
        ref = _periodic_sim("per-face").run(self.STEPS)
        sim = _periodic_sim(mode, workers=workers).run(self.STEPS)
        _fields_identical(sim, ref)

    def test_exactly_one_message_per_rank_pair_per_step(self):
        sim = _dense_sim("coalesced")
        pairs = sum(len(view.neighbor_ranks()) for view in sim.views)
        steps = 7
        sim.run(steps)
        counted = sim.timeloop.tree.counters["comm.remote_messages"]
        assert counted == pairs * steps
        # 2x2x2 grid on 4 ranks: every ordered rank pair with shared
        # faces/edges sends exactly one message per step, never one per
        # (block, face) — per-face sends one per remote entry of the
        # executor's own (direction-filtered) plan.
        per_face = _dense_sim("per-face")
        per_face.run(1)
        sends = sum(len(ex.plan.sends) for ex in per_face.exchange.executors)
        assert per_face.timeloop.tree.counters["comm.remote_messages"] == sends
        assert per_face.comm_stats.remote_messages == sends > pairs

    def test_overlap_scopes_and_gauge(self):
        sim = _dense_sim("overlap")
        sim.run(6)
        t = sim.timeloop.timings()
        for sweep in (
            "communication",
            "inner kernel",
            "communication finish",
            "frontier kernel",
        ):
            assert sweep in t
        eff = sim.timeloop.tree.counters["comm.overlap_efficiency"]
        assert 0.0 <= eff <= 1.0
        assert sim.mflups() > 0.0
        assert 0.0 <= sim.comm_fraction() <= 1.0


class TestSteadyStateAllocations:
    def test_comm_path_allocation_free_after_warmup(self):
        """After warm-up, one exchange must not allocate any field-sized
        temporary (the persistent-buffer contract), per-face or
        coalesced."""
        for mode in ("per-face", "coalesced"):
            sim = _dense_sim(mode)
            sim.run(3)  # warm-up: scratch caches and buffers filled
            exchange = sim.exchange
            # Warm up the call path measured below too: outside the time
            # loop it records under the tree's root, and the first call
            # creates those timing nodes.
            exchange.exchange()
            # A full ghost layer of the 5^3 block is 19 * 5 * 5 floats;
            # set the bar well below one face payload.
            limit = 19 * 5 * 5 * 8 // 2
            tracemalloc.start()
            try:
                for _ in range(3):
                    exchange.exchange()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < limit, f"{mode} comm path allocated {peak} bytes"

    def test_vectorized_kernel_allocation_free_after_warmup(self):
        sim = _dense_sim("overlap")
        sim.run(3)  # warm-up allocates per-shape scratch
        tracemalloc.start()
        try:
            sim.run(2)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The full step includes timing bookkeeping; stay below one full
        # PDF field so any full-field temporary is caught.
        limit = 19 * 7 * 7 * 7 * 8
        assert peak < limit, f"step allocated {peak} bytes"


class TestSpmdBufferSystem:
    GRID = (2, 2, 1)
    CELLS = (4, 4, 4)
    RANKS = 4
    STEPS = 10

    def _forest(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), tuple(float(g) for g in self.GRID)),
            self.GRID,
            self.CELLS,
        )
        balance_forest(forest, self.RANKS, strategy="morton")
        return forest

    def _run(self, mode, faults=None, trees=None, resilient=True):
        return run_spmd_simulation(
            VirtualMPI(self.RANKS, faults=faults),
            self._forest(),
            TRT.from_tau(0.65),
            self.STEPS,
            conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
            flag_setter=lid_driven_cavity(self.GRID),
            timing_trees=trees,
            resilient=resilient,
            retry_timeout=0.02,
            max_retries=25,
            comm_mode=mode,
        )

    @pytest.fixture(scope="class")
    def baseline(self):
        return self._run("per-face")

    @pytest.mark.parametrize("mode", ["coalesced", "overlap"])
    @pytest.mark.parametrize("resilient", [True, False])
    def test_bit_identical(self, mode, resilient, baseline):
        out = self._run(mode, resilient=resilient)
        assert set(out) == set(baseline)
        for k in baseline:
            assert np.array_equal(out[k], baseline[k])

    def test_multi_peer_arrival_order_under_delay(self, baseline):
        """Four ranks with 2-3 peers each: the bulk drain must consume
        whichever peer's message lands first (probe_any path) and still
        produce the exact baseline bits under reordering delays."""
        spec = FaultSpec(p_delay=0.5, max_hold=3)
        out = self._run("coalesced", faults=FaultInjector(spec, 17))
        for k in baseline:
            assert np.array_equal(out[k], baseline[k])

    def test_one_bulk_message_per_peer_counted(self):
        trees = [TimingTree() for _ in range(self.RANKS)]
        self._run("coalesced", trees=trees)
        forest = self._forest()
        expected = 0
        for rank in range(self.RANKS):
            view = view_for_rank(forest, rank)
            expected += len(view.neighbor_ranks())
        reduced = reduce_trees(trees)
        assert (
            reduced.counters["comm.remote_messages"]
            == expected * self.STEPS
        )

    @pytest.mark.parametrize("driver", ["spmd", "in-process"])
    def test_overlap_gauge_reported(self, driver):
        if driver == "spmd":
            trees = [TimingTree() for _ in range(self.RANKS)]
            self._run("overlap", trees=trees)
            counters = reduce_trees(trees).counters
        else:
            sim = DistributedSimulation(
                self._forest(),
                TRT.from_tau(0.65),
                boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
                flag_setter=lid_driven_cavity(self.GRID),
                comm_mode="overlap",
            ).run(self.STEPS)
            counters = sim.timeloop.tree.counters
        assert 0.0 <= counters["comm.overlap_efficiency"] <= 1.0
        assert counters["comm.remote_bytes"] > 0

    def test_overlap_records_kernel_timers(self):
        """The overlap rank program times its inner and frontier kernel
        calls under the sweeps that dispatch them, like the fused modes."""
        trees = [TimingTree() for _ in range(self.RANKS)]
        self._run("overlap", trees=trees)
        reduced = reduce_trees(trees)
        tier = f"tier:{default_dense_kernel()}"
        for sweep in ("inner kernel", "frontier kernel"):
            assert reduced.node(sweep, tier) is not None, sweep

    def test_bulk_tag_never_collides_with_per_face_tags(self):
        assert BULK_TAG < 0


class TestDriverParity:
    """Both drivers run the same plan and executors, so one forest gives
    the same communication scopes and per-step byte counters."""

    STEPS = 3

    @pytest.mark.parametrize("mode", COMM_MODES)
    def test_same_scopes_and_bytes(self, mode):
        forest = _dense_forest()
        sim = _dense_sim(mode).run(self.STEPS)
        trees = [TimingTree() for _ in range(forest.n_processes)]
        run_spmd_simulation(
            VirtualMPI(forest.n_processes),
            forest,
            TRT.from_tau(0.65),
            self.STEPS,
            conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
            flag_setter=lid_driven_cavity((2, 2, 2)),
            timing_trees=trees,
            comm_mode=mode,
        )
        spmd = reduce_trees(trees)
        sweeps = ["communication"]
        if mode == "overlap":
            sweeps.append("communication finish")
        for sweep in sweeps:
            in_process = list(sim.timeloop.tree.node(sweep).children)
            assert in_process, sweep
            assert in_process == list(spmd.node(sweep).children), sweep
        for counter in ("comm.remote_bytes", "comm.local_bytes"):
            value = sim.timeloop.tree.counters[counter]
            assert value > 0, counter
            assert value / self.STEPS == spmd.counters[counter] / self.STEPS


    @pytest.mark.parametrize("mode", ["coalesced", "overlap"])
    def test_periodic_interiors(self, mode):
        """SPMD ranks take the driver's ``periodic``: a lid-driven
        channel open along x, where the x wrap crosses ranks, ends with
        the in-process driver's interiors bit for bit."""
        grid, periodic = (2, 2, 1), (True, False, False)
        forest = _dense_forest(grid=grid, ranks=3)
        options = dict(
            flag_setter=_x_periodic_channel(grid), periodic=periodic, comm_mode=mode
        )
        conditions = [NoSlip(), UBB(velocity=(0.05, 0.02, 0.0))]
        sim = DistributedSimulation(
            forest, TRT.from_tau(0.65), boundaries=conditions, **options
        ).run(self.STEPS)
        result = run_spmd_simulation(
            VirtualMPI(forest.n_processes), forest, TRT.from_tau(0.65),
            self.STEPS, conditions=conditions, **options,
        )
        assert set(result) == set(sim.fields)
        for key, arr in result.items():
            assert np.array_equal(arr, sim.fields[key].interior_view), key


def _x_periodic_channel(grid):
    """Flag setter: no-slip y walls and floor, a moving +z lid, no wall
    across x, and a small obstacle in the first x column of blocks so
    the flow varies along the periodic axis."""

    def setter(blk, ff):
        d = ff.data
        gx, gy, gz = blk.grid_index
        if gy == 0:
            d[:, 0] = fl.NO_SLIP
        if gy == grid[1] - 1:
            d[:, -1] = fl.NO_SLIP
        if gz == 0:
            d[:, :, 0] = fl.NO_SLIP
        if gz == grid[2] - 1:
            d[:, :, -1] = fl.VELOCITY_BC
        if gx == 0:
            d[2:4, 2:4, 1:3] = fl.NO_SLIP

    return setter


class TestCommModesExported:
    def test_modes_tuple(self):
        assert COMM_MODES == ("per-face", "coalesced", "overlap")
        assert BufferSystem is not None
