"""Tests for the virtual MPI, ghost-layer exchange, and the distributed
simulation (including exact equivalence with single-block runs)."""

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest, view_for_rank
from repro.comm import (
    BULK_TAG,
    BufferSystem,
    Comm,
    COMM_MODES,
    DistributedSimulation,
    VirtualMPI,
    build_rank_plan,
    ghost_slices,
    send_slices,
)
from repro.core import PdfField, Simulation
from repro.errors import CommunicationError, ConfigurationError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import D3Q19, NoSlip, PressureABB, TRT, UBB
from repro.scenarios import lid_driven_cavity

from helpers import exchange_on_ranks, per_face

#: The ghost exchange under both message groupings: one message per
#: (block, side), and one coalesced message per peer rank.
EXECUTORS = (per_face, BufferSystem)


def _two_blocks(cells, ranks):
    """A 2x1x1 forest on ``ranks`` ranks and its block ids (-x first)."""
    forest = SetupBlockForest.create(AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), cells)
    balance_forest(forest, ranks, strategy="round_robin")
    return forest, [blk.id for blk in forest.blocks]


class TestVirtualMPI:
    def test_point_to_point(self):
        world = VirtualMPI(2, timeout=10)

        def program(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=7)

        results = world.run(program)
        assert results[1] == {"x": 42}

    def test_tag_matching(self):
        world = VirtualMPI(2, timeout=10)

        def program(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert world.run(program)[1] == ("a", "b")

    def test_bcast(self):
        world = VirtualMPI(4, timeout=10)

        def program(comm):
            data = [1, 2, 3] if comm.rank == 2 else None
            return comm.bcast(data, root=2)

        assert world.run(program) == [[1, 2, 3]] * 4

    def test_gather_scatter(self):
        world = VirtualMPI(3, timeout=10)

        def program(comm):
            gathered = comm.gather(comm.rank**2, root=0)
            items = [10, 20, 30] if comm.rank == 0 else None
            mine = comm.scatter(items, root=0)
            return (gathered, mine)

        results = world.run(program)
        assert results[0][0] == [0, 1, 4]
        assert results[1][0] is None
        assert [r[1] for r in results] == [10, 20, 30]

    def test_allreduce_and_allgather(self):
        world = VirtualMPI(4, timeout=10)

        def program(comm):
            s = comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)
            g = comm.allgather(comm.rank)
            return (s, g)

        for s, g in world.run(program):
            assert s == 10
            assert g == [0, 1, 2, 3]

    def test_alltoall(self):
        world = VirtualMPI(3, timeout=10)

        def program(comm):
            return comm.alltoall([f"{comm.rank}->{d}" for d in range(3)])

        results = world.run(program)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_numpy_payloads(self):
        world = VirtualMPI(2, timeout=10)

        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(10.0), dest=1)
                return None
            return comm.recv(source=0)

        out = world.run(program)
        assert np.allclose(out[1], np.arange(10.0))

    def test_rank_error_propagates(self):
        world = VirtualMPI(2, timeout=5)

        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(CommunicationError, match="rank 1"):
            world.run(program)

    def test_bad_dest_rejected(self):
        world = VirtualMPI(2, timeout=5)

        def program(comm):
            comm.send(1, dest=5)

        with pytest.raises(CommunicationError):
            world.run(program)

    def test_reusable(self):
        world = VirtualMPI(2, timeout=10)

        def program(comm):
            return comm.allreduce(1, op=lambda a, b: a + b)

        assert world.run(program) == [2, 2]
        assert world.run(program) == [2, 2]


class TestGhostSlices:
    def test_face(self):
        assert send_slices((1, 0, 0)) == (slice(-2, -1), slice(1, -1), slice(1, -1))
        assert ghost_slices((1, 0, 0)) == (
            slice(-1, None), slice(1, -1), slice(1, -1),
        )

    def test_corner_region_is_single_cell(self):
        arr = np.zeros((6, 6, 6))
        assert arr[send_slices((1, 1, 1))].shape == (1, 1, 1)
        assert arr[ghost_slices((-1, -1, -1))].shape == (1, 1, 1)

    def test_exchange_moves_face_data(self):
        forest, (a, b) = _two_blocks((4, 4, 4), ranks=2)
        for executor in EXECUTORS:
            fa = PdfField(D3Q19, (4, 4, 4))
            fb = PdfField(D3Q19, (4, 4, 4))
            fa.src[...] = 1.0
            fb.src[...] = 2.0
            stats = exchange_on_ranks(forest, {a: fa, b: fb}, executor)
            # a's +x ghost face now holds b's first interior layer.
            assert np.all(fa.src[:, -1, 1:-1, 1:-1] == 2.0)
            assert np.all(fb.src[:, 0, 1:-1, 1:-1] == 1.0)
            assert sum(s.remote_messages for s in stats) == 2
            assert sum(s.remote_bytes for s in stats) == 2 * 19 * 4 * 4 * 8

    def test_exchange_follows_swap(self):
        forest, (a, b) = _two_blocks((3, 3, 3), ranks=1)  # a local copy
        for executor in EXECUTORS:
            fa = PdfField(D3Q19, (3, 3, 3))
            fb = PdfField(D3Q19, (3, 3, 3))
            fb.dst[...] = 9.0
            fa.swap()
            fb.swap()  # now fb.src is the 9.0 grid
            exchange_on_ranks(forest, {a: fa, b: fb}, executor)
            assert np.all(fa.src[:, -1, 1:-1, 1:-1] == 9.0)

    def test_unknown_key_rejected(self):
        for ranks in (1, 2):
            forest, (a, _b) = _two_blocks((4, 4, 4), ranks=ranks)
            plan = build_rank_plan(view_for_rank(forest, 0), 0)
            # One rank: a's plan copies from b, which has no field.  Two
            # ranks: rank 0's plan sends from and receives into a, which
            # has none either.
            fields = {a: PdfField(D3Q19, (4, 4, 4))} if ranks == 1 else {}
            for executor in EXECUTORS:
                with pytest.raises(CommunicationError):
                    executor(plan, fields, comm=None)


class TestPayloadChecks:
    """Either grouping rejects a payload that is not a C-contiguous
    float64 array of the message's size, before writing it."""

    @staticmethod
    def _payloads(shape):
        good = np.full(shape, 1.1)
        return {
            "float32": good.astype(np.float32),
            "strided": np.full(shape[:-1] + (2 * shape[-1],), 1.1)[..., ::2],
            "list": good.tolist(),
            "wrong-shape": np.full(shape[:-1] + (shape[-1] + 1,), 1.1),
        }

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kind", ["float32", "strided", "list", "wrong-shape"])
    def test_malformed_payload_rejected(self, executor, kind):
        forest, (a, _b) = _two_blocks((4, 4, 4), ranks=2)
        world = VirtualMPI(2, timeout=10)
        plan = build_rank_plan(view_for_rank(forest, 0), 0)
        ((_peer, tag, _block, ghost_sl),) = plan.recvs
        field = PdfField(D3Q19, (4, 4, 4))
        ex = executor(plan, {a: field}, Comm(0, world))
        (msg,) = ex.plan.recvs
        assert msg.tag == (BULK_TAG if executor is BufferSystem else tag)
        ex.start()
        Comm(1, world).send(
            self._payloads((msg.elements,))[kind], dest=0, tag=msg.tag
        )
        with pytest.raises(
            CommunicationError, match="from rank 1: expected a C-contiguous float64"
        ):
            ex.finish()
        assert np.all(field.src[ghost_sl] == 0.0)


class TestDistributedSimulation:
    def test_matches_single_block_bitwise(self):
        col = TRT.from_tau(0.8)
        bcs = [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]
        ref = Simulation(cells=(8, 8, 8), collision=col)
        ref.flags.fill(fl.FLUID)
        d = ref.flags.data
        d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, :, 0] = fl.NO_SLIP
        d[:, :, -1] = fl.VELOCITY_BC
        for bc in bcs:
            ref.add_boundary(bc)
        ref.finalize()
        ref.run(40)

        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 2, 2)), (2, 2, 2), (4, 4, 4)
        )
        balance_forest(forest, 4, strategy="round_robin")
        dsim = DistributedSimulation(
            forest, col, flag_setter=lid_driven_cavity((2, 2, 2)), boundaries=bcs
        )
        dsim.run(40)
        assert np.nanmax(np.abs(ref.density() - dsim.gather_density())) == 0.0
        assert np.nanmax(np.abs(ref.velocity() - dsim.gather_velocity())) == 0.0

    def test_split_direction_invariance(self):
        # The same domain split 4x1x1 and 1x1x4 must give identical fields.
        col = TRT.from_tau(0.9)

        def build(grid, cells):
            forest = SetupBlockForest.create(
                AABB((0, 0, 0), (1, 1, 1)), grid, cells
            )
            balance_forest(forest, 2, strategy="round_robin")
            sim = DistributedSimulation(
                forest,
                col,
                flag_setter=lid_driven_cavity(grid),
                boundaries=[NoSlip(), UBB(velocity=(0.04, 0.0, 0.0))],
            )
            sim.run(25)
            return sim.gather_density(), sim.gather_velocity()

        rho_a, u_a = build((4, 1, 1), (2, 8, 8))
        rho_b, u_b = build((1, 1, 4), (8, 8, 2))
        assert np.nanmax(np.abs(rho_a - rho_b)) < 1e-14
        assert np.nanmax(np.abs(u_a - u_b)) < 1e-14

    @pytest.mark.parametrize("mode", COMM_MODES)
    def test_periodic_multiblock_conserves_momentum(self, mode):
        # Fully periodic domain with an initial velocity: mass and momentum
        # must be exactly conserved across block boundaries.
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (6, 6, 6)
        )
        balance_forest(forest, 2, strategy="round_robin")
        sim = DistributedSimulation(
            forest,
            TRT.from_tau(0.7),
            boundaries=[],
            periodic=(True, True, True),
            comm_mode=mode,
        )
        # Give every block a uniform momentum.
        for field in sim.fields.values():
            field.set_equilibrium(rho=1.0, u=(0.03, 0.01, -0.02))
        m0 = sim.total_mass()
        sim.run(30)
        assert np.isclose(sim.total_mass(), m0, rtol=1e-12)
        u = sim.gather_velocity()
        assert np.allclose(u[..., 0], 0.03, atol=1e-12)
        assert np.allclose(u[..., 2], -0.02, atol=1e-12)

    def test_coronary_pipeline_runs(self):
        # Full pipeline: geometry -> partition -> balance -> voxelize ->
        # sparse kernels + colored BCs -> time steps.
        tree = CoronaryTree.generate(generations=3, seed=4)
        geom = CapsuleTreeGeometry(tree)
        forest = SetupBlockForest.create(
            geom.aabb(), (3, 3, 3), (10, 10, 10), geometry=geom
        )
        balance_forest(forest, 4, strategy="metis")
        sim = DistributedSimulation(
            forest,
            TRT.from_tau(0.8),
            geometry=geom,
            boundaries=[
                NoSlip(),
                UBB(velocity=(0.0, 0.0, 0.01)),
                PressureABB(rho_w=1.0),
            ],
        )
        assert any(n == "interval" for n in sim.kernel_names.values())
        sim.run(10)
        assert sim.max_velocity() < 0.3  # stable
        assert sim.total_fluid_cells() > 0
        assert sim.mflups() > 0
        assert 0 <= sim.comm_fraction() <= 1

    def test_unbalanced_forest_rejected(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        with pytest.raises(ConfigurationError):
            DistributedSimulation(forest, TRT.from_tau(0.8))

    def test_comm_stats_accumulate(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="round_robin")
        sim = DistributedSimulation(forest, TRT.from_tau(0.8))
        sim.run(3)
        # 2 blocks, 1 face pair, both directions, 3 steps.
        assert sim.comm_stats.remote_messages == 6
        assert sim.comm_stats.local_messages == 0

    def test_local_vs_remote_accounting(self):
        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 1, strategy="round_robin")  # same rank
        sim = DistributedSimulation(forest, TRT.from_tau(0.8))
        sim.run(1)
        assert sim.comm_stats.remote_messages == 0
        assert sim.comm_stats.local_messages == 2


# ---------------------------------------------------------------------------
# Resilience layer: Request.test(), mailbox deadlines, ReliableComm,
# and fault-schedule invariance (see docs/resilience.md).
# ---------------------------------------------------------------------------

import threading  # noqa: E402
import time  # noqa: E402

from repro.comm import FaultInjector, FaultSpec, ReliableComm, run_spmd_simulation  # noqa: E402
from repro.comm.vmpi import _Mailbox  # noqa: E402
from repro.errors import (  # noqa: E402
    RecvTimeoutError,
    RetryExhaustedError,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the image
    HAVE_HYPOTHESIS = False


class TestRequestTest:
    """Regression for ``Request.test()``: it must be a *non-blocking*
    probe with mpi4py semantics, not a blocking wait in disguise."""

    def test_returns_false_before_message_arrives(self):
        world = VirtualMPI(2, timeout=5.0)

        def program(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=7)
                done, val = req.test()       # nothing sent yet
                before = (done, val)
                comm.send("go", dest=1, tag=0)
                while True:                  # poll until delivery
                    done, val = req.test()
                    if done:
                        return before, (done, val)
                    time.sleep(0.001)
            else:
                comm.recv(source=0, tag=0)   # wait for the gate
                comm.send("payload", dest=0, tag=7)
                return None

        results = world.run(program)
        before, after = results[0]
        assert before == (False, None)
        assert after == (True, "payload")

    def test_does_not_consume_other_messages(self):
        world = VirtualMPI(2, timeout=5.0)

        def program(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
            else:
                req = comm.irecv(source=0, tag=2)   # different tag
                deadline = time.monotonic() + 2.0
                while not comm.iprobe(source=0, tag=1):
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                done, val = req.test()
                assert (done, val) == (False, None)  # tag 2 never sent
                return comm.recv(source=0, tag=1)    # tag-1 msg intact

        assert world.run(program)[1] == "a"

    def test_completed_request_is_idempotent(self):
        world = VirtualMPI(2, timeout=5.0)

        def program(comm):
            if comm.rank == 0:
                comm.send(42, dest=1, tag=0)
            else:
                req = comm.irecv(source=0, tag=0)
                assert req.wait() == 42
                assert req.test() == (True, 42)
                assert req.test() == (True, 42)

        world.run(program)


class TestMailboxDeadline:
    """``_Mailbox.get`` honors a monotonic deadline: non-matching
    arrivals wake the waiter but must not restart the timeout clock."""

    def test_timeout_is_a_deadline_not_per_wakeup(self):
        box = _Mailbox()
        stop = threading.Event()

        def noisy_poster():
            # A non-matching message every 20 ms: each put notifies the
            # waiter.  With a naive per-wakeup wait these resets would
            # let get() linger ~forever.
            while not stop.is_set():
                box.put(9, 9, "noise")
                time.sleep(0.02)

        t = threading.Thread(target=noisy_poster, daemon=True)
        t.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(RecvTimeoutError):
                box.get(source=1, tag=1, timeout=0.25)
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            t.join()
        assert elapsed < 0.5, f"deadline overshot: {elapsed:.3f}s"

    def test_timeout_none_waits_until_delivery(self):
        box = _Mailbox()
        threading.Timer(0.05, lambda: box.put(1, 1, "late")).start()
        assert box.get(source=1, tag=1, timeout=None) == (1, 1, "late")

    def test_matching_message_returns_before_deadline(self):
        box = _Mailbox()
        box.put(1, 1, "x")
        t0 = time.monotonic()
        assert box.get(source=1, tag=1, timeout=5.0)[2] == "x"
        assert time.monotonic() - t0 < 1.0


class TestReliableComm:
    """Unit tests of the sequence-numbered protocol layer."""

    @staticmethod
    def _pingpong(rounds):
        def program(comm):
            rc = ReliableComm(comm, retry_timeout=0.02, max_retries=20)
            peer = 1 - comm.rank
            got = []
            for step in range(rounds):
                rc.begin_step(step)
                rc.send((comm.rank, step), dest=peer, tag=3)
                got.append(rc.recv(source=peer, tag=3))
                comm.barrier()
            return got, rc.counters

        return program

    def test_survives_total_duplication(self):
        inj = FaultInjector(FaultSpec(p_duplicate=1.0), seed=0)
        world = VirtualMPI(2, timeout=5.0, faults=inj)
        results = world.run(self._pingpong(4))
        for rank, (got, counters) in enumerate(results):
            assert got == [(1 - rank, s) for s in range(4)]
            assert counters["comm.duplicates_dropped"] > 0

    def test_recovers_every_message_from_ledger_under_total_drop(self):
        inj = FaultInjector(FaultSpec(p_drop=1.0), seed=0)
        world = VirtualMPI(2, timeout=5.0, faults=inj)
        results = world.run(self._pingpong(3))
        for rank, (got, counters) in enumerate(results):
            assert got == [(1 - rank, s) for s in range(3)]
            assert counters["comm.retransmits"] == 3
            assert counters["comm.timeouts"] >= 3

    def test_retry_exhausted_when_sender_is_silent(self):
        world = VirtualMPI(2, timeout=5.0)

        def program(comm):
            if comm.rank == 0:
                rc = ReliableComm(comm, retry_timeout=0.005, max_retries=2)
                rc.recv(source=1, tag=0)   # rank 1 never sends
            # rank 1 sends nothing and returns immediately

        with pytest.raises(RetryExhaustedError):
            world.run(program)

    def test_sequence_gap_detected(self):
        world = VirtualMPI(2, timeout=5.0)

        def program(comm):
            if comm.rank == 0:
                # A bare (non-protocol) envelope claiming seq 5.
                comm.send((5, 0, "bogus"), dest=1, tag=0)
            else:
                rc = ReliableComm(comm, retry_timeout=0.05, max_retries=2)
                with pytest.raises(CommunicationError, match="sequence gap"):
                    rc.recv(source=0, tag=0)
                return "checked"

        assert world.run(program)[1] == "checked"

    def test_rejects_wildcard_receive(self):
        world = VirtualMPI(2, timeout=5.0)

        def program(comm):
            rc = ReliableComm(comm)
            if comm.rank == 0:
                with pytest.raises(CommunicationError):
                    rc.recv(source=Comm.ANY_SOURCE, tag=0)
            return True

        assert world.run(program) == [True, True]

    def test_validates_parameters(self):
        world = VirtualMPI(1)

        def program(comm):
            with pytest.raises(CommunicationError):
                ReliableComm(comm, retry_timeout=0.0)
            with pytest.raises(CommunicationError):
                ReliableComm(comm, max_retries=0)
            with pytest.raises(CommunicationError):
                ReliableComm(comm, backoff=0.5)
            return True

        assert world.run(program) == [True]


def _reorder_setter(grid):
    gx, gy, gz = grid

    def setter(blk, ff):
        d = ff.data
        i, j, k = blk.grid_index
        if i == 0:
            d[0] = fl.NO_SLIP
        if i == gx - 1:
            d[-1] = fl.NO_SLIP
        d[:, 0] = d[:, -1] = fl.NO_SLIP
        d[:, :, 0] = fl.NO_SLIP
        if k == gz - 1:
            d[:, :, -1] = fl.VELOCITY_BC

    return setter


def _reorder_cavity(ranks, faults=None):
    grid = (ranks, 1, 1)
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, (4, 4, 4)
    )
    balance_forest(forest, ranks, strategy="morton")
    return run_spmd_simulation(
        VirtualMPI(ranks, faults=faults),
        forest,
        TRT.from_tau(0.7),
        8,
        conditions=[NoSlip(), UBB(velocity=(0.04, 0.0, 0.0))],
        flag_setter=_reorder_setter(grid),
        retry_timeout=0.02,
        max_retries=25,
    )


_REORDER_BASELINES = {}


def _reorder_baseline(ranks):
    if ranks not in _REORDER_BASELINES:
        _REORDER_BASELINES[ranks] = _reorder_cavity(ranks)
    return _REORDER_BASELINES[ranks]


if HAVE_HYPOTHESIS:

    class TestReorderInvariance:
        """Property: ghost exchange is invariant under *arbitrary*
        message reordering/duplication schedules, for any rank count."""

        @settings(max_examples=10, deadline=None)
        @given(
            ranks=st.integers(min_value=2, max_value=8),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
        )
        def test_delay_heavy_schedule_is_bit_identical(self, ranks, seed):
            baseline = _reorder_baseline(ranks)
            spec = FaultSpec(
                p_delay=0.5, p_duplicate=0.3, p_drop=0.05, max_hold=4
            )
            result = _reorder_cavity(
                ranks, faults=FaultInjector(spec, seed)
            )
            assert set(result) == set(baseline)
            for k in baseline:
                assert np.array_equal(result[k], baseline[k])

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_delay_heavy_schedule_is_bit_identical():
        pass
