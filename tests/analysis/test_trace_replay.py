"""Dynamic verifier on real traffic: the chaos corpus replays clean.

The headline false-positive guarantee of the issue: attaching a
:class:`~repro.analysis.TraceRecorder` to the SPMD cavity under every
sampled fault schedule (delays, reordering, duplicates, drops — the
full :class:`~repro.comm.FaultSpec` corpus) and replaying the trace
through :func:`~repro.analysis.analyze_trace` must report *zero*
deadlocks or races.  Protocol-internal retries (ReliableComm timeouts
later satisfied) and crash-abort casualties look superficially like
hangs; the replay must see through both.

A use-after-send micro-program then proves the race detector (TRC004)
does fire when the isend window is actually violated.

The 3-seed smoke subset is tier-1; the full 20-seed sweep rides the
existing ``chaos`` marker.
"""

import pytest

from repro.analysis import TraceRecorder, analyze_trace
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import (
    FaultInjector,
    FaultSpec,
    VirtualMPI,
    run_spmd_simulation,
)
from repro.errors import CommunicationError
from repro.geometry import AABB
from repro.lbm import NoSlip, TRT, UBB
from repro.scenarios import lid_driven_cavity

RANKS = 2
STEPS = 12
CELLS = (4, 4, 4)
GRID = (2, 1, 1)
RESILIENCE = dict(retry_timeout=0.02, max_retries=25)


def _forest():
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in GRID)), GRID, CELLS
    )
    balance_forest(forest, RANKS, strategy="morton")
    return forest


def _traced_run(faults=None, fingerprints=False, **kw):
    """Run the SPMD cavity with a recorder attached; return findings.

    ``fingerprints=False`` keeps the sweep cheap (blocking analysis
    only); the fingerprinted variants below add race coverage.
    """
    rec = TraceRecorder(fingerprints=fingerprints)
    world = VirtualMPI(RANKS, faults=faults, trace=rec)
    run_spmd_simulation(
        world,
        _forest(),
        TRT.from_tau(0.65),
        kw.pop("steps", STEPS),
        conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=lid_driven_cavity(GRID),
        **RESILIENCE,
        **kw,
    )
    return analyze_trace(rec, path=f"chaos[{faults}]")


class TestChaosCorpusReplaysClean:
    """Zero false positives on fault-absorbing (successful) runs."""

    def test_fault_free_run_is_clean(self):
        assert _traced_run() == []

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_smoke_schedules_are_clean(self, seed):
        spec = FaultSpec.sample(seed)
        assert _traced_run(faults=FaultInjector(spec, seed)) == []

    def test_retransmission_heavy_schedule_is_clean(self):
        """Drops force ReliableComm timeouts + retransmits — the trace
        shape most likely to fake a hang."""
        spec = FaultSpec(p_delay=0.3, p_drop=0.15, p_duplicate=0.3, max_hold=3)
        assert _traced_run(faults=FaultInjector(spec, 5)) == []

    @pytest.mark.parametrize("seed", [None, 7])
    def test_fingerprinted_replay_reports_no_false_races(self, seed):
        """With payload fingerprints on, the buffer-system traffic must
        not read as use-after-send (TRC004) either."""
        faults = None if seed is None else FaultInjector(FaultSpec.sample(seed), seed)
        assert _traced_run(faults=faults, fingerprints=True) == []


@pytest.mark.chaos
class TestChaosCorpusSweep:
    """The full 20-seed corpus of the issue's deliverable."""

    @pytest.mark.parametrize("seed", list(range(20)))
    def test_sampled_schedule_is_clean(self, seed):
        spec = FaultSpec.sample(seed)
        assert _traced_run(faults=FaultInjector(spec, seed)) == []


class TestCrashAbortSuppression:
    """A scheduled crash must not masquerade as a deadlock or race."""

    def test_crashed_run_yields_no_findings(self):
        spec = FaultSpec.sample(11).with_crash(rank=RANKS - 1, step=8)
        rec = TraceRecorder()
        world = VirtualMPI(RANKS, faults=FaultInjector(spec, 11), trace=rec)
        with pytest.raises(CommunicationError):
            run_spmd_simulation(
                world,
                _forest(),
                TRT.from_tau(0.65),
                STEPS,
                conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
                flag_setter=lid_driven_cavity(GRID),
                **RESILIENCE,
            )
        assert analyze_trace(rec) == []


class TestUseAfterSendRace:
    """TRC004: mutating an isend buffer inside the nonblocking window."""

    def _replay(self, program, size=2):
        rec = TraceRecorder()
        world = VirtualMPI(size, timeout=10.0, trace=rec)
        world.run(program)
        return analyze_trace(rec)

    def test_mutation_between_post_and_wait_fires_trc004(self):
        import numpy as np

        def program(comm):
            if comm.rank == 0:
                buf = np.arange(8.0)
                req = comm.isend(buf, 1, 0)
                buf[0] = 42.0  # race: inside the nonblocking window
                req.wait()
            else:
                comm.recv(0, 0)
            comm.barrier()

        findings = self._replay(program)
        rules = [f.rule for f in findings]
        assert rules == ["TRC004"]
        (f,) = findings
        assert "mutated" in f.message
        assert "fingerprint" in f.message

    def test_disciplined_isend_wait_is_clean(self):
        import numpy as np

        def program(comm):
            if comm.rank == 0:
                buf = np.arange(8.0)
                req = comm.isend(buf, 1, 0)
                req.wait()
                buf[0] = 42.0  # after completion: fine
            else:
                comm.recv(0, 0)
            comm.barrier()

        assert self._replay(program) == []

    def test_fingerprints_disabled_drops_trc004_only(self):
        import numpy as np

        rec = TraceRecorder(fingerprints=False)
        world = VirtualMPI(2, timeout=10.0, trace=rec)

        def program(comm):
            if comm.rank == 0:
                buf = np.arange(8.0)
                req = comm.isend(buf, 1, 0)
                buf[0] = 42.0
                req.wait()
            else:
                comm.recv(0, 0)
            comm.barrier()

        world.run(program)
        assert analyze_trace(rec) == []  # blind to races, still no noise
