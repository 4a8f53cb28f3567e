"""Deterministic, seed-driven fault injection for the virtual-MPI transport.

The SC13 paper's machine-scale runs only succeed because the framework
tolerates slow, reordered, and lost progress at the communication layer
and can restart from its block-structure/state files.  Our thread-based
:class:`~repro.comm.vmpi.VirtualMPI` substrate normally assumes a
perfect network; this module makes the network *imperfect on purpose* so
the resilient protocol layer (:class:`~repro.comm.vmpi.ReliableComm`,
the retrying ghost exchange in :mod:`repro.comm.buffersystem`, and the
SPMD checkpoint-restart path of :mod:`repro.comm.spmd`) can be validated
under chaos — the distributed-algorithm testing discipline of
Schornbaum & Rüde (2016).

Determinism
-----------
Every injection decision is drawn from a per-rank ``random.Random``
stream seeded from ``(seed, rank)``, and streams are only consumed from
the owning rank's thread in that rank's program order.  The schedule is
therefore a pure function of ``(seed, spec, per-rank operation
sequence)`` — independent of thread interleaving — so any failing chaos
run can be replayed exactly from its seed.  :meth:`FaultInjector.reset`
(called automatically at the start of every
:meth:`~repro.comm.vmpi.VirtualMPI.run`) rewinds all streams, making
repeated runs on one world identical.

Fault model
-----------
``delay``      a sent message is held back and released after a sampled
               number of subsequent sends by the same rank (at the
               latest at that rank's next barrier) — messages overtake
               each other, i.e. *reordering*.
``drop``       a sent message is never delivered to the destination
               mailbox; only the resilient layer's retransmission
               ledger can recover it.
``duplicate``  a sent message is delivered twice; the sequence-numbered
               receive path must deduplicate.
``stall``      a rank sleeps at a time-step boundary, triggering peers'
               receive timeouts and the retry/backoff path.
``crash``      a rank raises :class:`~repro.errors.RankCrashedError` at
               the start of a scheduled time step; the run aborts and
               must be restarted from the last checkpoint.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Tuple

from ..errors import ConfigurationError, RankCrashedError

__all__ = ["FaultSpec", "FaultInjector"]


@dataclass(frozen=True)
class FaultSpec:
    """Probabilities and schedules for one chaos experiment.

    All probabilities are per sent message (``p_stall`` is per time
    step).  The default spec injects nothing; use :meth:`sample` to draw
    a mixed delay/reorder/duplicate/drop schedule from a seed, and
    :meth:`with_crash` to additionally kill one rank at a given step.
    """

    p_delay: float = 0.0
    p_drop: float = 0.0
    p_duplicate: float = 0.0
    max_hold: int = 3
    p_stall: float = 0.0
    stall_seconds: float = 0.002
    crash_rank: int = -1
    crash_step: int = -1

    def __post_init__(self):
        for name in ("p_delay", "p_drop", "p_duplicate", "p_stall"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        if self.max_hold < 1:
            raise ConfigurationError("max_hold must be >= 1")

    @property
    def has_crash(self) -> bool:
        """Whether this spec schedules a rank crash."""
        return self.crash_rank >= 0 and self.crash_step >= 0

    def with_crash(self, rank: int, step: int) -> "FaultSpec":
        """A copy of this spec that kills ``rank`` at the start of ``step``."""
        return replace(self, crash_rank=int(rank), crash_step=int(step))

    @classmethod
    def sample(cls, seed: int) -> "FaultSpec":
        """Draw a deterministic mixed fault schedule from ``seed``.

        Each component (delay, drop, duplicate, stall) is independently
        switched on with probability 1/2 and given a moderate intensity,
        so a sweep over seeds covers single faults as well as
        combinations; no crash is scheduled (see :meth:`with_crash`).
        Seed 0 always yields at least delays so that every sweep
        exercises reordering.
        """
        rng = random.Random(0x5EED ^ (int(seed) * 0x9E3779B1))
        spec = cls(
            p_delay=rng.uniform(0.1, 0.5) if rng.random() < 0.5 else 0.0,
            p_drop=rng.uniform(0.02, 0.15) if rng.random() < 0.5 else 0.0,
            p_duplicate=rng.uniform(0.05, 0.3) if rng.random() < 0.5 else 0.0,
            max_hold=rng.randint(1, 5),
            p_stall=rng.uniform(0.02, 0.1) if rng.random() < 0.5 else 0.0,
            stall_seconds=0.001,
        )
        if not (spec.p_delay or spec.p_drop or spec.p_duplicate or spec.p_stall):
            spec = replace(spec, p_delay=rng.uniform(0.1, 0.5))
        return spec


@dataclass
class _RankState:
    """Per-rank injector state; touched only by that rank's thread."""

    rng: random.Random
    clock: int = 0                       # sends performed by this rank
    held: List[Tuple[int, Tuple[int, int, Any]]] = field(default_factory=list)


class FaultInjector:
    """Perturbs message delivery and rank progress on a reproducible schedule.

    Attach to a world via ``VirtualMPI(size, faults=FaultInjector(spec,
    seed))``; the transport then routes every ``send`` through
    :meth:`on_send` and notifies :meth:`on_step` /
    :meth:`flush` at time-step and barrier boundaries.  Injected-fault
    totals are kept in :attr:`counters` (``faults.delayed``,
    ``faults.dropped``, ``faults.duplicated``, ``faults.stalls``,
    ``faults.crashes``) so recovery cost is observable next to the
    ``comm.*`` retry counters in the :mod:`repro.perf.timing` tree.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0):
        self.spec = spec
        self.seed = int(seed)
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._states: Dict[int, _RankState] = {}

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Rewind all per-rank streams (start of a new SPMD program)."""
        self._states = {}
        self.counters = {}

    def _state(self, rank: int) -> _RankState:
        st = self._states.get(rank)
        if st is None:
            st = _RankState(random.Random((self.seed * 1_000_003) ^ (rank + 1)))
            self._states[rank] = st
        return st

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- transport hooks ----------------------------------------------------
    def on_send(
        self, src: int, dest: int, tag: int, payload: Any
    ) -> List[Tuple[int, Tuple[int, int, Any]]]:
        """Decide the fate of one message; return deliveries to make now.

        Each returned item is ``(dest, (source, tag, payload))``.  The
        list may be empty (message held back or dropped), contain
        releases of previously held messages whose hold expired, and is
        shuffled so co-released messages arrive in scrambled order.
        """
        st = self._state(src)
        st.clock += 1
        out = [m for due, m in st.held if due <= st.clock]
        st.held = [(due, m) for due, m in st.held if due > st.clock]
        msg = (dest, (src, tag, payload))
        spec = self.spec
        r = st.rng.random()
        if r < spec.p_drop:
            self._count("faults.dropped")
        elif r < spec.p_drop + spec.p_delay:
            due = st.clock + st.rng.randint(1, spec.max_hold)
            st.held.append((due, msg))
            self._count("faults.delayed")
        else:
            out.append(msg)
            if spec.p_duplicate and st.rng.random() < spec.p_duplicate:
                out.append(msg)
                self._count("faults.duplicated")
        if len(out) > 1:
            st.rng.shuffle(out)
        return out

    def flush(self, rank: int) -> List[Tuple[int, Tuple[int, int, Any]]]:
        """Release every held message of ``rank`` (barrier boundary)."""
        st = self._state(rank)
        out = [m for _, m in st.held]
        st.held = []
        if len(out) > 1:
            st.rng.shuffle(out)
        return out

    def on_step(self, rank: int, step: int) -> None:
        """Time-step boundary hook: scheduled crashes and random stalls.

        Raises :class:`~repro.errors.RankCrashedError` when ``(rank,
        step)`` matches the spec's crash schedule; otherwise may sleep
        ``stall_seconds`` with probability ``p_stall``.
        """
        spec = self.spec
        if rank == spec.crash_rank and step == spec.crash_step:
            self._count("faults.crashes")
            raise RankCrashedError(
                f"fault injection: rank {rank} crashed at step {step}"
            )
        if spec.p_stall:
            st = self._state(rank)
            if st.rng.random() < spec.p_stall:
                self._count("faults.stalls")
                time.sleep(spec.stall_seconds)

    # -- reporting ----------------------------------------------------------
    def report(self) -> str:
        """One-line summary of everything injected so far."""
        if not self.counters:
            return "fault injector: no faults injected"
        parts = ", ".join(
            f"{k.split('.', 1)[1]}={v}" for k, v in sorted(self.counters.items())
        )
        return f"fault injector (seed {self.seed}): {parts}"
