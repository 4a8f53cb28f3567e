"""Time loop with registered sweeps.

waLBerla structures a simulation as a sequence of *sweeps* executed per
time step (communication, boundary handling, LBM kernel, ...).  The
:class:`TimeLoop` here is that scheduler.  Every sweep records into a
hierarchical :class:`~repro.perf.timing.TimingTree` (waLBerla's timing
pool), so sub-scopes opened *inside* a sweep — ghost-layer pack/unpack,
per-tier kernel timers — nest under the sweep's node, and the harness
can report the fraction of time spent in communication exactly like the
dotted lines of Figure 6.  The flat :meth:`TimeLoop.timings` mapping is
kept as a view for callers that only need per-sweep totals.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..perf.timing import TimingTree

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..exec.engine import ExecutionEngine

__all__ = ["Sweep", "TimeLoop"]


@dataclass
class Sweep:
    """A named per-time-step operation."""

    name: str
    fn: Callable[[], None]
    seconds: float = 0.0
    calls: int = 0

    def run(self, tree: Optional[TimingTree] = None) -> None:
        """Execute once; account wall time (and the tree scope if given)."""
        t0 = time.perf_counter()
        if tree is None:
            self.fn()
        else:
            with tree.scoped(self.name):
                self.fn()
        self.seconds += time.perf_counter() - t0
        self.calls += 1


@dataclass
class TimeLoop:
    """Executes registered sweeps in order, once per time step.

    ``tree`` is the timing tree all sweeps record into; it is created
    per loop by default but can be shared (e.g. one tree per virtual
    rank in an SPMD run, later reduced with
    :func:`~repro.perf.timing.reduce_trees`).  ``None`` runs the sweeps
    untimed.
    """

    sweeps: List[Sweep] = field(default_factory=list)
    steps_run: int = 0
    tree: Optional[TimingTree] = field(default_factory=TimingTree)
    checkpoint_every: int = 0
    checkpoint_fn: Optional[Callable[[int], None]] = None
    #: The intra-rank sweep engine driving this loop's parallel sweeps
    #: (attached by the simulation drivers; ``None`` = plain serial
    #: execution).  Owning it here lets :meth:`timing_report` append the
    #: worker-utilization summary and :meth:`close` tear the pool down.
    engine: Optional["ExecutionEngine"] = None

    def add(self, name: str, fn: Callable[[], None]) -> "TimeLoop":
        """Append a sweep; returns self for chaining."""
        self.sweeps.append(Sweep(name, fn))
        return self

    def configure_checkpoint(
        self, fn: Callable[[int], None], every: int
    ) -> "TimeLoop":
        """Invoke ``fn(steps_run)`` after every ``every``-th completed step.

        The callback typically writes an atomic checkpoint (see
        :func:`repro.io.checkpoint.save_checkpoint`); its cost is timed
        under a top-level ``checkpoint`` scope of the timing tree, so
        checkpointing overhead is observable next to the sweeps (it runs
        untimed in a loop without a tree).
        """
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        if not callable(fn):
            raise TypeError("checkpoint_fn must be callable")
        self.checkpoint_fn = fn
        self.checkpoint_every = int(every)
        return self

    def step(self) -> None:
        """Run one time step (plus the periodic checkpoint hook, if due)."""
        tree = self.tree
        for sweep in self.sweeps:
            sweep.run(tree)
        self.steps_run += 1
        if (
            self.checkpoint_fn is not None
            and self.checkpoint_every > 0
            and self.steps_run % self.checkpoint_every == 0
        ):
            with tree.scoped("checkpoint") if tree is not None else nullcontext():
                self.checkpoint_fn(self.steps_run)

    def run(self, steps: int) -> None:
        """Run ``steps`` time steps."""
        for _ in range(int(steps)):
            self.step()

    def timings(self) -> Dict[str, float]:
        """Accumulated seconds per sweep name (flat view of the tree)."""
        return {s.name: s.seconds for s in self.sweeps}

    def fraction(self, name: str) -> float:
        """Fraction of total sweep time spent in sweep ``name`` (0 if unrun)."""
        total = sum(s.seconds for s in self.sweeps)
        if total == 0.0:
            return 0.0
        return sum(s.seconds for s in self.sweeps if s.name == name) / total

    def report(self) -> str:
        """Human-readable per-sweep timing table (waLBerla's timing pool)."""
        total = sum(s.seconds for s in self.sweeps)
        lines = [f"time loop: {self.steps_run} steps, {total:.4f} s total"]
        for s in self.sweeps:
            share = s.seconds / total if total > 0 else 0.0
            per_call = s.seconds / s.calls if s.calls else 0.0
            lines.append(
                f"  {s.name:<16s} {s.seconds:10.4f} s  {100 * share:5.1f}%"
                f"  ({s.calls} calls, {1e6 * per_call:.1f} us/call)"
            )
        return "\n".join(lines)

    def timing_report(self) -> str:
        """The hierarchical rendering, including nested sub-scopes (and
        the sweep engine's worker-utilization line when one is attached);
        the flat :meth:`report` for a loop without a timing tree."""
        if self.tree is None:
            out = self.report()
        else:
            out = self.tree.render(title=f"time loop ({self.steps_run} steps)")
        if self.engine is not None:
            out += "\n" + self.engine.summary()
        return out

    def close(self) -> None:
        """Shut down the attached sweep engine's worker pool (if any)."""
        if self.engine is not None:
            self.engine.shutdown()

    def reset_timings(self) -> None:
        """Zero all sweep accumulators and the timing tree (if any)."""
        for s in self.sweeps:
            s.seconds = 0.0
            s.calls = 0
        self.steps_run = 0
        if self.tree is not None:
            self.tree.reset()
