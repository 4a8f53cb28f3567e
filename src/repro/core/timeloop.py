"""Time loop with registered sweeps.

waLBerla structures a simulation as a sequence of *sweeps* executed per
time step (communication, boundary handling, LBM kernel, ...).  The
:class:`TimeLoop` here is that scheduler.  Its
:class:`~repro.perf.timing.TimingTree` (waLBerla's timing pool) is the
one ledger of the time step: each sweep runs inside a top-level scope
of its name, so sub-scopes opened *inside* a sweep — ghost-layer
pack/unpack, per-tier kernel timers — nest under the sweep's node, and
the harness can report the fraction of time spent in communication
exactly like the dotted lines of Figure 6.  :meth:`TimeLoop.timings`
reads the per-sweep totals from the tree's top-level nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..perf.timing import TimingTree

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..exec.engine import ExecutionEngine

__all__ = ["Sweep", "TimeLoop"]


@dataclass
class Sweep:
    """A named per-time-step operation (``fn`` may be replaced, e.g. by
    a wrapper that traces it)."""

    name: str
    fn: Callable[[], None]


@dataclass
class TimeLoop:
    """Executes registered sweeps in order, once per time step.

    ``tree`` is the timing tree all sweeps record into; it is created
    per loop by default but can be shared (e.g. one tree per rank in an
    SPMD run, later reduced with :func:`~repro.perf.timing.reduce_trees`).
    """

    sweeps: List[Sweep] = field(default_factory=list)
    steps_run: int = 0
    tree: TimingTree = field(default_factory=TimingTree)
    checkpoint_every: int = 0
    checkpoint_fn: Optional[Callable[[int], None]] = None
    #: The intra-rank sweep engine driving this loop's parallel sweeps
    #: (attached by the simulation drivers), owned here so that
    #: :meth:`close` tears its pool down.
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
        checkpointing overhead is observable next to the sweeps.
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
            with tree.scoped(sweep.name):
                sweep.fn()
        self.steps_run += 1
        if (
            self.checkpoint_fn is not None
            and self.checkpoint_every > 0
            and self.steps_run % self.checkpoint_every == 0
        ):
            with tree.scoped("checkpoint"):
                self.checkpoint_fn(self.steps_run)

    def run(self, steps: int) -> None:
        """Run ``steps`` time steps."""
        for _ in range(int(steps)):
            self.step()

    def timings(self) -> Dict[str, float]:
        """Accumulated seconds per sweep name: the totals of the tree's
        top-level nodes (0 for a sweep that has not run)."""
        top = self.tree.root.children
        return {
            s.name: top[s.name].stats.total if s.name in top else 0.0
            for s in self.sweeps
        }

    def timing_report(self) -> str:
        """The hierarchical rendering of the tree, including nested
        sub-scopes and counters."""
        return self.tree.render(title=f"time loop ({self.steps_run} steps)")

    def close(self) -> None:
        """Shut down the attached sweep engine's worker pool (if any)."""
        if self.engine is not None:
            self.engine.shutdown()

    def reset_timings(self) -> None:
        """Zero the step count and the timing tree."""
        self.steps_run = 0
        self.tree.reset()
