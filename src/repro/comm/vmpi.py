"""Virtual MPI: an in-process, thread-based SPMD communicator.

The paper's setup algorithms are MPI programs (scatter blocks, evaluate,
gather; broadcast the surface mesh; broadcast the block-structure file).
Real MPI is unavailable here, so this module provides a faithful small
subset of the mpi4py API executed on one thread per rank within a single
process.  It is a *correctness* substrate: the distributed algorithms in
:mod:`repro.blocks` and :mod:`repro.comm` run unmodified SPMD logic on
it at small rank counts; machine-scale behaviour is modeled separately
in :mod:`repro.perf`.

Resilience
----------
The transport can be made deliberately unreliable by attaching a
:class:`~repro.comm.faults.FaultInjector` (``VirtualMPI(size,
faults=...)``), which delays, reorders, duplicates, or drops messages
and stalls or crashes ranks on a deterministic seed-driven schedule.
:class:`ReliableComm` is the matching protocol layer: every message is
wrapped in a ``(sequence, step, payload)`` envelope, receives are
deduplicated by sequence number and retried with exponential backoff
against a shared retransmission ledger, so ghost-layer exchange survives
any non-crash schedule bit-identically.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    CommunicationError,
    RankCrashedError,
    RecvTimeoutError,
    RetryExhaustedError,
)

__all__ = ["VirtualMPI", "Comm", "ReliableComm", "Request"]

_ANY = object()


class _AbortError(CommunicationError):
    """The run was aborted by another rank's failure (secondary error)."""


class _Mailbox:
    """Per-rank incoming message store with (source, tag) matching."""

    def __init__(self):
        self._cond = threading.Condition()
        self._messages: List[Tuple[int, int, Any]] = []
        self._aborted = False

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._messages.append((source, tag, payload))
            self._cond.notify_all()

    def abort(self) -> None:
        """Wake and fail all current and future waiters (run teardown)."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    def peek(self, source: Any, tag: Any) -> bool:
        with self._cond:
            for (s, t, _) in self._messages:
                if (source is _ANY or s == source) and (tag is _ANY or t == tag):
                    return True
            return False

    def wait_any(
        self, channels: List[Tuple[Any, Any]], timeout: float
    ) -> int:
        """Block until a message matching any ``(source, tag)`` channel is
        waiting; return the index of the matched channel *without
        consuming* the message.

        Arrival order is the mailbox append order, so the first channel
        whose message has actually arrived wins — the primitive behind
        head-of-line-blocking-free receive draining.  Raises
        :class:`~repro.errors.RecvTimeoutError` on deadline expiry.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )

        def match():
            for (s, t, _) in self._messages:
                for k, (cs, ct) in enumerate(channels):
                    if (cs is _ANY or s == cs) and (ct is _ANY or t == ct):
                        return k
            return None

        with self._cond:
            while True:
                if self._aborted:
                    raise _AbortError("virtual MPI run aborted")
                idx = match()
                if idx is not None:
                    return idx
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    raise RecvTimeoutError(
                        f"wait_any timed out after {timeout}s on "
                        f"{len(channels)} channels"
                    )

    def get(self, source: Any, tag: Any, timeout: float) -> Tuple[int, int, Any]:
        """Pop the first matching message, waiting up to ``timeout``.

        The timeout is a *monotonic deadline*, not a per-wakeup wait:
        spurious or non-matching wakeups (another message arriving,
        ``notify_all`` from an unrelated put) re-wait only for the
        remaining time, so the call never outlives ``now + timeout``.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )

        def match():
            for i, (s, t, _) in enumerate(self._messages):
                if (source is _ANY or s == source) and (tag is _ANY or t == tag):
                    return i
            return None

        with self._cond:
            while True:
                if self._aborted:
                    raise _AbortError("virtual MPI run aborted")
                idx = match()
                if idx is not None:
                    return self._messages.pop(idx)
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    raise RecvTimeoutError(
                        f"recv timed out after {timeout}s waiting for "
                        f"source={source} tag={tag}"
                    )


class Request:
    """Handle for a non-blocking operation (mpi4py ``Request`` style)."""

    def __init__(
        self,
        resolve: Callable[[], Any],
        probe: Optional[Callable[[], bool]] = None,
    ):
        self._resolve = resolve
        self._probe = probe
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._resolve()
            self._done = True
        return self._value

    def test(self) -> Tuple[bool, Any]:
        """Non-blocking completion probe (mpi4py semantics).

        Returns ``(True, value)`` if the operation is complete — for a
        pending receive this first checks, without blocking, whether a
        matching message is already waiting (via the mailbox ``peek``)
        and completes the receive only then.  Returns ``(False, None)``
        when no matching message has arrived yet; the operation stays
        pending and no message is consumed.
        """
        if self._done:
            return True, self._value
        if self._probe is not None and not self._probe():
            return False, None
        return True, self.wait()


class _SendRequest(Request):
    """The request every isend of one endpoint returns.

    One progress call delivers every pending send, so completing any
    send is just :meth:`Comm.progress`; sharing one handle keeps posting
    a send allocation-free.
    """

    def wait(self) -> None:
        self._resolve()

    def test(self) -> Tuple[bool, Any]:
        self._resolve()
        return True, None


class Comm:
    """The communicator handed to each rank's program.

    Supports ``send/recv/sendrecv`` (+ non-blocking ``isend/irecv`` and
    ``iprobe``), ``barrier``, ``bcast``, ``gather``, ``allgather``,
    ``scatter``, ``reduce``, ``allreduce``, and ``alltoall`` with
    Python-object payloads (mpi4py lower-case style).
    """

    ANY_SOURCE = _ANY
    ANY_TAG = _ANY

    def __init__(self, rank: int, parent: "VirtualMPI"):
        self.rank = rank
        self._parent = parent
        # FIFO of posted-but-undelivered isend payloads (progress-engine
        # style: delivery happens at the next progress point).  Each
        # entry is (obj, dest, tag, trace_token) — the token is None
        # unless a trace recorder is attached.
        self._pending_sends: List[Tuple[Any, int, int, Optional[Any]]] = []
        self._isend_count = 0
        self._send_request = _SendRequest(self.progress)

    # -- trace hooks --------------------------------------------------------
    def _trace(self, kind: str, **fields: Any) -> None:
        """Record one transport event if a trace recorder is attached.

        ``source``/``tag`` wildcards are normalized to the string
        ``"ANY"`` so events stay printable and comparable.
        """
        rec = self._parent.trace
        if rec is None:
            return
        for key in ("source", "tag"):
            if fields.get(key) is _ANY:
                fields[key] = "ANY"
        rec.record(kind, self.rank, **fields)

    @property
    def size(self) -> int:
        return self._parent.size

    # -- point to point -----------------------------------------------------
    def _deliver(
        self, obj: Any, dest: int, tag: int, token: Optional[Any] = None
    ) -> None:
        """Hand one message to the destination mailbox (fault-aware).

        The trace event is recorded *here*, before fault routing: a
        delayed, duplicated, or dropped copy downstream is the fault
        injector's business, but the payload fingerprint taken at this
        point closes the isend use-after-send window (TRC004) exactly —
        the buffer may be reused once delivery has begun.
        """
        rec = self._parent.trace
        if rec is not None:
            self._trace(
                "deliver",
                dest=dest,
                tag=tag,
                token=token,
                fingerprint=(
                    rec.payload_fingerprint(obj) if token is not None else None
                ),
            )
        faults = self._parent.faults
        if faults is None:
            self._parent._mailboxes[dest].put(self.rank, tag, obj)
            return
        for d, (src, t, payload) in faults.on_send(self.rank, dest, tag, obj):
            self._parent._mailboxes[d].put(src, t, payload)

    def progress(self) -> None:
        """Drive the progress engine: deliver all pending isends (FIFO).

        Real MPI implementations make asynchronous progress when the
        process enters the library; this transport does the same —
        ``recv``/``barrier``/``probe_any``/``iprobe`` and
        ``Request.wait`` on a send request all progress pending sends
        first, so a rank that posts isends and then blocks can never
        deadlock its peers.
        """
        while self._pending_sends:
            obj, dest, tag, token = self._pending_sends.pop(0)
            self._deliver(obj, dest, tag, token)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._parent._check_rank(dest)
        self.progress()  # preserve FIFO channel order across isend/send mixes
        self._deliver(obj, dest, tag)

    def recv(
        self, source: Any = _ANY, tag: Any = _ANY,
        timeout: Optional[float] = None,
    ) -> Any:
        """Blocking receive; ``timeout`` overrides the world default."""
        self.progress()
        self._trace("recv_start", source=source, tag=tag)
        s, t, payload = self._parent._mailboxes[self.rank].get(
            source, tag,
            self._parent.timeout if timeout is None else timeout,
        )
        self._trace("recv_done", source=s, tag=t)
        return payload

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Genuinely non-blocking send: the message is queued on this
        rank's progress engine and delivered at the next progress point
        (``Request.wait``/``test``, a ``recv``, a ``barrier``, or a
        probe).  The returned request completes once the message has
        been handed to the destination mailbox — i.e. once the payload
        buffer may be reused, mirroring MPI_Isend completion semantics.
        Every isend of this endpoint returns the same request, since
        completing it means progressing the engine.
        """
        self._parent._check_rank(dest)
        token: Optional[Any] = None
        rec = self._parent.trace
        if rec is not None:
            self._isend_count += 1
            token = (self.rank, self._isend_count)
            self._trace(
                "isend_post",
                dest=dest,
                tag=tag,
                token=token,
                fingerprint=rec.payload_fingerprint(obj),
            )
        self._pending_sends.append((obj, dest, tag, token))
        return self._send_request

    def irecv(self, source: Any = _ANY, tag: Any = _ANY) -> Request:
        """Non-blocking receive: the matching message is consumed when
        :meth:`Request.wait` succeeds or :meth:`Request.test` reports
        completion."""
        return Request(
            lambda: self.recv(source, tag),
            probe=lambda: self.iprobe(source, tag),
        )

    def iprobe(self, source: Any = _ANY, tag: Any = _ANY) -> bool:
        """True if a matching message is already waiting."""
        self.progress()
        return self._parent._mailboxes[self.rank].peek(source, tag)

    def probe_any(
        self,
        channels: Sequence[Tuple[Any, Any]],
        timeout: Optional[float] = None,
    ) -> int:
        """Block until a message matching any ``(source, tag)`` channel
        has arrived; return the index of that channel (message not
        consumed).

        This is the arrival-order primitive of the ghost exchange: the
        caller drains whichever expected message is ready first instead
        of blocking on a fixed plan order (head-of-line blocking under
        delay faults).  Raises :class:`~repro.errors.RecvTimeoutError`
        when nothing arrives within ``timeout`` (world default if
        ``None``).
        """
        self.progress()
        return self._parent._mailboxes[self.rank].wait_any(
            channels,
            self._parent.timeout if timeout is None else timeout,
        )

    def sendrecv(self, obj: Any, dest: int, source: Any = _ANY, tag: int = 0) -> Any:
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # -- fault-schedule hooks ----------------------------------------------
    def fault_tick(self, step: int) -> None:
        """Notify the fault injector (if any) of a time-step boundary.

        May sleep (stall injection) or raise
        :class:`~repro.errors.RankCrashedError` on the rank's scheduled
        crash step; a no-op on a fault-free world.
        """
        faults = self._parent.faults
        if faults is not None:
            faults.on_step(self.rank, step)

    def _flush_faults(self) -> None:
        faults = self._parent.faults
        if faults is not None:
            for d, (src, t, payload) in faults.flush(self.rank):
                self._parent._mailboxes[d].put(src, t, payload)

    # -- collectives ----------------------------------------------------------
    def barrier(self) -> None:
        self.progress()
        self._flush_faults()
        self._trace("barrier_start")
        self._parent._barrier.wait(timeout=self._parent.timeout)
        self._trace("barrier_done")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._parent._check_rank(root)
        slot = self._parent._collective_slot("bcast")
        if self.rank == root:
            slot["value"] = obj
        self.barrier()
        value = slot["value"]
        self.barrier()
        return value

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        self._parent._check_rank(root)
        slot = self._parent._collective_slot("gather")
        slot.setdefault("values", [None] * self.size)
        slot["values"][self.rank] = obj
        self.barrier()
        values = slot["values"] if self.rank == root else None
        self.barrier()
        if self.rank == root:
            self._parent._collective_reset("gather")
        self.barrier()
        return values

    def allgather(self, obj: Any) -> List[Any]:
        slot = self._parent._collective_slot("allgather")
        slot.setdefault("values", [None] * self.size)
        slot["values"][self.rank] = obj
        self.barrier()
        values = list(slot["values"])
        self.barrier()
        if self.rank == 0:
            self._parent._collective_reset("allgather")
        self.barrier()
        return values

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        self._parent._check_rank(root)
        slot = self._parent._collective_slot("scatter")
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise CommunicationError(
                    "scatter needs one item per rank at the root"
                )
            slot["values"] = list(objs)
        self.barrier()
        value = slot["values"][self.rank]
        self.barrier()
        return value

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        values = self.gather(obj, root)
        if self.rank != root:
            return None
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        values = self.allgather(obj)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    def alltoall(self, objs: List[Any]) -> List[Any]:
        if len(objs) != self.size:
            raise CommunicationError("alltoall needs one item per rank")
        matrix = self.allgather(objs)
        return [matrix[src][self.rank] for src in range(self.size)]


class ReliableComm:
    """Sequence-numbered, deduplicating, retrying wrapper around a point-
    to-point channel — the idempotent message layer that makes ghost
    exchange survive delay, reordering, duplication, and drop faults.

    Protocol
    --------
    Every :meth:`send` wraps the payload in ``(seq, step, payload)``
    where ``seq`` increments per ``(source, dest, tag)`` channel, and
    records the envelope in a retransmission ledger shared through the
    parent world (the in-process analog of a sender-side retransmit
    buffer).  :meth:`recv` accepts exactly the next expected sequence
    number: stale duplicates are discarded, a timeout first consults the
    ledger (a retransmission), then backs off exponentially; after
    ``max_retries`` timeouts it raises
    :class:`~repro.errors.RetryExhaustedError`.

    Recovery activity is counted — ``comm.timeouts``,
    ``comm.retransmits``, ``comm.duplicates_dropped``,
    ``comm.seq_messages`` — into :attr:`counters` and, when ``tree`` is
    given, into the rank's :class:`~repro.perf.timing.TimingTree`
    counters so recovery cost shows up next to the sweep timings.

    On a fault-free world the per-message overhead is one small tuple,
    two dict updates, and a sequence compare — bounded at <5 % of a
    d3q19 ghost-layer exchange by ``benchmarks/bench_chaos_overhead.py``.
    """

    def __init__(
        self,
        comm: Comm,
        retry_timeout: float = 0.05,
        max_retries: int = 10,
        backoff: float = 2.0,
        max_timeout: float = 2.0,
        tree=None,
    ):
        if retry_timeout <= 0 or max_retries < 1 or backoff < 1.0:
            raise CommunicationError(
                "retry_timeout must be > 0, max_retries >= 1, backoff >= 1"
            )
        self.comm = comm
        self.retry_timeout = float(retry_timeout)
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.max_timeout = float(max_timeout)
        self.tree = tree
        self.counters: Dict[str, int] = {}
        self._step = 0
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._recv_seq: Dict[Tuple[int, int], int] = {}

    # -- bookkeeping --------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if self.tree is not None:
            self.tree.add_counter(name, value)

    def begin_step(self, step: int) -> None:
        """Tag subsequent envelopes with ``step`` (for diagnostics) and
        run the fault injector's step hook (stall/crash schedule)."""
        self._step = int(step)
        self.comm.fault_tick(step)

    # -- reliable point-to-point -------------------------------------------
    def _envelope(self, obj: Any, dest: int, tag: int):
        """Wrap ``obj`` in the next sequence-numbered envelope for the
        ``(dest, tag)`` channel and record it in the retransmission
        ledger (shared through the parent world)."""
        key = (dest, tag)
        seq = self._send_seq.get(key, 0) + 1
        self._send_seq[key] = seq
        envelope = (seq, self._step, obj)
        # Single dict assignment of an immutable tuple: atomic under the
        # GIL, and each (src, dst, tag) key has exactly one writer (this
        # rank), so the ledger needs no lock on the send hot path.
        self.comm._parent._ledger[(self.comm.rank, dest, tag)] = envelope
        self._count("comm.seq_messages")
        return envelope

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send with a sequence-numbered envelope + retransmission ledger."""
        self.comm.send(self._envelope(obj, dest, tag), dest, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking reliable send: the envelope is sequenced and
        ledger-recorded *now* (so a receiver that times out before
        delivery can already recover it), while mailbox delivery rides
        the wrapped communicator's progress engine."""
        return self.comm.isend(self._envelope(obj, dest, tag), dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next in-sequence message from ``(source, tag)``.

        Deduplicates stale deliveries, recovers dropped messages from
        the retransmission ledger, and retries with exponential backoff
        on timeouts.
        """
        if source is _ANY or tag is _ANY:
            raise CommunicationError(
                "ReliableComm.recv needs a concrete source and tag"
            )
        chan = (source, tag)
        expected = self._recv_seq.get(chan, 0) + 1
        timeout = self.retry_timeout
        attempts = 0
        parent = self.comm._parent
        while True:
            try:
                seq, _step, payload = self.comm.recv(source, tag, timeout=timeout)
            except RecvTimeoutError:
                attempts += 1
                self._count("comm.timeouts")
                envelope = parent._ledger.get((source, self.comm.rank, tag))
                if envelope is not None and envelope[0] == expected:
                    self._count("comm.retransmits")
                    payload = envelope[2]
                    break
                if attempts > self.max_retries:
                    raise RetryExhaustedError(
                        f"rank {self.comm.rank}: no message from source="
                        f"{source} tag={tag} (seq {expected}) after "
                        f"{attempts} attempts"
                    )
                timeout = min(timeout * self.backoff, self.max_timeout)
                continue
            if seq < expected:          # duplicate or stale delayed copy
                self._count("comm.duplicates_dropped")
                continue
            if seq > expected:          # cannot happen in lockstep exchange
                raise CommunicationError(
                    f"rank {self.comm.rank}: sequence gap on channel "
                    f"{chan}: got {seq}, expected {expected}"
                )
            break
        self._recv_seq[chan] = expected
        return payload

    # -- passthrough --------------------------------------------------------
    def barrier(self) -> None:
        self.comm.barrier()

    def __getattr__(self, name: str) -> Any:
        # Collectives and metadata fall through to the wrapped Comm.
        return getattr(self.comm, name)


class VirtualMPI:
    """Run SPMD programs on virtual ranks (one thread each).

    Example::

        world = VirtualMPI(4)

        def program(comm):
            return comm.allreduce(comm.rank, op=lambda a, b: a + b)

        results = world.run(program)   # [6, 6, 6, 6]

    ``faults`` attaches a :class:`~repro.comm.faults.FaultInjector`; the
    injector is reset at the start of every :meth:`run`, so the fault
    schedule of each program is a pure function of its seed.
    """

    def __init__(
        self, size: int, timeout: float = 60.0, faults=None, trace=None
    ):
        if size < 1:
            raise CommunicationError("need at least one rank")
        self.size = size
        self.timeout = timeout
        self.faults = faults
        #: Optional :class:`repro.analysis.trace.TraceRecorder`; when
        #: set, every post/delivery/receive/barrier event is recorded
        #: for the dynamic deadlock/race verifier.  ``None`` (the
        #: default) keeps the hot path hook-free.
        self.trace = trace
        self._mailboxes = [_Mailbox() for _ in range(size)]
        self._barrier = threading.Barrier(size)
        self._collectives: Dict[str, Dict] = {}
        self._coll_lock = threading.Lock()
        # Retransmission ledger: last envelope per (src, dst, tag)
        # channel.  One writer per key + GIL-atomic dict ops == no lock.
        self._ledger: Dict[Tuple[int, int, int], Tuple[int, int, Any]] = {}

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicationError(f"rank {rank} out of range [0, {self.size})")

    def _collective_slot(self, name: str) -> Dict:
        with self._coll_lock:
            return self._collectives.setdefault(name, {})

    def _collective_reset(self, name: str) -> None:
        with self._coll_lock:
            self._collectives.pop(name, None)

    def _abort(self) -> None:
        """Unblock every rank after a failure: break the barrier and
        fail all mailbox waits."""
        self._barrier.abort()
        for mb in self._mailboxes:
            mb.abort()

    def run(self, program: Callable[[Comm], Any]) -> List[Any]:
        """Execute ``program(comm)`` on every rank; returns per-rank results.

        Any rank raising aborts the run (other ranks are unblocked via
        broken barriers and aborted mailboxes) and re-raises in the
        caller's thread.  A :class:`~repro.errors.RankCrashedError`
        (fault-injected crash) or :class:`~repro.errors.RetryExhaustedError`
        (reliable-protocol give-up) is re-raised as-is so chaos harnesses
        can catch the typed outcome and restart from a checkpoint; other
        primary errors are wrapped in
        :class:`~repro.errors.CommunicationError`.
        """
        results: List[Any] = [None] * self.size
        errors: List[Optional[BaseException]] = [None] * self.size
        if self.faults is not None:
            self.faults.reset()

        def worker(rank: int):
            try:
                results[rank] = program(Comm(rank, self))
                if self.trace is not None:
                    self.trace.record("finish", rank)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                if self.trace is not None:
                    self.trace.record(
                        "error", rank, detail=type(exc).__name__
                    )
                self._abort()

        threads = [
            threading.Thread(target=worker, args=(r,), daemon=True)
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=self.timeout * 2)
        try:
            # Crashes first (typed, restartable), then genuine failures;
            # _AbortError / BrokenBarrierError are secondary casualties
            # of someone else's failure and never mask the primary one.
            for exc in errors:
                if isinstance(exc, (RankCrashedError, RetryExhaustedError)):
                    raise exc
            for r, exc in enumerate(errors):
                if exc is None or isinstance(
                    exc, (threading.BrokenBarrierError, _AbortError)
                ):
                    continue
                raise CommunicationError(f"rank {r} failed: {exc!r}") from exc
            if any(t.is_alive() for t in threads):
                raise CommunicationError("virtual MPI program did not terminate")
        finally:
            # Fresh state for the next program.
            self._barrier = threading.Barrier(self.size)
            self._collectives = {}
            self._mailboxes = [_Mailbox() for _ in range(self.size)]
            self._ledger = {}
        return results
