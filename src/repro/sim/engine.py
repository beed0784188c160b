"""Core event loop for the discrete-event simulator.

Time is an integer number of **nanoseconds**.  Integer time keeps event
ordering exact (no floating-point drift) which matters for the memory-model
and triggered-operation race tests: the paper's relaxed-synchronization
semantics (Section 3.2) are only meaningful if the simulator resolves
CPU-registration vs. GPU-trigger races deterministically.

The scheduler orders events by ``(time, priority, tiebreak, sequence)``
where ``sequence`` is a monotone insertion counter, so same-time events
fire in FIFO order.  ``priority`` is rarely needed but lets hardware
models (e.g. the NIC command processor) drain their queues before
same-tick user logic.  ``tiebreak`` is 0 in normal operation; the
:mod:`repro.validate` schedule fuzzer seeds it (:meth:`Simulator.
seed_tiebreaks`) to explore alternative legal orderings of same-time,
same-priority events, and invariant monitors observe every pop through
:meth:`Simulator.add_step_probe`.

Hot-path notes (DESIGN.md "Performance model of the simulator itself"):
the engine is the multiplier under every exhibit, fuzz campaign and fault
sweep, so :meth:`Simulator.run` drains the heap with locally bound
references and no per-event ``until`` re-check inside a same-tick run,
:meth:`Simulator.call_later` recycles fire-and-forget callback events
through a freelist instead of allocating a :class:`Timeout` + closure per
call, and the probe path costs one truthiness test when no monitor is
attached.  None of this may reorder events: every optimization preserves
the exact ``(time, priority, tiebreak, sequence)`` pop order (pinned by
golden RunRecord fixtures and the determinism tests in
``tests/test_sim_engine.py``).
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: Default priority for scheduled events.  Lower fires first at equal time.
PRIORITY_NORMAL = 10
#: Priority used by hardware pipelines that must drain before user logic.
PRIORITY_URGENT = 0

#: Upper bound on the callback-event freelist (see Simulator.call_later).
#: Big enough that steady-state churn never allocates; small enough that a
#: burst of in-flight callbacks does not pin memory forever.
_POOL_MAX = 4096

# Module-level bindings: one global load instead of a module-attribute
# lookup per scheduled event.
_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for modeled errors)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted.

    The ``cause`` attribute carries an arbitrary payload provided by the
    interrupter (e.g. the reason a persistent kernel was torn down).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable occurrence.

    Lifecycle: *pending* -> *triggered* (value or exception set, scheduled on
    the event loop) -> *processed* (callbacks have run).  Processes wait on
    events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed",
                 "name", "_sched_seq")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: Insertion counter stamped by the scheduler -- the ground truth
        #: the FIFO-tie-break invariant monitor checks pop order against.
        self._sched_seq = 0

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it may not have fired yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"value of untriggered event {self!r}")
        return self._value

    # ------------------------------------------------------------- triggering
    def succeed(self, value: Any = None, delay: int = 0, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with ``value`` after ``delay`` ns."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._schedule_event(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: int = 0,
             priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters.

        Accepts the same ``priority`` as :meth:`succeed` so failure paths
        keep deterministic same-tick ordering relative to hardware-pipeline
        events.
        """
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._schedule_event(self, delay, priority)
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` ns after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None, priority: int = PRIORITY_NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # The name stays static: rendering f"timeout({delay})" per event
        # was a measurable share of event-churn cost, and the delay is
        # visible in the repr through the dedicated slot anyway.
        super().__init__(sim, name="timeout")
        self.delay = int(delay)
        self._triggered = True
        self._value = value
        sim._schedule_event(self, self.delay, priority)


class _Call:
    """Picklable adapter binding ``fn(*args)`` to an event callback.

    :meth:`Simulator.schedule` used to close over ``callback``/``args``
    with a lambda; checkpointing pickles pending heap entries, and
    lambdas don't pickle.  Instances survive in checkpoints as long as
    ``fn`` itself does (bound methods of model objects do).
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args

    def __call__(self, _ev: "Event") -> None:
        self.fn(*self.args)


class _CallbackEvent(Event):
    """Internal fire-and-forget event used by :meth:`Simulator.call_later`.

    Instances are recycled through the simulator's freelist: after the
    callback runs, the event resets itself and returns to the pool, so
    steady-state callback scheduling allocates nothing.  Never handed out
    to callers -- external code cannot hold a reference, which is what
    makes recycling safe.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim: "Simulator"):
        super().__init__(sim, name="callback")
        self._fn: Optional[Callable[..., None]] = None
        self._args: tuple = ()
        # Permanently "triggered": pooled events are scheduled the moment
        # they leave the pool and external code never holds a reference,
        # so nothing can observe (or re-trigger) the pending state.
        # Setting it once here instead of on every recycle saves two
        # attribute writes per event on the hottest path in the tree.
        self._triggered = True

    def _run_callbacks(self) -> None:
        fn, args = self._fn, self._args
        # Reset and return to the pool *before* invoking: a callback that
        # schedules again may immediately reuse this object, and a raising
        # callback leaves it clean in the pool rather than leaking state.
        self._fn = None
        self._args = ()
        pool = self.sim._pool
        if len(pool) < _POOL_MAX:
            pool.append(self)
        fn(*args)  # type: ignore[misc]


class _Poll(Event):
    """A spin-poll as one self-rescheduling event (:meth:`Simulator.poll`).

    A re-schedule is one :meth:`Simulator._schedule_event` call made where
    the replaced loop created its next :class:`Timeout` (one ``seq`` bump,
    one tiebreak draw), so the pop sequence is unchanged.  With no
    callbacks left (the waiter was interrupted or killed) a pop does
    nothing, like the loop's orphaned Timeout; a probe that raises fails
    the event, so the waiter sees the exception as it did in the loop.
    """

    __slots__ = ("_period", "_probe")

    def __init__(self, sim: "Simulator", period: int, probe: Callable[[], Any]):
        super().__init__(sim, name="poll")
        self._period = period
        self._probe = probe
        sim._schedule_event(self, period)

    def _run_callbacks(self) -> None:
        if not self.callbacks:
            return
        try:
            value = self._probe()
        except Exception as exc:
            self._ok = False
            value = exc
        else:
            if value is None:
                self.sim._schedule_event(self, self._period)
                return
        self._triggered = True
        self._value = value
        Event._run_callbacks(self)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        # Register after validation so a bad input leaves no dangling callbacks.
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value maps event -> value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done == len(self.events)


class AnyOf(_Condition):
    """Fires when at least one child event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class Simulator:
    """The discrete-event loop.

    Usage::

        sim = Simulator()
        sim.spawn(my_generator_fn(sim, ...))
        sim.run()

    ``run`` drains the event heap; ``run(until=t)`` stops the clock at ``t``
    (inclusive of events scheduled exactly at ``t``).
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self._seq: int = 0
        self._running = False
        self._tiebreak_rng: Optional[random.Random] = None
        self._step_probes: list[Callable[[int, int, int, int, Event], None]] = []
        #: Recycled :class:`_CallbackEvent` freelist (see :meth:`call_later`).
        self._pool: list[_CallbackEvent] = []
        #: Events popped and fired so far -- the numerator of the
        #: events/sec metric :mod:`repro.bench` reports.
        self.events_processed: int = 0

    # -------------------------------------------------------------- clock/api
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ns."""
        return Timeout(self, delay, value)

    def poll(self, period: int, probe: Callable[[], Any]) -> Event:
        """Spin-poll: call ``probe()`` every ``period`` ns, starting one
        period from now, until it returns something other than ``None``;
        the returned event fires with that value.

        Pops exactly the events ``while probe() is None: yield
        sim.timeout(period)`` would, in the same order, at one heap pop
        and one probe call per tick (see :class:`_Poll`).
        """
        return _Poll(self, period, probe)

    def spawn(self, generator, name: str = ""):
        """Start a new process from a generator. Returns the Process."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule a plain callback ``delay`` ns from now.

        Returns the underlying event so callers can wait on *when* the
        callback runs; the callback's return value is *not* captured --
        this is a fire-and-forget hook.  When nothing will wait on the
        returned event, prefer :meth:`call_later`: it takes the same
        arguments but recycles its event object through a freelist.
        """
        ev = Timeout(self, delay, priority=priority)
        ev.callbacks.append(_Call(callback, args))
        return ev

    def call_later(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget sibling of :meth:`schedule`; returns ``None``.

        Schedules ``callback(*args)`` to run ``delay`` ns from now with the
        exact same ordering semantics as :meth:`schedule` (one scheduler
        sequence number, same default priority), but the backing event
        comes from -- and returns to -- an internal freelist, so the
        per-call allocations (Timeout + closure + callback list) disappear.
        This is the hot-path API the hardware models use for their internal
        pipeline delays.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        pool = self._pool
        ev = pool.pop() if pool else _CallbackEvent(self)
        ev._fn = callback
        ev._args = args
        # Inlined _schedule_event: one Python frame per event is a
        # measurable share of raw engine throughput (repro.bench
        # "engine").  Must stay semantically identical -- same sequence
        # stamping, same (time, priority, tiebreak, seq) heap key.
        seq = self._seq = self._seq + 1
        ev._sched_seq = seq
        rng = self._tiebreak_rng
        _heappush(self._heap,
                  (self._now + int(delay), priority,
                   rng.getrandbits(16) if rng is not None else 0,
                   seq, ev))

    # -------------------------------------------------------- checkpointing
    def __getstate__(self) -> dict:
        """Pickle support for :mod:`repro.checkpoint`.

        The freelist is dropped (pooled events are inert spares; the
        restored simulator re-grows its own) and ``_running`` is forced
        False -- snapshots are only legal between :meth:`run` calls, and
        the checkpoint layer enforces that before pickling.
        """
        state = self.__dict__.copy()
        state["_pool"] = []
        state["_running"] = False
        return state

    def snapshot(self) -> dict:
        """Capture the engine's scheduler state as a plain dict.

        Returns ``now``, the sequence counter, ``events_processed``, the
        heap entries (shared, not copied -- deep capture is the checkpoint
        layer's job, via pickling the whole object graph) and the
        tie-break RNG state.  :meth:`restore` accepts the result.
        """
        if self._running:
            raise SimulationError("snapshot() while the simulator is running")
        return {
            "version": 1,
            "now": self._now,
            "seq": self._seq,
            "events_processed": self.events_processed,
            "heap": list(self._heap),
            "tiebreak_state": (self._tiebreak_rng.getstate()
                               if self._tiebreak_rng is not None else None),
        }

    def restore(self, state: dict) -> None:
        """Restore scheduler state captured by :meth:`snapshot`.

        Heap entries keep their original ``(time, priority, tiebreak,
        sequence)`` keys, so pop order -- including FIFO tie-breaks --
        continues exactly as it would have in the snapshotted run.
        """
        if self._running:
            raise SimulationError("restore() while the simulator is running")
        if state.get("version") != 1:
            raise SimulationError(
                f"unsupported simulator snapshot version {state.get('version')!r}")
        self._now = state["now"]
        self._seq = state["seq"]
        self.events_processed = state["events_processed"]
        self._heap = list(state["heap"])
        heapq.heapify(self._heap)
        if state["tiebreak_state"] is None:
            self._tiebreak_rng = None
        else:
            rng = random.Random()
            rng.setstate(state["tiebreak_state"])
            self._tiebreak_rng = rng

    # ------------------------------------------------------- validation hooks
    def add_step_probe(self, probe: Callable[[int, int, int, int, Event], None]) -> None:
        """Register an observer called on every :meth:`step` with the popped
        heap key ``(time, priority, tiebreak, sequence)`` and the event,
        *before* the event's callbacks run.  Probes are the attachment
        point for :mod:`repro.validate` runtime monitors; they must be
        O(1) and may raise to abort the run (fail-fast validation)."""
        self._step_probes.append(probe)

    def seed_tiebreaks(self, seed: int) -> None:
        """Arm schedule fuzzing: subsequently scheduled events draw a
        deterministic pseudo-random tie-break key, exploring alternative
        legal orderings of same-``(time, priority)`` events.  The same
        seed always produces the same schedule (``random.Random`` is
        platform-stable), so any failure is replayable from the seed."""
        self._tiebreak_rng = random.Random(seed)

    # ---------------------------------------------------------------- engine
    def _schedule_event(self, event: Event, delay: int, priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq = self._seq + 1
        event._sched_seq = seq
        rng = self._tiebreak_rng
        _heappush(self._heap,
                  (self._now + int(delay), priority,
                   rng.getrandbits(16) if rng is not None else 0,
                   seq, event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        t, prio, tie, seq, event = heapq.heappop(self._heap)
        if t < self._now:  # pragma: no cover - guarded by _schedule_event
            raise SimulationError("event heap time went backwards")
        self._now = t
        self.events_processed += 1
        if self._step_probes:
            for probe in self._step_probes:
                probe(t, prio, tie, seq, event)
        event._run_callbacks()

    def run(self, until: Optional[int] = None) -> int:
        """Run until the heap drains or the clock passes ``until``.

        Returns the final simulation time.

        The drain loop is the simulator's hottest code: it pops events
        with locally bound references and -- within a run of events at one
        timestamp -- skips the per-event ``until`` re-check (same-tick
        events cannot newly pass the horizon).  Pop order is bit-identical
        to repeated :meth:`step` calls; ``tests/test_sim_engine.py``
        asserts this on fuzzed schedules.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        heap = self._heap
        pop = _heappop
        pool = self._pool
        # Bind the probe *list* (not a snapshot): add_step_probe appends in
        # place, so probes attached mid-run are still honored while the
        # no-probe case costs one truthiness test per event.
        probes = self._step_probes
        # Fire-and-forget callback events (the common case under the
        # hardware models) are dispatched inline: recycling them through
        # the freelist here instead of via Event._run_callbacks saves a
        # Python frame per event.  The inline block is semantically
        # identical to _CallbackEvent._run_callbacks.
        try:
            if until is None:
                while heap:
                    t, prio, tie, seq, event = pop(heap)
                    self._now = t
                    processed += 1
                    if probes:
                        for probe in probes:
                            probe(t, prio, tie, seq, event)
                    if event.__class__ is _CallbackEvent:
                        fn = event._fn
                        args = event._args
                        event._fn = None
                        event._args = ()
                        if len(pool) < _POOL_MAX:
                            pool.append(event)
                        fn(*args)
                    else:
                        event._run_callbacks()
            else:
                while heap:
                    t = heap[0][0]
                    if t > until:
                        self._now = until
                        break
                    # Drain the whole same-tick run; zero-delay events a
                    # callback schedules join it in heap order.
                    while heap and heap[0][0] == t:
                        t, prio, tie, seq, event = pop(heap)
                        self._now = t
                        processed += 1
                        if probes:
                            for probe in probes:
                                probe(t, prio, tie, seq, event)
                        if event.__class__ is _CallbackEvent:
                            fn = event._fn
                            args = event._args
                            event._fn = None
                            event._args = ()
                            if len(pool) < _POOL_MAX:
                                pool.append(event)
                            fn(*args)
                        else:
                            event._run_callbacks()
                else:
                    if until > self._now:
                        self._now = until
        finally:
            self._running = False
            self.events_processed += processed
        return self._now

    def run_until_event(self, event: Event, limit: Optional[int] = None) -> Any:
        """Run until ``event`` is processed; returns its value.

        Raises the event's exception if it failed, and ``SimulationError``
        if the heap drains (or ``limit`` is reached) first.  Enforces the
        same reentrancy guard as :meth:`run`: calling it from inside an
        event callback would corrupt the clock.
        """
        if self._running:
            raise SimulationError("Simulator.run_until_event() is not reentrant")
        self._running = True
        try:
            while not event.processed:
                if not self._heap:
                    raise SimulationError(f"simulation ended before {event!r} fired")
                if limit is not None and self._heap[0][0] > limit:
                    raise SimulationError(f"limit {limit} reached before {event!r} fired")
                self.step()
        finally:
            self._running = False
        if not event.ok:
            raise event.value
        return event.value
