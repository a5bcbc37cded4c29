"""Core of the discrete-event simulation kernel.

The kernel keeps pending ``(time, priority, sequence, event)`` entries in
one binary heap.  Time is an integer tick count; ties are broken first by
an event priority (so e.g. urgent interrupts run before normal timeouts
at the same instant) and then by scheduling order, which makes every
simulation fully deterministic.

Dispatch is *frame-fused*: the loop pops every entry sharing the minimal
``(time, priority)`` key as one frame, and events scheduled **during**
the frame for the same key are appended to the live frame — same-tick
cascades (resource grants, zero-delay succeeds) never touch the heap at
all.  An urgent event scheduled mid-frame preempts the rest of the frame
exactly as a per-event heap loop would have.

Processes are plain generator functions.  Each ``yield`` hands the kernel a
waitable :class:`Event`; the process is resumed with the event's value when
it fires (or the event's exception is thrown into the generator).
:meth:`SimKernel.join` drives generators the same way without making them
processes: concurrent halves of one operation (an MPI send and receive)
run as callback chains and settle one join event.

Event ownership and pooling
---------------------------

Spent ``Event``/``Timeout`` instances are recycled through per-kernel
pools.  Pooling is governed by an explicit hold count, not a refcount
heuristic: events made by the factories :meth:`SimKernel.event` and
:meth:`SimKernel.timeout` are *kernel-owned* (hold count 0) and return
to the pool as soon as their callbacks have run.  Code that keeps a
reference past that point — to read ``.value`` later, or to yield the
event again — must take ownership with :meth:`Event.hold` and drop it
with :meth:`Event.release` when done.  Directly-constructed events
(``Event(kernel)``, ``Timeout(kernel, d)``) start creator-owned (hold
count 1) and are never recycled behind the creator's back.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

#: scheduling priorities (lower runs first at equal times)
URGENT = 0
NORMAL = 1


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A waitable occurrence.

    Events move through three states: *pending* (created, not triggered),
    *triggered* (scheduled to fire, value set) and *processed* (callbacks
    have run).  Processes wait on events by yielding them.
    """

    __slots__ = (
        "kernel",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_holds",
    )

    def __init__(self, kernel: "SimKernel"):
        self.kernel = kernel
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        # directly-constructed events are creator-owned; the kernel
        # factories reset this to 0 (kernel-owned, poolable)
        self._holds = 1

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (success or failure)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        return self._value

    # -- ownership ------------------------------------------------------
    def hold(self) -> "Event":
        """Take ownership: the event will not be recycled while held.

        Call this before stashing a factory-made event for later reads
        (``.value`` after other work has run, re-yielding, tracing).
        Pair with :meth:`release`.
        """
        self._holds += 1
        return self

    def release(self) -> None:
        """Drop one hold; a processed event with no holds left returns to
        its kernel's pool."""
        holds = self._holds - 1
        if holds < 0:
            raise SimError(f"release() without a matching hold() on {self!r}")
        self._holds = holds
        if holds == 0 and self._processed:
            self.kernel._recycle(self)

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with *value* after *delay* ticks."""
        if self._triggered:
            raise SimError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.kernel._schedule(self, delay, NORMAL)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event as failed; waiters get *exception* thrown."""
        if self._triggered:
            raise SimError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.kernel._schedule(self, delay, NORMAL)
        return self

    # -- internal -------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires *delay* ticks after creation."""

    __slots__ = ("delay",)

    def __init__(self, kernel: "SimKernel", delay: int, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout delay {delay}")
        super().__init__(kernel)
        self.delay = delay
        self._triggered = True
        self._value = value
        kernel._schedule(self, delay, NORMAL)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, kernel: "SimKernel", process: "Process"):
        super().__init__(kernel)
        self._triggered = True
        self._value = None
        self.callbacks.append(process._resume)
        kernel._schedule(self, 0, URGENT)


class Process(Event):
    """A running generator coroutine; also an event that fires on return.

    The value of the event is the generator's ``return`` value; if the
    generator raises, the process event fails with that exception (unless a
    waiter exists, the exception propagates out of :meth:`SimKernel.run`).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, kernel: "SimKernel", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimError(f"{generator!r} is not a generator")
        super().__init__(kernel)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        Initialize(kernel, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self._triggered:
            raise SimError(f"cannot interrupt finished {self!r}")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        interrupt_ev = Event(self.kernel)
        interrupt_ev._holds = 0  # kernel-internal, nobody retains it
        interrupt_ev._triggered = True
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev.callbacks.append(self._resume_throw)
        self.kernel._schedule(interrupt_ev, 0, URGENT)

    # -- resumption -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._step(event, not event._ok)

    def _resume_throw(self, event: Event) -> None:
        self._step(event, throw=True)

    def _step(self, event: Event, throw: bool) -> None:
        self._target = None
        try:
            self._target = _advance(self.kernel, self.generator, event._value,
                                    throw, self._resume, self.name)
        except StopIteration as stop:
            self._triggered = True
            self._ok = True
            self._value = stop.value
            self.kernel._schedule(self, 0, NORMAL)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            if self.callbacks:
                self.kernel._schedule(self, 0, NORMAL)
            else:
                # nobody is waiting: surface the failure from run()
                self.kernel._crash = exc


def _advance(kernel: "SimKernel", generator: Generator, value: Any,
             throw: bool, resume: Callable[[Event], None],
             name: str) -> Optional[Event]:
    """One step of a generator driven by the events it yields.

    Sends *value* into *generator* (throws it when *throw*) and wires
    *resume* to the event the generator yields next; an event that has
    already been processed resumes it at the current instant through an
    urgent carrier event.  Returns the event *resume* waits on (None
    when the carrier resumes the generator).  The generator's return
    (``StopIteration``) and its exceptions propagate to the caller —
    :class:`Process` and :meth:`SimKernel.join` settle them differently.
    """
    if throw:
        target = generator.throw(value)
    else:
        target = generator.send(value)
    if not isinstance(target, Event):
        raise SimError(f"{name!r} yielded {target!r}, which is not an Event")
    if target.callbacks is None:
        # already processed: resume immediately at the current instant
        immediate = Event(kernel)
        immediate._holds = 0  # kernel-internal
        immediate._triggered = True
        immediate._ok = target._ok
        immediate._value = target._value
        immediate.callbacks.append(resume)
        kernel._schedule(immediate, 0, URGENT)
        return None
    target.callbacks.append(resume)
    return target


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    Fails as soon as any child fails.  Children are held (see
    :meth:`Event.hold`) until the combinator settles, so pooled events
    are safe to combine.
    """

    __slots__ = ("events", "_pending", "_held")

    def __init__(self, kernel: "SimKernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        self._pending = 0
        self._held: List[Event] = []
        failed: Optional[Event] = None
        for ev in self.events:
            if ev.callbacks is None:  # already processed
                if not ev.ok and failed is None:
                    failed = ev
                continue
            self._pending += 1
            ev.hold()
            self._held.append(ev)
            ev.callbacks.append(self._child_fired)
        if failed is not None:
            self.fail(failed.value)
            self._release_children()
        elif self._pending == 0:
            self.succeed([ev.value for ev in self.events])

    def _release_children(self) -> None:
        held, self._held = self._held, []
        for ev in held:
            ev.release()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            self._release_children()
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev.value for ev in self.events])
            self._release_children()


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``.

    Children are held until the combinator settles; note that reading a
    *losing* child's value after the AnyOf fires requires your own
    :meth:`Event.hold` on it.
    """

    __slots__ = ("events", "_held")

    def __init__(self, kernel: "SimKernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        self._held: List[Event] = []
        if not self.events:
            raise SimError("AnyOf requires at least one event")
        for i, ev in enumerate(self.events):
            if ev.callbacks is None:
                if not self._triggered:
                    if ev.ok:
                        self.succeed((i, ev.value))
                    else:
                        self.fail(ev.value)
                continue
            ev.hold()
            self._held.append(ev)
            ev.callbacks.append(self._make_cb(i))
        if self._triggered:
            self._release_children()

    def _release_children(self) -> None:
        held, self._held = self._held, []
        for ev in held:
            ev.release()

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        def _cb(event: Event) -> None:
            if self._triggered:
                return
            if event.ok:
                self.succeed((index, event.value))
            else:
                self.fail(event.value)
            self._release_children()

        return _cb


#: the kernel currently inside :meth:`SimKernel.run`, if any.  The hang
#: watchdog (:mod:`repro.checkpoint`) samples this from its own thread to
#: tell "the event loop is stalled" apart from "the host is doing slow
#: non-simulation work"; one global assignment per run() call keeps the
#: hot loop untouched.
_active_kernel: Optional["SimKernel"] = None


def active_kernel() -> Optional["SimKernel"]:
    """The kernel currently executing run(), or None between runs."""
    return _active_kernel


#: one queue entry: (when, priority, seq, event)
Entry = Tuple[int, int, int, Any]


class SimKernel:
    """The event loop: a virtual clock plus a heap of pending events.

    >>> k = SimKernel()
    >>> def proc():
    ...     yield k.timeout(10)
    ...     return k.now
    >>> p = k.process(proc())
    >>> k.run()
    >>> p.value
    10
    """

    __slots__ = (
        "_heap",
        "_seq",
        "_now",
        "_crash",
        "_timeout_pool",
        "_event_pool",
        "_frame",
        "_frame_when",
        "_frame_prio",
        "_preempt",
        "_frames",
        "_events",
    )

    #: recycled events kept per pool; beyond this, spent events are left
    #: to the garbage collector
    _POOL_MAX = 256

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self._now = 0
        self._crash: Optional[BaseException] = None
        # object pools: Timeout/Event instances are the kernel's hottest
        # allocation; the dispatch loop recycles kernel-owned ones (hold
        # count 0) and the factories below reuse them
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []
        # the dispatch frame currently executing: same-key schedules fuse
        # into it, an urgent same-tick schedule preempts it
        self._frame: Optional[List[Entry]] = None
        self._frame_when = 0
        self._frame_prio = NORMAL
        self._preempt = False
        self._frames = 0
        self._events = 0

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self._now

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered kernel-owned event (recycled when its
        callbacks have run unless :meth:`Event.hold` is taken)."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = None
            ev._ok = True
            ev._triggered = False
            ev._processed = False
            ev._holds = 0
            return ev
        ev = Event(self)
        ev._holds = 0
        return ev

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create a kernel-owned event firing after *delay* ticks
        (recycled when possible)."""
        pool = self._timeout_pool
        if pool:
            delay = int(delay)
            if delay < 0:
                raise SimError(f"negative timeout delay {delay}")
            ev = pool.pop()
            # reset *all* slot state: a recycled timeout must be
            # indistinguishable from a newly-constructed one
            ev.delay = delay
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._triggered = True
            ev._processed = False
            ev._holds = 0
            self._schedule(ev, delay, NORMAL)
            return ev
        ev = Timeout(self, int(delay), value)
        ev._holds = 0
        return ev

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start *generator* as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for all of *events*."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Wait for the first of *events*."""
        return AnyOf(self, events)

    def join(self, generators: Iterable[Generator]) -> Event:
        """Run *generators* concurrently; the returned event fires with
        their return values in order once all have returned, or fails
        with the first exception one raises (as an :class:`AllOf` over
        their processes would).

        Each generator starts synchronously, in order, and is then
        driven straight from the callbacks of the events it yields, one
        :func:`_advance` per resume like a :class:`Process` — but no
        process, start event, per-child completion event or combinator
        is created.  The join event is creator-owned, never pooled, so
        it may be yielded after it fired (a request waited on late).  A
        child's exception reaches only those who wait on the join; it
        never surfaces from :meth:`run` on its own as a process's does.
        """
        joined = Event(self)
        gens = list(generators)
        results: List[Any] = [None] * len(gens)
        pending = len(gens)

        def start(index: int, generator: Generator) -> None:
            def resume(event: Event) -> None:
                step(event._value, not event._ok)

            def step(value: Any, throw: bool) -> None:
                nonlocal pending
                try:
                    _advance(self, generator, value, throw, resume, "join")
                except StopIteration as stop:
                    results[index] = stop.value
                    pending -= 1
                    if pending == 0 and not joined._triggered:
                        joined.succeed(results)
                except BaseException as exc:
                    if not joined._triggered:
                        joined.fail(exc)

            step(None, False)

        for index, generator in enumerate(gens):
            start(index, generator)
        if not gens:
            joined.succeed(results)
        return joined

    # -- pooling ----------------------------------------------------------
    def _recycle(self, event: Event) -> None:
        """Return a spent kernel-owned event to its pool (exact types
        only — subclasses carry extra state)."""
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
            if len(pool) < self._POOL_MAX:
                pool.append(event)
        elif cls is Event:
            pool = self._event_pool
            if len(pool) < self._POOL_MAX:
                pool.append(event)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: int, priority: int) -> None:
        self._seq += 1
        when = self._now + int(delay)
        frame = self._frame
        if frame is not None and when == self._frame_when:
            if priority == self._frame_prio:
                # same-tick fusion: join the live frame (the fresh seq is
                # larger than anything dispatched or pending in it)
                frame.append((when, priority, self._seq, event))
                return
            if priority < self._frame_prio:
                # an urgent event at the current tick outranks the rest
                # of this frame: make the dispatch loop yield to it
                self._preempt = True
        heappush(self._heap, (when, priority, self._seq, event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pending(self) -> List[Entry]:
        """Every queued ``(when, priority, seq, event)`` entry, in dispatch
        order (for audits, checkpoints and post-mortems).  Seqs are
        unique, so the sort never compares two events."""
        return sorted(self._heap)

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimError("step() on an empty event queue")
        when, _prio, _seq, event = heappop(self._heap)
        self._now = when
        event._run_callbacks()
        crash = self._crash
        if event._holds == 0:
            self._recycle(event)
        if crash is not None:
            self._crash = None
            raise crash

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock passes *until* ticks.

        If the queue drains before *until*, the clock stays at the last
        processed event's time — it never fast-forwards past work that
        doesn't exist (checkpoints taken after such a run must record a
        tick some event actually reached).

        If a process dies with an unhandled exception and no other process
        is waiting on it, the exception propagates out of ``run()``.

        When a tracer is installed (:mod:`repro.trace`) the whole run is
        wrapped in one ``engine.run`` span and a closing ``engine.frames``
        instant records the frame-batched dispatch stats — never per-event
        instrumentation, which would touch the hot loop.
        """
        from repro import trace

        tracer = trace.active()
        if tracer is None:
            return self._run_loop(until)
        frames0, events0 = self._frames, self._events
        with tracer.span("engine.run", track="kernel",
                         pending=len(self._heap)):
            result = self._run_loop(until)
            tracer.instant("engine.frames", track="kernel",
                           frames=self._frames - frames0,
                           events=self._events - events0)
            return result

    def _run_loop(self, until: Optional[int] = None) -> None:
        """The actual event loop (see :meth:`run`).

        Frame popping and dispatch are inlined — the per-event
        bookkeeping is the simulator's hottest code, and method calls
        plus repeated attribute loads are measurable at millions of
        events.
        """
        if until is not None and until < self._now:
            raise SimError(f"until={until} is in the past (now={self._now})")
        global _active_kernel
        _active_kernel = self
        frames = 0
        events = 0
        heap = self._heap
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        pool_max = self._POOL_MAX
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    return
                # pop the frame: every entry sharing the minimal
                # (when, priority) key, in seq order
                entry = heappop(heap)
                when = entry[0]
                prio = entry[1]
                frame = [entry]
                while heap and heap[0][0] == when and heap[0][1] == prio:
                    frame.append(heappop(heap))
                self._now = when
                frames += 1
                self._frame = frame
                self._frame_when = when
                self._frame_prio = prio
                i = 0
                try:
                    while i < len(frame):
                        event = frame[i][3]
                        i += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        event._processed = True
                        if callbacks:
                            for cb in callbacks:
                                cb(event)
                        if event._holds == 0:
                            cls = event.__class__
                            if cls is Timeout:
                                if len(timeout_pool) < pool_max:
                                    timeout_pool.append(event)
                            elif cls is Event:
                                if len(event_pool) < pool_max:
                                    event_pool.append(event)
                        if self._crash is not None:
                            exc, self._crash = self._crash, None
                            raise exc
                        if self._preempt:
                            self._preempt = False
                            break
                finally:
                    self._frame = None
                    events += i
                    if i < len(frame):
                        # preempted (or crashed): the unprocessed tail
                        # goes back on the heap under its original seqs
                        for entry in frame[i:]:
                            heappush(heap, entry)
        finally:
            self._frames += frames
            self._events += events
            _active_kernel = None
