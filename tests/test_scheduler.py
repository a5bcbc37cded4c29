"""The event queue against its oracle, ``sorted()``.

Four layers of guarantees:

- dispatch order: arbitrary ``(when, priority)`` schedules run in
  ``sorted((when, priority, seq))`` order, one frame per key;
- property-based kernel programs (hypothesis): timeouts, same-tick
  ties, urgent interrupts, zero-delay completions and far-horizon
  sleeps log non-decreasing ticks, every sleeper wakes exactly at spawn
  + delay unless interrupted, and same-tick twins wake in spawn order;
  a fixed reference program's log is pinned literally;
- same-tick fusion and urgent preemption of the live dispatch frame;
- the kernel bugfix regressions: explicit event ownership
  (``hold``/``release`` instead of the refcount-recycling heuristic),
  ``run(until=...)`` never fast-forwarding past a drained queue, and
  pooled ``Timeout`` reset being indistinguishable from construction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Event, Interrupt, SimError, SimKernel, Timeout
from repro.engine.core import NORMAL, URGENT

#: offset of the far-horizon sleeps in the kernel programs below
FAR = 2048 << 7


@pytest.fixture
def kernel():
    return SimKernel()


# ---------------------------------------------------------------------------
# oracle: dispatch order is sorted((when, priority, seq)), one frame per key
# ---------------------------------------------------------------------------

_entry_lists = st.lists(
    st.tuples(st.integers(0, 1 << 22), st.sampled_from([URGENT, NORMAL])),
    min_size=1,
    max_size=200,
)


@settings(max_examples=100, deadline=None)
@given(_entry_lists)
def test_dispatch_follows_sorted_order_in_frames(entries):
    k = SimKernel()
    log = []
    for when, prio in entries:
        ev = Event(k)
        ev._triggered = True
        seq = k._seq + 1
        # the head of the live frame names the frame this event ran in
        ev.callbacks.append(
            lambda _ev, prio=prio, seq=seq: log.append((k.now, prio, seq, k._frame[0][2]))
        )
        k._schedule(ev, when, prio)
    keyed = sorted((when, prio, seq) for seq, (when, prio) in enumerate(entries, 1))
    assert [e[:3] for e in k.pending()] == keyed
    heads = {}
    for when, prio, seq in keyed:
        heads.setdefault((when, prio), seq)
    k.run()
    assert log == [(when, prio, seq, heads[when, prio]) for when, prio, seq in keyed]
    assert k._frames == len(heads)
    assert k._events == len(entries)
    assert k.pending() == [] and k.peek() is None


# ---------------------------------------------------------------------------
# oracle: kernel programs
# ---------------------------------------------------------------------------


def _run_program(ops):
    """Execute one op-list program; return its dispatch log, each
    sleeper's ``(spawn tick, delay)`` and each interrupted sleeper's
    ``(tick, cause)``."""
    k = SimKernel()
    log = []
    live = []
    spawned = {}
    interrupted = {}

    def sleeper(wid, delay):
        try:
            yield k.timeout(delay, value=wid)
            log.append(("wake", k.now, wid))
        except Interrupt as exc:
            log.append(("intr", k.now, wid, exc.cause))

    def spawn(wid, delay):
        spawned[wid] = (k.now, delay)
        live.append((wid, k.process(sleeper(wid, delay))))

    def waiter(ev, wid):
        try:
            value = yield ev
            log.append(("ok", k.now, wid, value))
        except RuntimeError:
            log.append(("err", k.now, wid))

    def driver():
        for wid, (kind, delay, gap) in enumerate(ops):
            if kind == 0:
                spawn(wid, delay)
            elif kind == 1:  # same-tick tie: two sleepers, one wake tick
                spawn((wid, "a"), delay)
                spawn((wid, "b"), delay)
            elif kind == 2:  # far-horizon sleep
                spawn(wid, delay * 3000 + FAR)
            elif kind == 3:  # urgent interrupt of the oldest live sleeper
                target = next(
                    ((tid, p) for tid, p in live
                     if p.is_alive and tid not in interrupted),
                    None,
                )
                if target is not None:
                    interrupted[target[0]] = (k.now, wid)
                    target[1].interrupt(cause=wid)
            else:  # zero-delay completion racing the current frame
                ev = k.event()
                k.process(waiter(ev, wid))
                if delay % 2:
                    ev.fail(RuntimeError("boom"))
                else:
                    ev.succeed(value=wid)
            if gap:
                yield k.timeout(gap)
                log.append(("drv", k.now, wid))

    k.process(driver(), name="driver")
    k.run()
    log.append(("end", k.now))
    return log, spawned, interrupted


_programs = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 400), st.integers(0, 50)),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(_programs)
def test_programs_match_the_timing_oracle(ops):
    log, spawned, interrupted = _run_program(ops)
    ticks = [entry[1] for entry in log]
    assert ticks == sorted(ticks)
    woke = {entry[2]: (i, entry[1]) for i, entry in enumerate(log)
            if entry[0] == "wake"}
    cut = {entry[2]: (entry[1], entry[3]) for entry in log if entry[0] == "intr"}
    # every sleeper ends exactly once: interrupted at the tick the
    # interrupt was issued, or woken exactly at spawn + delay
    assert len(woke) + len(cut) == len(spawned)
    assert cut == interrupted
    for wid, (_i, tick) in woke.items():
        start, delay = spawned[wid]
        assert tick == start + delay
    # same-tick twins wake in spawn order
    for wid, (i, _tick) in woke.items():
        if isinstance(wid, tuple) and wid[1] == "a" and (wid[0], "b") in woke:
            assert i < woke[wid[0], "b"][0]


#: the dispatch log of the reference program below, as the kernel first
#: produced it
REFERENCE_LOG = [
    ("drv", 5, 0),
    ("err", 5, 2),
    ("drv", 7, 2),
    ("drv", 8, 3),
    ("intr", 8, 0, 4),
    ("wake", 12, (1, "a")),
    ("wake", 12, (1, "b")),
    ("drv", 12, 4),
    ("ok", 12, 6, 6),
    ("wake", 12, (5, "a")),
    ("wake", 12, (5, "b")),
    ("drv", 21, 6),
    ("intr", 21, 3, 7),
    ("wake", 21, 8),
    ("drv", 51, 8),
    ("wake", 265195, 9),
    ("end", 562151),
]


def test_reference_program_log():
    """A fixed program touching every op kind — runs without hypothesis
    so a plain ``pytest tests/test_scheduler.py`` still pins the kernel."""
    ops = [
        (0, 10, 5),
        (1, 7, 0),
        (4, 3, 2),
        (2, 100, 1),
        (3, 0, 4),
        (1, 0, 0),
        (4, 2, 9),
        (3, 0, 0),
        (0, 0, 30),
        (2, 1, 0),
    ]
    assert _run_program(ops)[0] == REFERENCE_LOG


# ---------------------------------------------------------------------------
# same-tick fusion and urgent preemption
# ---------------------------------------------------------------------------


def test_same_tick_cascade_fuses_into_one_frame(kernel):
    done = []

    def chain(n):
        for _ in range(n):
            yield kernel.timeout(0)
        done.append(kernel.now)

    kernel.process(chain(10))
    kernel.run()
    assert done == [0]
    # one URGENT frame (the Initialize) plus one NORMAL frame holding
    # all ten zero-delay timeouts and the process-completion event —
    # fusion keeps the heap out of the cascade entirely
    assert kernel._frames == 2
    assert kernel._events == 12


def test_urgent_preempts_live_frame(kernel):
    order = []

    def a():
        yield kernel.timeout(5)
        order.append("A")
        ev = kernel.event()
        ev._triggered = True
        ev.callbacks.append(lambda _ev: order.append("U"))
        kernel._schedule(ev, 0, URGENT)

    def b():
        yield kernel.timeout(5)
        order.append("B")

    kernel.process(a())
    kernel.process(b())
    kernel.run()
    # the urgent event outranks the rest of the tick-5 NORMAL frame: B's
    # wake is requeued and runs after it
    assert order == ["A", "U", "B"]


def test_fused_events_observe_monotonic_clock(kernel):
    stamps = []

    def p(delay):
        yield kernel.timeout(delay)
        stamps.append(kernel.now)
        yield kernel.timeout(0)
        stamps.append(kernel.now)

    kernel.process(p(3))
    kernel.process(p(3))
    kernel.run()
    assert stamps == [3, 3, 3, 3]


# ---------------------------------------------------------------------------
# regression: explicit event ownership (hold/release)
# ---------------------------------------------------------------------------


class TestEventOwnership:
    """The seed kernel recycled any event whose ``sys.getrefcount``
    dropped to 2 — a heuristic that broke the moment a callback stashed
    the event somewhere the counter couldn't see (a closure cell, a C
    extension, a debugger).  The kernel now recycles on an explicit
    ``_holds`` count; these tests pin both directions of that contract
    and fail on the heuristic kernel."""

    def test_unheld_kernel_events_are_recycled(self, kernel):
        ev = kernel.timeout(3)
        kernel.run()
        # LIFO pool: the spent timeout is reissued even though this
        # frame still holds a local reference to it (the refcount
        # heuristic would have refused — `ev` keeps the count above 2)
        assert kernel.timeout(1) is ev

    def test_held_event_value_survives_pool_churn(self, kernel):
        held = []
        first = kernel.timeout(5, value="original")
        first.callbacks.append(lambda ev: held.append(ev.hold()))
        kernel.run()

        def churn():
            for i in range(3 * SimKernel._POOL_MAX):
                yield kernel.timeout(1, value=("churn", i))

        kernel.process(churn())
        kernel.run()
        [ev] = held
        assert ev is first
        assert ev.value == "original"  # heuristic kernel: clobbered by reuse
        ev.release()
        # released and processed: back in the pool, reissued next
        assert kernel.timeout(1) is ev

    def test_release_without_hold_raises(self, kernel):
        ev = kernel.timeout(1)  # kernel-owned: zero holds to give back
        with pytest.raises(SimError, match="release"):
            ev.release()

    def test_directly_constructed_events_are_creator_owned(self, kernel):
        ev = Event(kernel)
        ev.succeed(value=7)
        kernel.run()
        assert ev.value == 7
        assert kernel.event() is not ev

    def test_pools_are_bounded(self, kernel):
        for _ in range(2 * SimKernel._POOL_MAX):
            kernel.timeout(1)
        kernel.run()
        assert len(kernel._timeout_pool) <= SimKernel._POOL_MAX


# ---------------------------------------------------------------------------
# regression: run(until=...) vs a drained queue
# ---------------------------------------------------------------------------


class TestRunUntil:
    """``run(until=T)`` used to fast-forward the clock to T even when
    the queue drained earlier — so a checkpoint taken afterwards stamped
    a tick no event ever reached."""

    def test_clock_stays_at_drain_time(self, kernel):
        def p():
            yield kernel.timeout(10)

        kernel.process(p())
        kernel.run(until=1000)
        assert kernel.now == 10  # not 1000

    def test_clock_advances_to_until_when_work_remains(self, kernel):
        kernel.timeout(10)
        kernel.timeout(2000)
        kernel.run(until=1000)
        assert kernel.now == 1000
        assert kernel.peek() == 2000

    def test_until_in_past_raises(self, kernel):
        kernel.timeout(5)
        kernel.run()
        with pytest.raises(SimError, match="in the past"):
            kernel.run(until=2)

    def test_resume_after_early_stop(self, kernel):
        order = []

        def p():
            yield kernel.timeout(10)
            order.append(kernel.now)
            yield kernel.timeout(2000)
            order.append(kernel.now)

        kernel.process(p())
        kernel.run(until=1000)
        assert kernel.now == 1000
        kernel.run()
        assert order == [10, 2010]

    def test_spawn_after_early_stop(self, kernel):
        """New work scheduled below the stopped scan point still runs
        first."""
        hits = []

        def late():
            yield kernel.timeout(2000)
            hits.append(kernel.now)

        kernel.process(late())
        kernel.run(until=1000)
        assert kernel.now == 1000

        def early():
            yield kernel.timeout(5)
            hits.append(kernel.now)

        kernel.process(early())
        kernel.run()
        assert hits == [1005, 2000]


# ---------------------------------------------------------------------------
# property: pooled Timeouts are indistinguishable from fresh ones
# ---------------------------------------------------------------------------

_churn_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 7)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(_churn_ops, st.integers(0, 5), st.booleans())
def test_recycled_timeout_indistinguishable_from_fresh(ops, delay, use_value):
    """Drive the pool through varied lifecycles — plain fires, waited
    timeouts, interrupted waits, failed events, held survivors — then
    check the next factory timeout against a from-scratch construction."""
    k = SimKernel()
    for kind, d in ops:
        if kind == 0:
            k.timeout(d, value=("plain", d))
        elif kind == 1:
            def sleep(d=d):
                try:
                    yield k.timeout(d)
                except Interrupt:
                    pass

            proc = k.process(sleep())
            if d % 2:
                proc.interrupt(cause="churn")
        elif kind == 2:
            ev = k.event()

            def wait(ev=ev):
                try:
                    yield ev
                except RuntimeError:
                    pass

            k.process(wait())
            if d % 2:
                ev.fail(RuntimeError("churn"))
            else:
                ev.succeed(value=d)
        else:
            k.timeout(d, value="held").hold()  # never recycled
        k.run()

    value = ("fresh", delay) if use_value else None
    pooled = k.timeout(delay, value)
    fresh = Timeout(SimKernel(), delay, value)
    assert type(pooled) is Timeout
    for attr in ("delay", "_value", "_ok", "_triggered", "_processed"):
        assert getattr(pooled, attr) == getattr(fresh, attr), attr
    assert pooled.callbacks == []
    assert pooled._holds == 0  # factory events are kernel-owned


def test_pooled_timeout_rejects_negative_delay(kernel):
    kernel.timeout(1)
    kernel.run()
    assert kernel._timeout_pool  # the pooled path is the one under test
    with pytest.raises(SimError, match="negative"):
        kernel.timeout(-1)
