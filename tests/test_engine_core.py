"""Unit tests for the DES kernel (repro.engine.core)."""

import pytest

from repro.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimError,
    SimKernel,
)


@pytest.fixture
def kernel():
    return SimKernel()


class TestClockAndTimeout:
    def test_time_starts_at_zero(self, kernel):
        assert kernel.now == 0

    def test_timeout_advances_clock(self, kernel):
        def proc():
            yield kernel.timeout(42)

        kernel.process(proc())
        kernel.run()
        assert kernel.now == 42

    def test_timeout_value_passthrough(self, kernel):
        seen = []

        def proc():
            v = yield kernel.timeout(5, value="hello")
            seen.append(v)

        kernel.process(proc())
        kernel.run()
        assert seen == ["hello"]

    def test_negative_timeout_rejected(self, kernel):
        with pytest.raises(SimError):
            kernel.timeout(-1)

    def test_zero_timeout_allowed(self, kernel):
        def proc():
            yield kernel.timeout(0)
            return kernel.now

        p = kernel.process(proc())
        kernel.run()
        assert p.value == 0

    def test_run_until_stops_clock(self, kernel):
        def proc():
            yield kernel.timeout(100)

        kernel.process(proc())
        kernel.run(until=50)
        assert kernel.now == 50

    def test_run_until_in_past_rejected(self, kernel):
        def proc():
            yield kernel.timeout(100)

        kernel.process(proc())
        kernel.run()
        with pytest.raises(SimError):
            kernel.run(until=50)

    def test_sequential_timeouts_accumulate(self, kernel):
        def proc():
            yield kernel.timeout(10)
            yield kernel.timeout(20)
            yield kernel.timeout(30)
            return kernel.now

        p = kernel.process(proc())
        kernel.run()
        assert p.value == 60


class TestEvents:
    def test_manual_succeed(self, kernel):
        ev = kernel.event()
        results = []

        def waiter():
            v = yield ev
            results.append((kernel.now, v))

        def trigger():
            yield kernel.timeout(7)
            ev.succeed("done")

        kernel.process(waiter())
        kernel.process(trigger())
        kernel.run()
        assert results == [(7, "done")]

    def test_double_trigger_rejected(self, kernel):
        ev = kernel.event()
        ev.succeed(1)
        with pytest.raises(SimError):
            ev.succeed(2)

    def test_fail_throws_into_waiter(self, kernel):
        ev = kernel.event()
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield kernel.timeout(1)
            ev.fail(RuntimeError("boom"))

        kernel.process(waiter())
        kernel.process(trigger())
        kernel.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, kernel):
        ev = kernel.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_yield_processed_event_resumes_immediately(self, kernel):
        ev = kernel.event()
        ev.succeed("early")
        results = []

        def waiter():
            yield kernel.timeout(10)  # event fires long before this
            v = yield ev
            results.append((kernel.now, v))

        kernel.process(waiter())
        kernel.run()
        assert results == [(10, "early")]

    def test_yield_non_event_is_error(self, kernel):
        def proc():
            yield 42

        kernel.process(proc())
        with pytest.raises(SimError):
            kernel.run()


class TestProcesses:
    def test_return_value(self, kernel):
        def proc():
            yield kernel.timeout(1)
            return "result"

        p = kernel.process(proc())
        kernel.run()
        assert p.value == "result"
        assert not p.is_alive

    def test_waiting_on_process(self, kernel):
        def child():
            yield kernel.timeout(30)
            return "child-result"

        def parent():
            v = yield kernel.process(child())
            return (kernel.now, v)

        p = kernel.process(parent())
        kernel.run()
        assert p.value == (30, "child-result")

    def test_unhandled_exception_propagates_from_run(self, kernel):
        def proc():
            yield kernel.timeout(1)
            raise ValueError("unhandled")

        kernel.process(proc())
        with pytest.raises(ValueError, match="unhandled"):
            kernel.run()

    def test_exception_delivered_to_waiter_instead(self, kernel):
        def child():
            yield kernel.timeout(1)
            raise ValueError("caught by parent")

        def parent():
            try:
                yield kernel.process(child())
            except ValueError:
                return "handled"

        p = kernel.process(parent())
        kernel.run()
        assert p.value == "handled"

    def test_interrupt(self, kernel):
        log = []

        def sleeper():
            try:
                yield kernel.timeout(1000)
            except Interrupt as i:
                log.append((kernel.now, i.cause))

        def interrupter(target):
            yield kernel.timeout(5)
            target.interrupt("wake up")

        t = kernel.process(sleeper())
        kernel.process(interrupter(t))
        kernel.run()
        assert log == [(5, "wake up")]

    def test_interrupt_finished_process_rejected(self, kernel):
        def quick():
            yield kernel.timeout(1)

        p = kernel.process(quick())
        kernel.run()
        with pytest.raises(SimError):
            p.interrupt()

    def test_non_generator_rejected(self, kernel):
        with pytest.raises(SimError):
            kernel.process(lambda: None)


class TestCombinators:
    def test_all_of_waits_for_slowest(self, kernel):
        def proc():
            vals = yield kernel.all_of(
                [kernel.timeout(10, "a"), kernel.timeout(30, "b"), kernel.timeout(20, "c")]
            )
            return (kernel.now, vals)

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (30, ["a", "b", "c"])

    def test_all_of_empty_fires_immediately(self, kernel):
        def proc():
            vals = yield kernel.all_of([])
            return (kernel.now, vals)

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (0, [])

    def test_any_of_returns_first(self, kernel):
        def proc():
            idx, val = yield kernel.any_of(
                [kernel.timeout(30, "slow"), kernel.timeout(5, "fast")]
            )
            return (kernel.now, idx, val)

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (5, 1, "fast")

    def test_any_of_empty_rejected(self, kernel):
        with pytest.raises(SimError):
            kernel.any_of([])


class TestJoin:
    @staticmethod
    def child(kernel, delay, value, log=None):
        if log is not None:
            log.append(("start", value))
        yield kernel.timeout(delay)
        return value

    def test_results_in_order_after_the_slowest(self, kernel):
        log = []

        def proc():
            joined = kernel.join([self.child(kernel, 30, "a", log),
                                  self.child(kernel, 10, "b", log)])
            # children start synchronously, in order, before the caller yields
            assert log == [("start", "a"), ("start", "b")]
            vals = yield joined
            return kernel.now, vals

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (30, ["a", "b"])

    def test_no_process_is_created(self, kernel, monkeypatch):
        from repro.engine.core import Process

        made = []
        init = Process.__init__

        def counted(process, *args, **kwargs):
            made.append(process)
            init(process, *args, **kwargs)

        def proc():
            yield kernel.join([self.child(kernel, 5, i) for i in range(3)])

        kernel.process(proc())
        monkeypatch.setattr(Process, "__init__", counted)
        kernel.run()
        assert made == []

    def test_first_failure_is_raised(self, kernel):
        def boom(delay, msg):
            yield kernel.timeout(delay)
            raise ValueError(msg)

        def proc():
            try:
                yield kernel.join([self.child(kernel, 50, "slow"),
                                   boom(20, "second"), boom(10, "first")])
            except ValueError as exc:
                return kernel.now, str(exc)

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (10, "first")

    def test_failure_at_start_is_raised(self, kernel):
        def bad():
            raise KeyError("at start")
            yield  # pragma: no cover

        def proc():
            try:
                yield kernel.join([bad()])
            except KeyError:
                return "caught"

        p = kernel.process(proc())
        kernel.run()
        assert p.value == "caught"

    def test_already_processed_event_is_handled(self, kernel):
        done = kernel.event().hold()
        done.succeed("early")

        def late():
            yield kernel.timeout(5)
            # *done* fired at tick 0: the child resumes at once
            return (yield done), kernel.now

        def proc():
            return (yield kernel.join([late()]))

        p = kernel.process(proc())
        kernel.run()
        assert p.value == [("early", 5)]

    def test_failed_processed_event_is_thrown(self, kernel):
        bad = kernel.event().hold()
        bad.fail(RuntimeError("x"))
        bad.callbacks.append(lambda _ev: None)  # observed: no crash

        def late():
            yield kernel.timeout(1)
            try:
                yield bad
            except RuntimeError:
                return "thrown"

        def proc():
            return (yield kernel.join([late()]))

        p = kernel.process(proc())
        kernel.run()
        assert p.value == ["thrown"]

    def test_join_event_can_be_yielded_after_it_fired(self, kernel):
        def proc():
            request = kernel.join([self.child(kernel, 5, "x")])
            yield kernel.timeout(100)  # the join fires meanwhile ...
            assert request.processed
            # ... and is not recycled: fresh events drain the pool
            for _ in range(4):
                yield kernel.event().succeed(delay=1)
            first = yield request
            second = yield request
            return kernel.now, first, second

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (104, ["x"], ["x"])

    def test_empty_join_fires_immediately(self, kernel):
        def proc():
            vals = yield kernel.join([])
            return kernel.now, vals

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (0, [])


class TestDeterminism:
    def test_fifo_order_at_same_instant(self, kernel):
        order = []

        def make(name):
            def proc():
                yield kernel.timeout(10)
                order.append(name)

            return proc

        for name in "abcde":
            kernel.process(make(name)())
        kernel.run()
        assert order == list("abcde")

    def test_two_runs_identical(self):
        def scenario():
            k = SimKernel()
            trace = []

            def worker(name, delay):
                yield k.timeout(delay)
                trace.append((k.now, name))
                yield k.timeout(delay)
                trace.append((k.now, name))

            for i in range(10):
                k.process(worker(f"w{i}", 3 + i % 4))
            k.run()
            return trace

        assert scenario() == scenario()
