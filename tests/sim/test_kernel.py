"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_time():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(1.5)
        done.append(sim.now)
        yield sim.timeout(0.5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [1.5, 2.0]
    assert sim.now == 2.0


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="tick")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["tick"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(waiter(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    got = []

    def waiter():
        value = yield gate
        got.append((sim.now, value))

    def opener():
        yield sim.timeout(2.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert got == [(2.0, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("late"))


def test_late_waiter_on_processed_event_resumes_immediately():
    sim = Simulator()
    gate = sim.event()
    got = []

    def opener():
        yield sim.timeout(1.0)
        gate.succeed("open")

    def late_waiter():
        yield sim.timeout(5.0)
        value = yield gate
        got.append((sim.now, value))

    sim.process(opener())
    sim.process(late_waiter())
    sim.run()
    assert got == [(5.0, "open")]


def test_process_return_value_visible_to_parent():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == [42]


def test_unwatched_process_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("bug in model")

    sim.process(bad())
    with pytest.raises(ValueError, match="bug in model"):
        sim.run()


def test_watched_process_exception_delivered_to_watcher():
    sim = Simulator()
    caught = []

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("expected")

    def watcher():
        try:
            yield sim.process(bad())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(watcher())
    sim.run()
    assert caught == ["expected"]


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 3.0  # not an Event

    sim.process(bad())
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done = []

    def proc():
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(3.0, value="b")
        result = yield sim.all_of([t1, t2])
        done.append((sim.now, result[t1], result[t2]))

    sim.process(proc())
    sim.run()
    assert done == [(3.0, "a", "b")]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    done = []

    def proc():
        yield sim.all_of([])
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0.0]


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()
    caught = []
    gate = sim.event()

    def failer():
        yield sim.timeout(1.0)
        gate.fail(RuntimeError("backup died"))

    def proc():
        slow = sim.timeout(10.0)
        try:
            yield sim.all_of([gate, slow])
        except RuntimeError:
            caught.append(sim.now)

    sim.process(failer())
    sim.process(proc())
    sim.run()
    assert caught == [1.0]


def test_any_of_fires_on_first():
    sim = Simulator()
    done = []

    def proc():
        t1 = sim.timeout(5.0)
        t2 = sim.timeout(2.0, value="fast")
        yield sim.any_of([t1, t2])
        done.append(sim.now)

    sim.process(proc())
    sim.run(until=10.0)
    assert done == [2.0]


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(ValueError):
        AnyOf(sim, [])


def test_interrupt_thrown_into_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(3.0)
        proc.interrupt("crash")

    sim.process(killer())
    sim.run()
    assert log == [(3.0, "crash")]


def test_unhandled_interrupt_terminates_process_cleanly():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(killer())
    sim.run(until=2.0)
    # The process died at the interrupt (t=1), long before its 100 s sleep.
    assert not proc.is_alive
    assert proc.triggered


def test_interrupting_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt("too late")  # must not raise
    sim.run()
    assert not proc.is_alive


def test_stale_event_after_interrupt_does_not_double_resume():
    sim = Simulator()
    resumed = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
        # Wait on something else; the stale 10s timeout must not wake us.
        yield sim.timeout(100.0)
        resumed.append("second")

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(killer())
    sim.run()
    assert resumed == ["interrupt", "second"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=5.0)
    assert sim.now == 5.0
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_excludes_later_events():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=5.0)
    assert fired == []
    sim.run(until=20.0)
    assert fired == [10.0]


def test_run_process_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    proc = sim.process(child())
    assert sim.run_process(proc) == "done"


def test_run_process_raises_on_failure():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("missing")

    def watcher(p):
        yield p  # keep it watched so run() does not crash first

    proc = sim.process(child())
    # run_process registers interest implicitly by stepping; the process
    # fails and run_process re-raises.
    with pytest.raises(KeyError):
        sim.run_process(proc)


def test_run_process_detects_deadlock():
    sim = Simulator()
    gate = sim.event()  # never triggered

    def stuck():
        yield gate

    proc = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc)


def test_step_on_empty_schedule_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_nested_processes_compose():
    sim = Simulator()
    trace = []

    def leaf(tag, delay):
        yield sim.timeout(delay)
        trace.append(tag)
        return delay

    def mid():
        a = yield sim.process(leaf("a", 1.0))
        b = yield sim.process(leaf("b", 2.0))
        return a + b

    def root():
        total = yield sim.process(mid())
        trace.append(total)

    sim.process(root())
    sim.run()
    assert trace == ["a", "b", 3.0]
    assert sim.now == 3.0


# -- the fused event loop and the merged resume frame -------------------------
#
# The suite runs with the sanitizers on (tests/conftest.py), which takes
# the debug wake-up path; every test below runs both kernels explicitly.

both_kernels = pytest.mark.parametrize("debug", [False, True],
                                       ids=["fast", "debug"])


@both_kernels
def test_run_until_triggered_stops_right_after_the_trigger(debug):
    sim = Simulator(debug=debug)
    fired = []
    gate = sim.event()
    first = sim.timeout(1.0)
    first.add_callback(lambda _ev: fired.append("first"))
    first.add_callback(lambda _ev: gate.succeed("open"))
    later = sim.timeout(1.0)
    later.add_callback(lambda _ev: fired.append("later"))
    sim.timeout(2.0)
    sim.run_until_triggered(gate)
    assert gate.triggered and gate.value == "open"
    assert sim.now == 1.0
    # ``later`` is due at the same instant but was queued after the
    # event that triggered the gate: it stays queued, as does the gate's
    # own processing.
    assert fired == ["first"]
    assert not later.processed and not gate.processed
    assert sim.peek() == 1.0
    # An already-triggered target returns at once.
    sim.run_until_triggered(first)
    assert fired == ["first"]
    sim.run()
    assert fired == ["first", "later"] and sim.now == 2.0


@both_kernels
def test_run_until_triggered_on_drained_schedule_raises(debug):
    sim = Simulator(debug=debug)
    gate = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="never triggered"):
        sim.run_until_triggered(gate)
    assert sim.now == 1.0


@both_kernels
def test_run_until_triggered_reraises_unwatched_crash(debug):
    sim = Simulator(debug=debug)

    def crasher():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    sim.process(crasher())
    sim.timeout(5.0)
    with pytest.raises(KeyError):
        sim.run_until_triggered(sim.event())
    assert sim.now == 1.0  # raised at the crash, not at the drain


@both_kernels
def test_run_until_sets_now_and_keeps_later_events(debug):
    sim = Simulator(debug=debug)
    fired = []

    def proc():
        yield sim.timeout(1.0)
        fired.append(sim.now)
        yield sim.timeout(9.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=4.0)
    assert fired == [1.0] and sim.now == 4.0
    assert sim.peek() == 10.0
    sim.run(until=10.0)  # an event exactly at ``until`` fires
    assert fired == [1.0, 10.0] and sim.now == 10.0


@both_kernels
def test_run_process_until_reports_unfinished(debug):
    sim = Simulator(debug=debug)

    def slow():
        yield sim.timeout(10.0)
        return "late"

    proc = sim.process(slow())
    with pytest.raises(SimulationError, match="did not finish by t=5.0"):
        sim.run_process(proc, until=5.0)
    assert sim.now == 0.0 and sim.peek() == 10.0
    assert sim.run_process(proc) == "late"


@both_kernels
def test_interrupt_through_merged_resume(debug):
    sim = Simulator(debug=debug)
    log = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            log.append("timeout")
        except Interrupt as intr:
            log.append(("interrupt", sim.now, intr.cause))
        # The stale 10 s timeout must not wake this wait.
        yield sim.timeout(100.0)
        log.append(("second", sim.now))
        yield sim.timeout(1.0)  # killed here, unhandled

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt("first")
        yield sim.timeout(100.5)
        proc.interrupt("second")
        proc.interrupt("ignored: dead by then")

    sim.process(killer())
    sim.run()
    assert log == [("interrupt", 1.0, "first"), ("second", 101.0)]
    assert proc.triggered and proc.value is None


@both_kernels
def test_interrupt_queued_before_first_step(debug):
    sim = Simulator(debug=debug)
    log = []

    def proc_body():
        try:
            log.append("started")
            yield sim.timeout(5.0)
        except Interrupt as intr:
            log.append(intr.cause)

    proc = sim.process(proc_body())
    proc.interrupt("early")
    sim.run()
    # The bootstrap was scheduled first, so the process starts, then
    # takes the interrupt at the same instant.
    assert log == ["started", "early"] and sim.now == 5.0


@both_kernels
def test_resume_chains_through_processed_events(debug):
    sim = Simulator(debug=debug)
    done = [sim.timeout(0.0, value=i) for i in range(3)]
    got = []

    def waiter():
        yield sim.timeout(1.0)
        for ev in done:  # all processed long ago
            got.append((yield ev))
        got.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert got == [0, 1, 2, 1.0]


@both_kernels
def test_any_of_over_processed_child_triggers(debug):
    sim = Simulator(debug=debug)
    early = sim.timeout(0.0, value="early")
    sim.run()
    got = []

    def waiter():
        result = yield sim.any_of([early, sim.timeout(5.0)])
        got.append((sim.now, result[early]))

    sim.process(waiter())
    sim.run()
    assert got == [(0.0, "early")]


@both_kernels
def test_all_of_over_processed_children_triggers(debug):
    sim = Simulator(debug=debug)
    events = [sim.timeout(0.0, value=i) for i in range(2)]
    sim.run()
    cond = sim.all_of(events)
    sim.run_until_triggered(cond)
    assert cond.value.values() == [0, 1]


@both_kernels
def test_finished_process_is_freed_by_refcount(debug):
    sim = Simulator(debug=debug)

    def short():
        yield sim.timeout(1.0)
        return "done"

    def survivor():
        try:
            yield sim.timeout(50.0)  # left stale in the schedule
        except Interrupt:
            pass
        yield sim.timeout(1.0)

    gc.disable()
    try:
        proc = sim.process(short())
        interrupted = sim.process(survivor())
        assert sim.run_process(proc) == "done"
        interrupted.interrupt()
        sim.run_process(interrupted)
        sim.run()  # fires the stale timeout
        refs = [weakref.ref(proc), weakref.ref(interrupted)]
        del proc, interrupted
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
