"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import MS, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.5)


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(0.1, value="payload")
        return got

    assert sim.run_process(proc()) == "payload"


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
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


def test_simultaneous_events_fifo_within_same_time():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(waiter(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_process_waits_on_other_process():
    sim = Simulator()

    def inner():
        yield sim.timeout(2.0)
        return 42

    def outer():
        result = yield sim.process(inner())
        return (sim.now, result)

    assert sim.run_process(outer()) == (2.0, 42)


def test_run_until_time_stops_early():
    sim = Simulator()
    seen = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            seen.append(sim.now)

    sim.process(ticker())
    sim.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]
    assert sim.now == pytest.approx(3.5)


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc():
        timeouts = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        results = yield sim.all_of(timeouts)
        return (sim.now, sorted(results.values()))

    now, values = sim.run_process(proc())
    assert now == pytest.approx(3.0)
    assert values == [1.0, 2.0, 3.0]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def proc():
        results = yield sim.all_of([])
        return (sim.now, results)

    assert sim.run_process(proc()) == (0.0, {})


def test_wide_all_of_observes_components_linearly():
    # Regression: AllOf._observe used to recount every component on
    # every trigger, making a wide AllOf quadratic in its event count.
    # The component list must now be scanned only to build the final
    # payload, not once per component trigger.
    sim = Simulator()
    n = 1000
    timeouts = [sim.timeout(float(i % 7) + 1.0, value=i)
                for i in range(n)]
    condition = sim.all_of(timeouts)

    class CountingList(list):
        iterations = 0

        def __iter__(self):
            type(self).iterations += 1
            return super().__iter__()

    condition._events = CountingList(condition._events)

    def proc():
        results = yield condition
        return results

    results = sim.run_process(proc())
    assert len(results) == n
    assert sorted(results.values()) == list(range(n))
    assert CountingList.iterations <= 2


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield sim.process(failing())
        return "caught"

    assert sim.run_process(waiter()) == "caught"


def test_unhandled_process_exception_surfaces_from_run():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(failing())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def bad():
        yield "not an event"

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_event_succeed_twice_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_manual_event_wakes_waiter():
    sim = Simulator()
    gate = sim.event()

    def opener():
        yield sim.timeout(4.0)
        gate.succeed("open")

    def waiter():
        value = yield gate
        return (sim.now, value)

    sim.process(opener())
    assert sim.run_process(waiter()) == (4.0, "open")


def test_run_with_no_events_and_time_horizon():
    sim = Simulator()
    sim.run(until=5.0)
    assert sim.now == pytest.approx(5.0)


def test_ms_constant():
    assert 20 * MS == pytest.approx(0.020)
