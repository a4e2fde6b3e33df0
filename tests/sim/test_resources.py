"""Tests for Resource and ServiceQueue."""

import pytest

from repro.errors import SimulationError
from repro.engine.resources import Resource, ServiceQueue
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Resource
# ----------------------------------------------------------------------
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first = resource.request()
    second = resource.request()
    third = resource.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert resource.in_use == 2
    assert resource.queue_length == 1


def test_resource_fifo_handoff():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        request = resource.request()
        yield request
        order.append(f"{tag}-start")
        yield sim.timeout(hold)
        resource.release(request)
        order.append(f"{tag}-end")

    sim.process(worker("a", 2.0))
    sim.process(worker("b", 1.0))
    sim.process(worker("c", 1.0))
    sim.run()
    assert order == ["a-start", "a-end", "b-start", "b-end",
                     "c-start", "c-end"]


def test_resource_release_unknown_request_rejected():
    sim = Simulator()
    resource = Resource(sim)
    with pytest.raises(SimulationError):
        resource.release(sim.event())


def test_resource_cancel_waiting_request():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    held = resource.request()
    waiting = resource.request()
    resource.release(waiting)  # cancels the queued request
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.in_use == 0


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


# ----------------------------------------------------------------------
# ServiceQueue
# ----------------------------------------------------------------------
def test_service_queue_serializes_work():
    sim = Simulator()
    queue = ServiceQueue(sim, capacity=1)

    def submit():
        jobs = [queue.use(1.0) for _ in range(3)]
        yield sim.all_of(jobs)
        return sim.now

    assert sim.run_process(submit()) == pytest.approx(3.0)
    assert queue.completed == 3
    assert queue.busy_time == pytest.approx(3.0)


def test_service_queue_parallel_capacity():
    sim = Simulator()
    queue = ServiceQueue(sim, capacity=3)

    def submit():
        jobs = [queue.use(1.0) for _ in range(3)]
        yield sim.all_of(jobs)
        return sim.now

    assert sim.run_process(submit()) == pytest.approx(1.0)


def test_service_queue_sojourn_includes_wait():
    sim = Simulator()
    queue = ServiceQueue(sim, capacity=1)

    def submit():
        first = queue.use(2.0)
        second = queue.use(1.0)
        results = yield sim.all_of([first, second])
        return results[second]

    # The second job waits 2 s, then runs 1 s: sojourn 3 s.
    assert sim.run_process(submit()) == pytest.approx(3.0)


def test_service_queue_utilization():
    sim = Simulator()
    queue = ServiceQueue(sim, capacity=2)

    def submit():
        yield queue.use(4.0)

    sim.run_process(submit())
    assert queue.utilization(elapsed=4.0) == pytest.approx(0.5)
    assert queue.utilization(elapsed=0.0) == 0.0
