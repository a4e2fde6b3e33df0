"""Clock-seam contract: both engines honor the same process semantics.

Every scenario here is one generator-based program run twice — once on
the virtual-time :class:`Simulator`, once on the real-time
:class:`WallClock` — and the *observable trace* (completion order,
returned values, raised exceptions) must be identical.  Delays are
scaled per engine: whole virtual seconds in the simulator, a few
milliseconds on the wall clock, so the whole module stays well inside
the tier-1 time budget.

What is deliberately NOT asserted: same-instant tie-breaking.  The
simulator orders simultaneous events by (time, priority, sequence);
asyncio is FIFO-per-callback with no priority lane — the one
documented divergence (see :mod:`repro.engine.wallclock`).  Scenario
delays are therefore strictly distinct.
"""

import ast
import asyncio
import os
import pathlib
import subprocess
import sys

import pytest

from repro.engine.api import MS, Scheduler
from repro.engine.wallclock import WallClock
from repro.errors import SimulationError
from repro.net.address import IPv4Address
from repro.net.node import Node
from repro.sim.kernel import Simulator

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Wall-clock seconds per virtual second: 500x compression keeps the
#: largest scenario delay (6 units) at 12 ms of real time.
_WALL_SCALE = 0.002


def run_on_both(build):
    """Run ``build(engine, scale)``'s generator on both engines.

    Returns ``(sim_result, wall_result)`` — the generator's return
    value from each engine (exceptions propagate, as the contract
    demands on both sides).
    """
    sim = Simulator()
    sim_result = sim.run_process(build(sim, 1.0))

    async def _wall():
        engine = WallClock()
        return await engine.run_process(build(engine, _WALL_SCALE))

    wall_result = asyncio.run(_wall())
    return sim_result, wall_result


def test_both_engines_satisfy_the_scheduler_protocol():
    assert isinstance(Simulator(), Scheduler)

    async def _check():
        assert isinstance(WallClock(), Scheduler)

    asyncio.run(_check())


def test_timeout_ordering_is_delay_ordered_not_spawn_ordered():
    """Three processes with descending delays complete ascending."""

    def build(engine, scale):
        trace = []

        def sleeper(label, delay):
            yield engine.timeout(delay * scale)
            trace.append(label)

        def root():
            procs = [engine.process(sleeper("slow", 6)),
                     engine.process(sleeper("fast", 1)),
                     engine.process(sleeper("mid", 3))]
            yield engine.all_of(procs)
            return trace

        return root()

    sim_trace, wall_trace = run_on_both(build)
    assert sim_trace == ["fast", "mid", "slow"]
    assert wall_trace == ["fast", "mid", "slow"]


def test_processes_interleave_through_shared_events():
    """A ping-pong pair alternates deterministically on both engines."""

    def build(engine, scale):
        trace = []

        def player(label, hear, say, rounds):
            for n in range(rounds):
                value = yield hear[n]
                trace.append((label, value))
                if n < len(say):
                    say[n].succeed(f"{label}{n}")

        def root():
            to_ping = [engine.event() for _ in range(2)]
            to_pong = [engine.event() for _ in range(2)]
            ping = engine.process(
                player("ping", to_ping, to_pong, 2))
            pong = engine.process(
                player("pong", to_pong, to_ping[1:], 2))
            to_ping[0].succeed("serve")
            yield engine.all_of([ping, pong])
            return trace

        return root()

    sim_trace, wall_trace = run_on_both(build)
    expected = [("ping", "serve"), ("pong", "ping0"),
                ("ping", "pong0"), ("pong", "ping1")]
    assert sim_trace == expected
    assert wall_trace == expected


def test_all_of_collects_every_value_in_declaration_order():
    def build(engine, scale):
        def root():
            events = [engine.timeout(3 * scale, value="a"),
                      engine.timeout(1 * scale, value="b")]
            values = yield engine.all_of(events)
            return list(values.values())

        return root()

    sim_result, wall_result = run_on_both(build)
    assert sim_result == ["a", "b"]
    assert wall_result == ["a", "b"]


def test_process_failures_propagate_to_the_waiter_on_both_engines():
    def build(engine, scale):
        def boom():
            yield engine.timeout(1 * scale)
            raise ValueError("deliberate")

        def root():
            value = yield engine.process(boom())
            return value

        return root()

    sim = Simulator()
    with pytest.raises(ValueError, match="deliberate"):
        sim.run_process(build(sim, 1.0))

    async def _wall():
        engine = WallClock()
        await engine.run_process(build(engine, _WALL_SCALE))

    with pytest.raises(ValueError, match="deliberate"):
        asyncio.run(_wall())


def _consumed_events(engine):
    """A succeeded and a failed event, both awaited by one process."""
    done, failed = engine.event(), engine.event()

    def consume():
        yield done
        try:
            yield failed
        except ValueError:
            pass

    consumer = engine.process(consume())
    done.succeed("value")
    failed.fail(ValueError("deliberate"))
    return consumer, done, failed


def test_waiting_on_an_already_processed_event_returns_its_outcome():
    """`Simulator.run(until=)` and `WallClock.wait` on a processed event
    return its value, or re-raise its failure, without waiting."""
    sim = Simulator()
    consumer, done, failed = _consumed_events(sim)
    sim.run(until=consumer)
    assert done.processed and failed.processed
    assert sim.run(until=done) == "value"
    with pytest.raises(ValueError, match="deliberate"):
        sim.run(until=failed)

    async def _wall():
        engine = WallClock()
        consumer, done, failed = _consumed_events(engine)
        await engine.wait(consumer)
        assert done.processed and failed.processed
        assert await engine.wait(done) == "value"
        with pytest.raises(ValueError, match="deliberate"):
            await engine.wait(failed)

    asyncio.run(_wall())


def test_clock_advances_monotonically_across_yields():
    def build(engine, scale):
        def root():
            stamps = [engine.now]
            for _ in range(3):
                yield engine.timeout(1 * scale)
                stamps.append(engine.now)
            return stamps

        return root()

    for stamps in run_on_both(build):
        assert stamps == sorted(stamps)
        assert stamps[-1] > stamps[0]


def test_modelled_cpu_is_spent_on_the_simulator_and_charged_on_the_wall():
    """The cost effect: `occupy_cpu` advances virtual time (two holders
    of a one-slot CPU serialise; sojourn = wait + hold) but on the wall
    engine it is bookkeeping only — no timer, no sleep, sojourn 0."""
    address = IPv4Address("192.168.8.1")

    sim = Simulator()
    assert sim.spends_modelled_time
    router = Node(sim, "ap", address)

    def two_holders():
        first, second = router.occupy_cpu(0.5 * MS), router.occupy_cpu(0.2 * MS)
        sojourns = yield sim.all_of([first, second])
        return sojourns[first], sojourns[second]

    first, second = sim.run_process(two_holders())
    assert first == pytest.approx(0.5 * MS)
    assert second == pytest.approx(0.7 * MS)      # waited 0.5, held 0.2
    assert sim.now == pytest.approx(0.7 * MS)
    assert router.cpu.busy_time == pytest.approx(0.7 * MS)
    assert router.cpu.completed == 2

    async def _wall():
        engine = WallClock()
        assert not engine.spends_modelled_time
        loop = asyncio.get_running_loop()
        timers = []
        call_at = loop.call_at          # `call_later` lands here too
        loop.call_at = lambda *args, **kw: (timers.append(args),
                                            call_at(*args, **kw))[1]
        try:
            node = Node(engine, "ap", address)
            hold = node.occupy_cpu(0.5 * MS)
            # Still pending when it returns (bench/trace.py hooks in here).
            assert isinstance(hold.callbacks, list)
            assert node.cpu.busy_time == pytest.approx(0.5 * MS)
            assert node.cpu.completed == 1
            assert node.cpu.queue_length == 0
            await asyncio.sleep(0)      # one loop turn
            assert hold.processed and hold.value == 0.0

            def handler():
                started = engine.now
                sojourn = yield node.occupy_cpu(0.5)    # half a second
                return sojourn, engine.now - started

            sojourn, elapsed = await engine.run_process(handler())
            assert sojourn == 0.0 and elapsed < 0.25
            assert node.cpu.busy_time == pytest.approx(0.5 + 0.5 * MS)
            assert timers == []
        finally:
            del loop.call_at

    asyncio.run(_wall())


def test_wallclock_requires_a_running_loop():
    with pytest.raises(SimulationError):
        WallClock()


def test_wallclock_bridges_awaitables_into_events():
    """from_awaitable / wait round-trip: coroutine -> event -> value."""

    async def _scenario():
        engine = WallClock()

        async def produce():
            await asyncio.sleep(0.001)
            return "payload"

        def consumer():
            value = yield engine.from_awaitable(produce())
            return value

        return await engine.wait(engine.process(consumer()))

    assert asyncio.run(_scenario()) == "payload"


def test_wallclock_parks_unwaited_failures_for_later_raise():
    async def _scenario():
        engine = WallClock()

        def boom():
            yield engine.timeout(0.001)
            raise RuntimeError("unobserved")

        engine.process(boom())
        await asyncio.sleep(0.01)
        return engine

    engine = asyncio.run(_scenario())
    with pytest.raises(RuntimeError, match="unobserved"):
        engine.raise_unwaited()


# ----------------------------------------------------------------------
# The seam itself: what sits above it never names the simulator and
# reads nothing off an engine that the Scheduler base lacks
# ----------------------------------------------------------------------
def _modules_above_the_seam():
    package = _SRC / "repro"
    for layer in ("core", "cache", "dnslib", "httplib", "net"):
        yield from sorted((package / layer).glob("*.py"))
    for name in ("events", "resources", "wallclock", "livenet", "live"):
        yield package / "engine" / f"{name}.py"


def test_no_module_above_the_seam_imports_the_simulator():
    offenders = []
    for path in _modules_above_the_seam():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.relative_to(_SRC)}:{node.lineno} {name}"
                          for name in names
                          if name == "repro.sim"
                          or name.startswith("repro.sim.")]
    assert not offenders, offenders


def _engine_reads(tree):
    """Attribute names read off an engine handle: ``sim.X``,
    ``engine.X`` or ``<anything>.sim.X``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        handle = node.value
        if (isinstance(handle, ast.Name) and handle.id in ("sim", "engine")
                or isinstance(handle, ast.Attribute)
                and handle.attr == "sim"):
            yield node.lineno, node.attr


def test_components_read_only_the_scheduler_surface_off_an_engine():
    """A component reaching a simulator-only method would run in every
    experiment and crash on the live engine."""
    surface = (set(dir(Scheduler)) | set(Scheduler.__annotations__)
               | set(vars(Scheduler())))
    package = _SRC / "repro"
    read, offenders = set(), []
    for layer in ("core", "cache", "dnslib", "httplib", "net"):
        for path in sorted((package / layer).glob("*.py")):
            for lineno, name in _engine_reads(ast.parse(path.read_text())):
                read.add(name)
                if name not in surface:
                    offenders.append(
                        f"{path.relative_to(_SRC)}:{lineno} {name}")
    assert not offenders, offenders
    assert {"now", "process", "timeout"} <= read


def test_importing_the_live_stack_loads_no_graph_library():
    probe = ("import sys, repro.engine.live; "
             "sys.exit('networkx' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "networkx was imported"
