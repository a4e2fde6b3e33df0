"""The live admin plane: /metrics, /healthz, /debug/traces, watchdog.

Acceptance for the observability PR (docs/live.md): the admin server
rides alongside the cache tiers on its own port, two idle ``/metrics``
scrapes are byte-identical, ``/healthz`` flips 200 → 503 through the
drain, ``/debug/traces`` returns span trees, the event-loop lag
watchdog counts injected stalls, and the telemetry exports land even
when the serve loop dies mid-flight.
"""

import asyncio
import json
import time

import pytest

from repro.core.annotations import CacheableSpec
from repro.engine.live import (
    LiveStack,
    LiveStackConfig,
    run_live,
    trace_payload,
)
from repro.engine.wallclock import LoopLagWatchdog, WallClock
from repro.errors import SimulationError
from repro.telemetry.exposition import parse_exposition
from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.registry import Telemetry

URL = "http://admin-e2e.example/obj.bin"


async def _admin_get(endpoint, path):
    """One raw connection-close GET; returns (status, body bytes)."""
    host, port = endpoint
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\n"
                 f"host: {host}:{port}\r\n\r\n".encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass
    head, _sep, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    return status, body


def _quiet_config(**overrides) -> LiveStackConfig:
    """Admin plane on, watchdog slow enough that idle scrapes match."""
    defaults = dict(metrics_port=0, watchdog_interval_s=30.0)
    defaults.update(overrides)
    return LiveStackConfig(**defaults)


# ----------------------------------------------------------------------
# Satellite: instruments pre-registered at construction
# ----------------------------------------------------------------------
def test_live_instruments_preregistered_before_any_traffic():
    async def _scenario():
        stack = LiveStack(WallClock())
        names = {i.name for i in stack.telemetry.instruments()}
        assert {"live.socket_errors", "live.request_timeouts",
                "live.in_flight", "live.tasks_active",
                "live.loop_lag_ms", "live.loop_stalls"} <= names
        assert isinstance(stack.telemetry.get("live.socket_errors"),
                          Counter)
        assert isinstance(stack.telemetry.get("live.in_flight"), Gauge)
        assert isinstance(stack.telemetry.get("live.loop_lag_ms"),
                          Histogram)

    asyncio.run(_scenario())


# ----------------------------------------------------------------------
# Tentpole: the three endpoints over real loopback sockets
# ----------------------------------------------------------------------
def test_admin_endpoints_over_loopback():
    async def _scenario():
        engine = WallClock()
        stack = LiveStack(engine, config=_quiet_config())
        stack.host_object(URL, 32 * 1024)
        endpoints = await stack.start()
        assert "admin/http" in endpoints
        admin = endpoints["admin/http"]
        client = stack.add_client("e2e")
        client.register_spec(CacheableSpec(url=URL, priority=2,
                                           ttl_s=120.0))
        try:
            await stack.fetch(client, URL)
            # Let the immediate first watchdog probe land.
            await asyncio.sleep(0.01)

            status, first = await _admin_get(admin, "/metrics")
            assert status == 200
            status, second = await _admin_get(admin, "/metrics")
            assert status == 200
            assert first == second, \
                "two idle /metrics scrapes must be byte-identical"
            families = parse_exposition(first.decode("utf-8"))
            names = [family.name for family in families]
            assert names == sorted(names)
            sources = {family.source for family in families}
            assert {"live.loop_lag_ms", "live.loop_stalls",
                    "live.socket_errors", "live.in_flight",
                    "client.total_ms"} <= sources

            status, body = await _admin_get(admin, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["ok"] is True
            assert health["state"] == "serving"
            assert health["endpoints"]["admin/http"] == list(admin)
            assert health["watchdog"]["probes"] >= 1
            assert health["watchdog"]["stalls"] == 0
            # State the request path keeps as plain attributes, read
            # at scrape time.  One delegated fetch so far: the AP's
            # DNS-Cache search and its HTTP service were charged
            # (never slept) as modelled CPU.
            assert set(health["modelled_cpu_s"]) == {
                "ap", "updns", "edge", "origin"}
            assert health["modelled_cpu_s"]["ap"] == \
                pytest.approx(stack.ap.cpu.busy_time)
            assert health["modelled_cpu_s"]["ap"] > 0.0
            assert health["spans"] == {
                "retained": len(stack.telemetry.spans),
                "capacity": 8192, "dropped": 0}
            # client -> AP and AP -> edge stay open; so do the UDP
            # sockets client -> AP and AP -> upstream DNS.
            assert health["connections"] == {
                "tcp_open": 2, "tcp_connects": 2, "tcp_reuses": 0,
                "udp_sockets": 2}

            status, body = await _admin_get(admin, "/debug/traces?n=2")
            assert status == 200
            doc = json.loads(body)
            assert doc["limit"] == 2
            assert doc["total_traces"] >= 1
            root = doc["traces"][0]["root"]
            assert root["name"] == "request"
            child_names = {child["name"] for child in root["children"]}
            assert "dns_piggyback" in child_names

            status, body = await _admin_get(admin, "/nope")
            assert status == 404
            assert json.loads(body)["paths"] == [
                "/metrics", "/healthz", "/debug/traces"]

            # Admin traffic observes without perturbing: one more
            # scrape still matches the first bytes.
            status, third = await _admin_get(admin, "/metrics")
            assert third == first
        finally:
            await stack.stop()
        engine.raise_unwaited()
        assert stack.log.records(event="admin_request")

    asyncio.run(_scenario())


def test_healthz_flips_503_through_the_drain():
    async def _scenario():
        engine = WallClock()
        stack = LiveStack(engine,
                          config=_quiet_config(drain_grace_s=0.4))
        endpoints = await stack.start()
        admin = endpoints["admin/http"]
        status, _body = await _admin_get(admin, "/healthz")
        assert status == 200

        stopper = asyncio.ensure_future(stack.stop())
        await asyncio.sleep(0.1)
        status, body = await _admin_get(admin, "/healthz")
        assert status == 503
        draining = json.loads(body)
        assert draining["state"] == "draining"
        assert draining["ok"] is False
        await stopper
        assert stack.state == "stopped"
        with pytest.raises(OSError):
            await _admin_get(admin, "/healthz")

    asyncio.run(_scenario())


def test_no_admin_plane_without_metrics_port():
    async def _scenario():
        stack = LiveStack(WallClock())
        endpoints = await stack.start()
        try:
            assert "admin/http" not in endpoints
            assert stack.admin.endpoint is None
        finally:
            await stack.stop()

    asyncio.run(_scenario())


# ----------------------------------------------------------------------
# Tentpole: the event-loop lag watchdog
# ----------------------------------------------------------------------
def test_watchdog_counts_a_blocked_loop():
    async def _scenario():
        telemetry = Telemetry()
        lag = telemetry.histogram("live.loop_lag_ms")
        stalls = telemetry.counter("live.loop_stalls")
        seen = []
        watchdog = LoopLagWatchdog(
            asyncio.get_running_loop(), lag, stalls,
            interval_s=0.05, stall_threshold_ms=50.0,
            on_stall=seen.append)
        watchdog.start()
        await asyncio.sleep(0.01)  # the immediate first probe
        assert watchdog.probes >= 1
        assert watchdog.stalls == 0
        # Block the loop well past the threshold (tests are outside
        # the ASYNC101 scan scope; src uses the blessed _block_loop).
        time.sleep(0.2)
        await asyncio.sleep(0.06)  # the overdue probe fires now
        watchdog.stop()
        assert watchdog.stalls >= 1
        assert stalls.value() >= 1
        assert lag.summary()["max"] >= 50.0
        assert seen and seen[0] >= 50.0
        probes = watchdog.probes
        await asyncio.sleep(0.12)
        assert watchdog.probes == probes, "stop() must halt probing"

    asyncio.run(_scenario())


def test_watchdog_start_is_idempotent_and_validates_interval():
    async def _scenario():
        telemetry = Telemetry()
        watchdog = LoopLagWatchdog(
            asyncio.get_running_loop(),
            telemetry.histogram("lag"), telemetry.counter("stalls"),
            interval_s=5.0)
        watchdog.start()
        watchdog.start()
        assert watchdog.running
        watchdog.stop()
        assert not watchdog.running
        with pytest.raises(SimulationError):
            LoopLagWatchdog(asyncio.get_running_loop(),
                            telemetry.histogram("lag"),
                            telemetry.counter("stalls"), interval_s=0.0)

    asyncio.run(_scenario())


def test_run_live_inject_stall_feeds_the_budget_metrics(tmp_path):
    metrics = tmp_path / "metrics.jsonl"
    lines = []
    code = run_live(demo_requests=0, metrics_path=str(metrics),
                    watchdog_interval_s=0.05, inject_stall_ms=300.0,
                    emit=lines.append)
    assert code == 1  # the stall broke a live-health bound
    records = [json.loads(line)
               for line in metrics.read_text().splitlines()]
    stall_counters = [record for record in records
                      if record["name"] == "live.loop_stalls"]
    assert stall_counters and stall_counters[0]["value"] >= 1
    lag = [record for record in records
           if record["name"] == "live.loop_lag_ms"]
    assert lag and lag[0]["summary"]["max"] >= 250.0
    assert any("injected a 300 ms loop stall" in line
               for line in lines)
    assert any("health bound broken: live.loop_stalls" in line
               for line in lines)


# ----------------------------------------------------------------------
# Satellite: telemetry flushes on the failure path
# ----------------------------------------------------------------------
def test_mid_serve_fault_still_flushes_exports(tmp_path, monkeypatch):
    spans = tmp_path / "spans.jsonl"
    metrics = tmp_path / "metrics.jsonl"
    logs = tmp_path / "live.jsonl"

    async def _boom(self, client, url):
        await asyncio.sleep(0)  # one loop turn: genuinely mid-serve
        raise RuntimeError("injected mid-serve fault")

    monkeypatch.setattr(LiveStack, "fetch", _boom)
    with pytest.raises(RuntimeError, match="injected mid-serve"):
        run_live(demo_requests=2, spans_path=str(spans),
                 metrics_path=str(metrics), logs_path=str(logs),
                 emit=lambda line: None)
    # stop() ran in the finally and flushed all three exports.
    assert metrics.exists() and spans.exists() and logs.exists()
    records = [json.loads(line)
               for line in metrics.read_text().splitlines()]
    # The watchdog's immediate first probe always lands one sample, so
    # the flushed export is non-trivial even though the demo died.
    assert any(record["name"] == "live.loop_lag_ms"
               for record in records)
    events = [json.loads(line)
              for line in logs.read_text().splitlines()]
    states = [event["state"] for event in events
              if event["event"] == "lifecycle"]
    assert states == ["starting", "serving", "draining", "stopped"]


# ----------------------------------------------------------------------
# Tentpole: trace-correlated structured logs
# ----------------------------------------------------------------------
def test_fetch_logs_carry_the_trace_id(tmp_path):
    logs = tmp_path / "live.jsonl"
    spans = tmp_path / "spans.jsonl"
    code = run_live(demo_requests=2, logs_path=str(logs),
                    spans_path=str(spans), emit=lambda line: None)
    assert code == 0
    events = [json.loads(line)
              for line in logs.read_text().splitlines()]
    fetches = [event for event in events if event["event"] == "fetch"]
    assert len(fetches) == 2
    span_records = [json.loads(line)
                    for line in spans.read_text().splitlines()]
    trace_ids = {record["trace"] for record in span_records}
    for fetch in fetches:
        trace, _dot, _span = fetch["trace"].partition(".")
        assert int(trace) in trace_ids, \
            "a fetch log line must grep to its exported trace"


def test_trace_payload_ranks_errors_first_then_slowest():
    now = {"t": 0.0}
    telemetry = Telemetry(clock=lambda: now["t"])
    with telemetry.spans.span("request") as fast:
        fast.set_attr("which", "fast")
    with telemetry.spans.span("request") as slow:
        slow.set_attr("which", "slow")
        now["t"] = 10.0  # stretch the slow trace
    with telemetry.spans.span("request") as bad:
        bad.status = "error:injected"
    doc = trace_payload(telemetry, limit=2)
    assert doc["total_traces"] == 3
    assert [trace["status"] for trace in doc["traces"]] \
        == ["error", "ok"]
    assert doc["traces"][1]["root"]["attrs"]["which"] == "slow"
