"""The live admin plane: /metrics, /healthz, /debug/traces.

The admin server rides alongside the cache tiers on its own port
(docs/live.md): two idle ``/metrics`` scrapes are byte-identical on
the default config, ``/healthz`` flips 200 → 503 through the drain,
``/debug/traces`` returns span trees, an injected stall breaks the
live-health verdict, and the telemetry exports land even when the
serve loop dies mid-flight.
"""

import asyncio
import json

import pytest

from repro.core.annotations import CacheableSpec
from repro.engine.live import (
    LiveStack,
    LiveStackConfig,
    run_live,
    trace_payload,
)
from repro.engine.wallclock import STALL_THRESHOLD_MS, WallClock
from repro.telemetry.exposition import parse_exposition
from repro.telemetry.instruments import Counter, Gauge
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


# ----------------------------------------------------------------------
# Satellite: instruments pre-registered at construction
# ----------------------------------------------------------------------
def test_live_instruments_preregistered_before_any_traffic():
    async def _scenario():
        stack = LiveStack(WallClock())
        names = {i.name for i in stack.telemetry.instruments()}
        assert {"live.socket_errors", "live.request_timeouts",
                "live.in_flight", "live.tasks_active",
                "live.loop_stalls"} <= names
        assert isinstance(stack.telemetry.get("live.socket_errors"),
                          Counter)
        assert isinstance(stack.telemetry.get("live.loop_stalls"),
                          Counter)
        assert isinstance(stack.telemetry.get("live.in_flight"), Gauge)

    asyncio.run(_scenario())


# ----------------------------------------------------------------------
# Tentpole: the three endpoints over real loopback sockets
# ----------------------------------------------------------------------
def test_admin_endpoints_over_loopback():
    async def _scenario():
        engine = WallClock()
        # The default config but for the admin plane: nothing ticks on
        # an idle stack, so two scrapes match byte for byte.
        stack = LiveStack(engine, config=LiveStackConfig(metrics_port=0))
        stack.host_object(URL, 32 * 1024)
        endpoints = await stack.start()
        assert "admin/http" in endpoints
        admin = endpoints["admin/http"]
        client = stack.add_client("e2e")
        client.register_spec(CacheableSpec(url=URL, priority=2,
                                           ttl_s=120.0))
        try:
            await stack.fetch(client, URL)

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
            assert {"live.loop_stalls",
                    "live.socket_errors", "live.in_flight",
                    "client.total_ms"} <= sources

            status, body = await _admin_get(admin, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["ok"] is True
            assert health["state"] == "serving"
            assert health["endpoints"]["admin/http"] == list(admin)
            # The longest loop callback so far (the fetch's, or a
            # scrape's): timed, and short of a stall.
            assert 0.0 < health["longest_callback_ms"] < STALL_THRESHOLD_MS
            # The two scrapes so far; this one counts once answered.
            assert health["admin"] == {"requests_served": 2,
                                       "errors": 0}
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
        assert stack.admin.requests_served == 6
        assert stack.admin.errors == 0

    asyncio.run(_scenario())


def test_malformed_admin_request_is_counted_and_the_plane_still_answers():
    async def _scenario():
        engine = WallClock()
        stack = LiveStack(engine, config=LiveStackConfig(metrics_port=0))
        endpoints = await stack.start()
        admin = endpoints["admin/http"]
        try:
            host, port = admin
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\x00\x01 not an http request\r\n\r\n")
            await writer.drain()
            # The plane closes the connection without a reply.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            assert stack.admin.errors == 1
            assert stack.admin.requests_served == 0

            status, _body = await _admin_get(admin, "/metrics")
            assert status == 200
            assert stack.admin.requests_served == 1
            assert stack.admin.errors == 1
            # An admin error is not a socket error on the cache path.
            assert stack.telemetry.counter(
                "live.socket_errors").total() == 0
        finally:
            await stack.stop()
        engine.raise_unwaited()

    asyncio.run(_scenario())


def test_healthz_flips_503_through_the_drain():
    async def _scenario():
        engine = WallClock()
        stack = LiveStack(engine, config=LiveStackConfig(
            metrics_port=0, drain_grace_s=0.4))
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
# The injected stall, on the default config
# ----------------------------------------------------------------------
def test_run_live_inject_stall_feeds_the_budget_metrics(tmp_path):
    metrics = tmp_path / "metrics.jsonl"
    lines = []
    # Mid-run: the stall follows the demo's fetches.
    code = run_live(demo_requests=2, metrics_path=str(metrics),
                    inject_stall_ms=300.0, emit=lines.append)
    assert code == 1  # the stall broke a live-health bound
    records = [json.loads(line)
               for line in metrics.read_text().splitlines()]
    stall_counters = [record for record in records
                      if record["name"] == "live.loop_stalls"]
    assert [counter["value"] for counter in stall_counters] == [1.0]
    assert "live: injected a 300 ms loop stall (1 counted)" in lines
    assert any("health bound broken: live.loop_stalls" in line
               for line in lines)


# ----------------------------------------------------------------------
# Satellite: telemetry flushes on the failure path
# ----------------------------------------------------------------------
def test_mid_serve_fault_still_flushes_exports(tmp_path, monkeypatch):
    spans = tmp_path / "spans.jsonl"
    metrics = tmp_path / "metrics.jsonl"
    states = []
    set_state = LiveStack._set_state

    async def _boom(self, client, url):
        await asyncio.sleep(0)  # one loop turn: genuinely mid-serve
        raise RuntimeError("injected mid-serve fault")

    def _record_state(self, state):
        states.append(state)
        set_state(self, state)

    monkeypatch.setattr(LiveStack, "fetch", _boom)
    monkeypatch.setattr(LiveStack, "_set_state", _record_state)
    with pytest.raises(RuntimeError, match="injected mid-serve"):
        run_live(demo_requests=2, spans_path=str(spans),
                 metrics_path=str(metrics), emit=lambda line: None)
    # stop() ran in the finally and flushed both exports.
    assert metrics.exists() and spans.exists()
    records = [json.loads(line)
               for line in metrics.read_text().splitlines()]
    # The stack sets its task gauge at construction, so the flushed
    # export is non-trivial even though the demo died.
    assert any(record["name"] == "live.tasks_active"
               for record in records)
    assert states == ["serving", "draining", "stopped"]


# ----------------------------------------------------------------------
# `repro.cli live`: options reach the stack, fetches reach the spans
# ----------------------------------------------------------------------
def test_live_options_reach_run_live(monkeypatch, capsys):
    import repro.engine.live as live_module
    from repro.cli import main

    calls = []
    monkeypatch.setattr(live_module, "run_live",
                        lambda **kwargs: calls.append(kwargs) or 0)
    assert main(["live", "--requests", "3", "--serve", "--spans", "s",
                 "--export-metrics", "m", "--metrics-port", "0",
                 "--drain-grace-s", "0.5",
                 "--inject-stall-ms", "600"]) == 0
    assert calls == [dict(demo_requests=3, serve=True, spans_path="s",
                          metrics_path="m", metrics_port=0,
                          drain_grace_s=0.5, inject_stall_ms=600.0)]
    capsys.readouterr()


def test_each_demo_fetch_is_one_exported_request_trace(tmp_path):
    spans = tmp_path / "spans.jsonl"
    lines = []
    code = run_live(demo_requests=2, spans_path=str(spans),
                    emit=lines.append)
    assert code == 0
    records = [json.loads(line)
               for line in spans.read_text().splitlines()]
    roots = [record for record in records
             if record["name"] == "request"]
    assert len(roots) == 2
    assert len([line for line in lines
                if line.startswith("live: fetch ")]) == 2
    for root in roots:
        assert any(record["parent"] == root["span"]
                   and record["trace"] == root["trace"]
                   for record in records)


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
