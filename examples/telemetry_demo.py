#!/usr/bin/env python
"""Telemetry demo: watch one request cross the DNS→AP→edge path.

Builds an instrumented testbed, installs APE-CACHE, fetches two
objects twice, and then reads everything the unified observability
layer captured: the per-request span trees (cold delegation vs warm
hit), the per-stage latency histograms, and the deterministic JSONL
export the regression tests hash.

Run:  python examples/telemetry_demo.py
"""

from repro.baselines import ApeCacheSystem
from repro.core.annotations import CacheableSpec
from repro.sim import HOUR
from repro.telemetry import spans_to_jsonl
from repro.telemetry.obs import stage_table
from repro.testbed import Testbed, TestbedConfig

URLS = ("http://demo.example/manifest", "http://demo.example/poster")


def build_and_run(seed: int = 42) -> Testbed:
    """An instrumented APE-CACHE run: two objects, fetched twice."""
    bed = Testbed(TestbedConfig(seed=seed, enable_telemetry=True))
    system = ApeCacheSystem()
    system.install(bed)
    phone = bed.add_client("phone")
    fetcher = system.new_fetcher(bed, phone, "demoapp")
    for url in URLS:
        bed.host_object(url, 16 * 1024, origin_delay_s=0.030)
        fetcher.register_spec(CacheableSpec(url, 2, 1 * HOUR))

    def fetch_everything_twice():
        for round_name in ("cold", "warm"):
            for url in URLS:
                result = yield from fetcher.fetch(url)
                print(f"  [{round_name}] {url.rsplit('/', 1)[-1]:9s} "
                      f"source={result.source:13s} "
                      f"total={result.total_latency_s * 1e3:6.2f}ms")

    bed.sim.run(until=bed.sim.process(fetch_everything_twice()))
    return bed


def main() -> None:
    print("fetching (cold round delegates to the edge, warm round "
          "hits the AP):")
    bed = build_and_run()
    telemetry = bed.telemetry

    # 1. Spans: every request is a trace tree, stitched across the
    #    client and AP tiers by the zero-cost x-ape-trace header.
    requests = telemetry.spans.finished("request")
    cold, warm = requests[0], requests[-1]
    print(f"\ncold request trace (#{cold.trace_id}):")
    print(telemetry.spans.render_trace(cold.trace_id))
    print(f"\nwarm request trace (#{warm.trace_id}):")
    print(telemetry.spans.render_trace(warm.trace_id))

    # 2. Instruments: labelled histograms, read through the obs panel.
    print("\ninstrument snapshot (per-stage latency histograms):")
    print(stage_table(telemetry).render())

    # 3. Exports: deterministic JSONL — same seed, same bytes.
    dump = spans_to_jsonl(telemetry)
    print(f"\nJSONL export: {len(dump.splitlines())} span records, "
          f"{len(dump)} bytes (byte-identical across same-seed runs)")


if __name__ == "__main__":
    main()
