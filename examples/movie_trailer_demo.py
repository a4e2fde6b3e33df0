#!/usr/bin/env python
"""MovieTrailer under all four caching systems (the paper's Fig. 12).

Runs the paper's motivating app — movie id lookup, then four concurrent
detail fetches — repeatedly under APE-CACHE, APE-CACHE-LRU, Wi-Cache,
and Edge Cache, printing mean and tail app-level latency per system.

Run:  python examples/movie_trailer_demo.py
"""

from repro.apps import AppRunner, movietrailer_app
from repro.baselines import all_systems
from repro.telemetry import percentile
from repro.testbed import Testbed, TestbedConfig

EXECUTIONS = 40


def run_system(system) -> list[float]:
    bed = Testbed(TestbedConfig(seed=7))
    system.install(bed)
    app = movietrailer_app()
    phone = bed.add_client("phone")
    fetcher = system.new_fetcher(bed, phone, app.app_id)
    for obj in app.objects:
        bed.host_object(obj.url, obj.size_bytes,
                        origin_delay_s=obj.origin_delay_s)
    runner = AppRunner(bed.sim, app, fetcher)

    latencies = []
    for index in range(EXECUTIONS):
        execution = bed.sim.run(until=bed.sim.process(runner.execute()))
        latencies.append(execution.latency_s * 1e3)
        # Users re-open the app every ~20 s; client DNS state ages out.
        bed.sim.run(until=bed.sim.now + 20.0)
    return latencies


def main() -> None:
    print(f"MovieTrailer, {EXECUTIONS} executions per system "
          "(first execution is the cold start)\n")
    print(f"{'system':15s} {'cold_ms':>8s} {'mean_ms':>8s} "
          f"{'p95_ms':>8s}")
    results = {}
    for system in all_systems():
        latencies = run_system(system)
        results[system.name] = latencies
        warm = latencies[1:]
        print(f"{system.name:15s} {latencies[0]:8.1f} "
              f"{sum(warm) / len(warm):8.1f} "
              f"{percentile(warm, 95):8.1f}")

    ape = results["APE-CACHE"][1:]
    edge = results["Edge Cache"][1:]
    reduction = 100 * (1 - (sum(ape) / len(ape)) /
                       (sum(edge) / len(edge)))
    print(f"\nAPE-CACHE cuts MovieTrailer's mean latency by "
          f"{reduction:.0f}% vs Edge Cache (paper: ~78%)")


if __name__ == "__main__":
    main()
