"""The evaluation workload driver (paper Section V-A "Apps and Execution").

Builds the app suite (two real apps + synthesized dummy apps), deploys a
caching system on a fresh testbed, hosts every object, and drives app
executions with Zipf-skewed popularity: per-app execution rates are
proportional to ``1/rank^s`` and scaled so the *average* rate across apps
matches the configured frequency (3 executions/min in the paper).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.executor import AppExecution, AppRunner
from repro.apps.generator import DummyAppParams, generate_apps
from repro.apps.model import AppSpec
from repro.apps.movietrailer import movietrailer_app
from repro.apps.virtualhome import virtualhome_app
from repro.baselines.base import CachingSystem
from repro.core.client_runtime import FetchResult
from repro.errors import ConfigError
from repro.sim.kernel import HOUR
from repro.sim.randomness import ZipfSampler
from repro.telemetry.instruments import percentile
from repro.testbed import Testbed, TestbedConfig

__all__ = ["WorkloadConfig", "WorkloadResult", "Workload", "FetchRecord",
           "zipf_rates"]


def zipf_rates(n_apps: int, zipf_exponent: float,
               avg_frequency_per_min: float) -> list[float]:
    """Per-app execution rates (per second), Zipf-skewed by rank,
    averaging to ``avg_frequency_per_min`` across apps."""
    sampler = ZipfSampler(n_apps, zipf_exponent)
    weights = [sampler.probability(rank)
               for rank in range(1, n_apps + 1)]
    total_per_min = avg_frequency_per_min * n_apps
    return [(total_per_min * weight) / 60.0 for weight in weights]


@dataclasses.dataclass
class WorkloadConfig:
    """Parameters of one evaluation run."""

    #: Total number of apps (paper default: 30 = 2 real + 28 dummies).
    n_apps: int = 30
    #: Whether MovieTrailer and VirtualHome are part of the suite.
    include_real_apps: bool = True
    #: Average app execution frequency, per minute, across all apps.
    avg_frequency_per_min: float = 3.0
    #: Zipf exponent for app popularity skew.
    zipf_exponent: float = 0.8
    #: Simulated duration of the run (paper: one hour).
    duration_s: float = 1 * HOUR
    #: Dummy-app attribute ranges.
    dummy_params: DummyAppParams = dataclasses.field(
        default_factory=DummyAppParams)
    #: Testbed shape.
    testbed: TestbedConfig = dataclasses.field(default_factory=TestbedConfig)
    #: Master seed.
    seed: int = 0

    def __post_init__(self) -> None:
        minimum = 2 if self.include_real_apps else 1
        if self.n_apps < minimum:
            raise ConfigError(f"n_apps must be >= {minimum}")
        if self.avg_frequency_per_min <= 0:
            raise ConfigError("avg frequency must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")


@dataclasses.dataclass
class FetchRecord:
    """One object fetch with its app context."""

    app_id: str
    object_name: str
    priority: int
    result: FetchResult


class WorkloadResult:
    """Everything the experiments need from one run."""

    def __init__(self, system_name: str, config: WorkloadConfig) -> None:
        self.system_name = system_name
        self.config = config
        self.executions: list[AppExecution] = []
        self.fetches: list[FetchRecord] = []
        self.ap_stats: dict[str, float] = {}

    # -- app-level ------------------------------------------------------
    def app_latencies_s(self, app_id: str | None = None) -> list[float]:
        return [execution.latency_s for execution in self.executions
                if app_id is None or execution.app_id == app_id]

    def mean_app_latency_s(self, app_id: str | None = None) -> float:
        latencies = self.app_latencies_s(app_id)
        if not latencies:
            raise ConfigError("no executions recorded")
        return sum(latencies) / len(latencies)

    def tail_app_latency_s(self, app_id: str | None = None,
                           q: float = 95.0) -> float:
        return percentile(self.app_latencies_s(app_id), q)

    # -- object-level ---------------------------------------------------
    def mean_lookup_s(self) -> float:
        return self._mean(record.result.lookup_latency_s
                          for record in self.fetches)

    def mean_retrieval_s(self) -> float:
        return self._mean(record.result.retrieval_latency_s
                          for record in self.fetches)

    def mean_object_latency_s(self) -> float:
        return self._mean(record.result.total_latency_s
                          for record in self.fetches)

    def hit_ratio(self, only_high_priority: bool = False) -> float:
        relevant = [record for record in self.fetches
                    if not only_high_priority or record.priority >= 2]
        if not relevant:
            return 0.0
        hits = sum(1 for record in relevant if record.result.cache_hit)
        return hits / len(relevant)

    @staticmethod
    def _mean(values: _t.Iterable[float]) -> float:
        collected = list(values)
        if not collected:
            raise ConfigError("no fetches recorded")
        return sum(collected) / len(collected)

    def summary(self) -> dict[str, float]:
        return {
            "executions": float(len(self.executions)),
            "fetches": float(len(self.fetches)),
            "mean_app_latency_ms": self.mean_app_latency_s() * 1e3,
            "p95_app_latency_ms": self.tail_app_latency_s() * 1e3,
            "mean_lookup_ms": self.mean_lookup_s() * 1e3,
            "mean_retrieval_ms": self.mean_retrieval_s() * 1e3,
            "mean_object_latency_ms": self.mean_object_latency_s() * 1e3,
            "hit_ratio": self.hit_ratio(),
            "hit_ratio_high_priority": self.hit_ratio(
                only_high_priority=True),
        }


class Workload:
    """Builds the app suite and runs it against caching systems."""

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        self.apps = self._build_apps()

    def _build_apps(self) -> list[AppSpec]:
        cfg = self.config
        apps: list[AppSpec] = []
        if cfg.include_real_apps:
            apps.append(movietrailer_app())
            apps.append(virtualhome_app())
        dummy_count = cfg.n_apps - len(apps)
        apps.extend(generate_apps(dummy_count, seed=cfg.seed,
                                  params=cfg.dummy_params))
        return apps

    def run(self, system: CachingSystem,
            extra_processes: _t.Sequence[
                _t.Callable[[Testbed, CachingSystem],
                            _t.Generator[object, object, object]]] = (),
            ) -> WorkloadResult:
        """Execute the configured workload against ``system``.

        ``extra_processes`` are generator factories started alongside the
        app drivers — probes (Fig. 11) and resource samplers (Fig. 14)
        hook in here without perturbing the workload itself.
        """
        cfg = self.config
        bed = Testbed(dataclasses.replace(cfg.testbed, seed=cfg.seed))
        system.install(bed)
        result = WorkloadResult(system.name, cfg)

        rates = self._per_app_rates()
        for app, rate_per_s in zip(self.apps, rates):
            node = bed.add_client(f"client-{app.app_id}")
            fetcher = system.new_fetcher(bed, node, app.app_id)
            runner = AppRunner(bed.sim, app, fetcher)
            for obj in app.objects:
                bed.host_object(obj.url, obj.size_bytes,
                                origin_delay_s=obj.origin_delay_s)
            bed.sim.process(self._drive(bed, app, runner, rate_per_s,
                                        result))
        for factory in extra_processes:
            bed.sim.process(factory(bed, system))
        bed.run(until=cfg.duration_s)
        result.ap_stats = system.ap_cache_stats()
        self._last_bed = bed
        return result

    def _per_app_rates(self) -> list[float]:
        return zipf_rates(len(self.apps), self.config.zipf_exponent,
                          self.config.avg_frequency_per_min)

    def _drive(self, bed: Testbed, app: AppSpec, runner: AppRunner,
               rate_per_s: float, result: WorkloadResult,
               ) -> _t.Generator[object, object, None]:
        rng = bed.streams.stream(f"arrivals:{app.app_id}")
        priorities = {obj.name: obj.priority for obj in app.objects}
        while True:
            yield bed.sim.timeout(rng.expovariate(rate_per_s))
            execution = yield bed.sim.process(runner.execute())
            typed = _t.cast(AppExecution, execution)
            result.executions.append(typed)
            for name, fetch in typed.fetches.items():
                result.fetches.append(FetchRecord(
                    app.app_id, name, priorities[name], fetch))

    def total_object_bytes(self) -> int:
        return sum(app.total_bytes() for app in self.apps)
