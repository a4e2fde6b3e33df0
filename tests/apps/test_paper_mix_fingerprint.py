"""The paper's §V-A mix on the sim engine repeats itself exactly.

This is the ``sim_paper_mix`` benchmark workload's repetition (see
``bench/README.md``), rebuilt from the library's own API: the 30-app
suite the experiments use, 300 virtual seconds, seed 1, telemetry on.
Virtual time charges modelled costs only, so a change that makes the
request path faster but keeps its behaviour leaves every number below
byte-identical; a change that moves one event or one latency does not.
"""

import hashlib

from repro.apps.workload import Workload, WorkloadConfig
from repro.baselines.ape import ApeCacheSystem
from repro.testbed import TestbedConfig

#: Fetches, kernel events and the SHA-256 of ``repr`` of the fetch
#: latencies in ms, in completion order.
FETCHES = 3131
EVENTS = 87372
LATENCIES_SHA256 = (
    "61b7edcec884ba587a39012313b979ad74ae9511d20c6b18485827ffceecf4c8")


def paper_mix(seed):
    return WorkloadConfig(
        n_apps=30, avg_frequency_per_min=3.0, zipf_exponent=0.8,
        duration_s=300.0, seed=seed,
        testbed=TestbedConfig(enable_telemetry=True))


def test_paper_mix_repeats_its_fingerprint():
    workload = Workload(paper_mix(seed=1))
    # The app suite is always the experiments' one (seed 0); the seed
    # drives arrivals and link jitter.
    workload.apps = Workload(paper_mix(seed=0)).apps
    beds = []

    def keep_testbed(bed, _system):
        beds.append(bed)
        return
        yield

    result = workload.run(ApeCacheSystem(), extra_processes=[keep_testbed])
    latencies_ms = [record.result.total_latency_s * 1e3
                    for record in result.fetches]
    assert len(latencies_ms) == FETCHES
    assert beds[0].sim.events_processed == EVENTS
    assert hashlib.sha256(repr(latencies_ms).encode("utf-8")).hexdigest() \
        == LATENCIES_SHA256
