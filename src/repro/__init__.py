"""APE-CACHE: millisecond-level edge caching on WiFi access points.

A complete, simulation-based reproduction of "Edge Cache on WiFi Access
Points: Millisecond-Level App Latency Almost for Free" (ICDCS 2024).

Subpackages
-----------
``repro.sim``
    Discrete-event kernel: virtual clock, event heap, randomness.
``repro.net``
    Simulated internetwork: addresses, links, routing, UDP/TCP.
``repro.dnslib``
    DNS wire codec (incl. the custom DNS-Cache RR), zones, servers.
``repro.httplib``
    URLs, HTTP messages, origin/edge servers, interceptor client.
``repro.cache``
    Cache store, eviction policies, fairness, knapsack, **PACM**.
``repro.core``
    The paper's contribution: programming model, AP + client runtimes.
``repro.baselines``
    Edge Cache, Wi-Cache, APE-CACHE-LRU behind one interface.
``repro.apps``
    App DAG model, MovieTrailer, VirtualHome, generator, workload.
``repro.measurement``
    Akamai study (Table I), traffic replay (Fig. 2), overhead (Fig. 14).
``repro.experiments``
    One runnable module per paper table/figure, plus ablations.

Quickstart
----------
>>> from repro.core import ApRuntime, ClientRuntime, CacheableSpec
>>> from repro.testbed import Testbed
>>> bed = Testbed()
>>> ApRuntime(bed.ap, bed.transport, bed.ldns.address).install()
>>> phone = bed.add_client()
>>> client = ClientRuntime(phone, bed.transport, bed.ap.address)
>>> client.register_spec(CacheableSpec("http://a.example/obj", 2, 600.0))
>>> _ = bed.host_object("http://a.example/obj", 4096)
>>> result = bed.sim.run(
...     until=bed.sim.process(client.fetch("http://a.example/obj")))
>>> result.source
'ap-delegated'
"""

from repro._version import __version__
from repro.core import (
    HIGH_PRIORITY,
    LOW_PRIORITY,
    ApeCacheConfig,
    ApRuntime,
    CacheableSpec,
    CacheFlag,
    ClientRuntime,
    FetchResult,
    cacheable,
    scan_cacheables,
)
from repro.testbed import Testbed, TestbedConfig

__all__ = [
    "ApRuntime",
    "ApeCacheConfig",
    "CacheFlag",
    "CacheableSpec",
    "ClientRuntime",
    "FetchResult",
    "HIGH_PRIORITY",
    "LOW_PRIORITY",
    "Testbed",
    "TestbedConfig",
    "__version__",
    "cacheable",
    "scan_cacheables",
]
