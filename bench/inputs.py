"""Workload inputs, built from the seed and nothing else.

The program under test only ever sees what this module generates: a
catalog (URLs, sizes, priorities), a popularity-weighted request
sequence per device for the closed loops, and an arrival schedule for
the open loop.  The same seed gives byte-identical inputs
(`LiveInputs.digest`), whatever the host or the run length: sequences
are drawn one request at a time, so a longer run extends a shorter one.

The catalog is the same under every seed, and popularity rank is part
of it: the k-th most popular object always has the same size, priority
and app.  What PACM keeps depends on all three (the knapsack weighs
size against priority, the fairness check looks at apps), and with
seed-drawn catalogs the churn workload's hit share swung between 0.19
and 0.31 from seed to seed; with a fixed one it moves in the third
digit.  The seed draws the requests.  Arrivals are one per period at a
seed-drawn instant inside it.  (Poisson arrivals were tried first:
their bursts queue at the AP's one-slot CPU and the tail of a 20 s run
swung between 13 and 35 ms from seed to seed, wider than any bound
could be.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random

#: Closed-loop workloads use exactly two client devices, whatever the
#: host's core count, so numbers compare across hosts.
DEVICES = 2
ZIPF_EXPONENT = 0.8
#: Draws per device; a device cycles if it ever gets through them
#: (65 536 fetches is minutes of closed-loop load on this stack).
SEQUENCE_LENGTH = 65536
#: Long enough that no object expires inside a run.
SPEC_TTL_S = 3600.0
#: The object of popularity rank k has size `ladder[k * SIZE_STRIDE %
#: objects]`: a stride near objects / golden ratio for the 600-object
#: catalog and coprime to both catalog sizes, so any run of consecutive
#: ranks samples the whole ladder evenly.
SIZE_STRIDE = 371


@dataclasses.dataclass(frozen=True)
class LiveShape:
    """What distinguishes one live workload from another."""

    apps: int
    objects: int
    size_kb: tuple[int, int]
    priorities: tuple[int, ...]
    #: Open-loop offered rate (fetches/s); None = closed loop.
    open_rate_rps: float | None
    #: Register one never-fetched URL per domain, so no DNS-Cache
    #: lookup is all-hit and the client's flag table keeps its answers.
    never_fetched_url: bool
    #: Closed-loop fetches per device that warm the stack before the
    #: measured phase; None = fetch every object once, then once per
    #: client (the hit workloads: everything resident, flags settled).
    warmup_per_device: int | None
    #: A fetch slower than this misses the service-level limit.
    slo_ms: float


LIVE_SHAPES: dict[str, LiveShape] = {
    "live_hit_open": LiveShape(
        apps=4, objects=40, size_kb=(2, 16), priorities=(2,),
        open_rate_rps=100.0, never_fetched_url=False,
        warmup_per_device=None, slo_ms=30.0),
    "live_hit_closed": LiveShape(
        apps=4, objects=40, size_kb=(2, 16), priorities=(2,),
        open_rate_rps=None, never_fetched_url=True,
        warmup_per_device=None, slo_ms=30.0),
    "live_churn_closed": LiveShape(
        apps=8, objects=600, size_kb=(16, 256), priorities=(1, 2),
        open_rate_rps=None, never_fetched_url=False,
        warmup_per_device=250, slo_ms=150.0),
}


@dataclasses.dataclass(frozen=True)
class CatalogObject:
    url: str
    size_bytes: int
    priority: int
    app: int


@dataclasses.dataclass(frozen=True)
class LiveInputs:
    workload: str
    shape: LiveShape
    objects: tuple[CatalogObject, ...]
    #: Registered with every client of the app, never fetched.
    never_fetched: tuple[CatalogObject, ...]
    #: Per device: indices into `objects`, in request order.
    sequences: tuple[tuple[int, ...], ...]
    #: Open loop only: (due seconds from phase start, device, object).
    arrivals: tuple[tuple[float, int, int], ...]

    def sequence(self, device: int, skip: int = 0):
        """The device's request stream from draw `skip` on, cycling."""
        draws = self.sequences[device]
        start = skip % len(draws)
        return itertools.chain(draws[start:], itertools.cycle(draws))

    def digest(self) -> str:
        """Hash of everything the program will be fed."""
        text = repr((self.workload, self.objects, self.never_fetched,
                     self.sequences, self.arrivals))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def zipf_weights(count: int, exponent: float = ZIPF_EXPONENT) -> list[float]:
    return [1.0 / rank ** exponent for rank in range(1, count + 1)]


def build_live_inputs(workload: str, seed: int,
                      seconds: float) -> LiveInputs:
    """Catalog, request sequences and arrival schedule for one run."""
    shape = LIVE_SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    low, high = (bound * 1024 for bound in shape.size_kb)
    ladder = [low + (high - low) * step // (shape.objects - 1)
              for step in range(shape.objects)]
    # In popularity order: object k is the k-th most requested.
    objects = tuple(
        CatalogObject(
            url=f"http://app{rank % shape.apps}.bench.example/obj-{rank}",
            size_bytes=ladder[rank * SIZE_STRIDE % shape.objects],
            priority=shape.priorities[
                rank // shape.apps % len(shape.priorities)],
            app=rank % shape.apps)
        for rank in range(shape.objects))
    never_fetched = tuple(
        CatalogObject(url=f"http://app{app}.bench.example/never-fetched",
                      size_bytes=1024, priority=shape.priorities[0], app=app)
        for app in range(shape.apps)) if shape.never_fetched_url else ()

    ranks = range(shape.objects)
    weights = zipf_weights(shape.objects)
    sequences = tuple(
        tuple(rng.choices(ranks, weights=weights, k=SEQUENCE_LENGTH))
        for _device in range(DEVICES))

    arrivals: tuple[tuple[float, int, int], ...] = ()
    if shape.open_rate_rps is not None:
        period = 1.0 / shape.open_rate_rps
        arrivals = tuple(
            ((slot + rng.random()) * period, rng.randrange(DEVICES),
             rng.choices(ranks, weights=weights)[0])
            for slot in range(int(seconds * shape.open_rate_rps)))
    return LiveInputs(workload, shape, objects, never_fetched, sequences,
                      arrivals)
