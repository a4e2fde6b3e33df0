"""DET001/DET002/DET003 fixture — never imported, only linted.

Each violating line carries a trailing ``# expect: CODE`` marker; the
tests read these markers and assert the linter reports exactly those
``(line, code)`` pairs, no more and no fewer.
"""

import datetime
import heapq
import json
import random
import time
from random import Random
import random as renamed

import numpy as np


def unseeded_rngs():
    plain = random.Random()                        # expect: DET001
    from_import = Random()                         # expect: DET001
    aliased = renamed.Random()                     # expect: DET001
    entropy = random.SystemRandom()                # expect: DET001
    draw = random.random()                         # expect: DET001
    pick = random.choice([1, 2, 3])                # expect: DET001
    seeded_ok = random.Random(42)
    also_ok = Random(7)
    return plain, from_import, aliased, entropy, draw, pick, seeded_ok, also_ok


def numpy_rngs():
    legacy = np.random.rand(4)                     # expect: DET001
    reseed = np.random.seed(3)                     # expect: DET001
    implicit = np.random.default_rng()             # expect: DET001
    explicit_ok = np.random.default_rng(42)
    return legacy, reseed, implicit, explicit_ok


def wall_clock():
    stamp = time.time()                            # expect: DET002
    tick = time.monotonic()                        # expect: DET002
    precise = time.perf_counter()                  # expect: DET002
    today = datetime.datetime.now()                # expect: DET002
    return stamp, tick, precise, today


def ordering_hazards(table, heap):
    worst = max(table.values())                    # expect: DET003
    first = min({3, 1, 2})                         # expect: DET003
    joined = ",".join(table.keys())                # expect: DET003
    blob = json.dumps(table.values())              # expect: DET003
    for key in table.keys():                       # expect: DET003
        heapq.heappush(heap, key)
    safe_worst = max(sorted(table.values()))
    for key in sorted(table):
        heapq.heappush(heap, key)
    return worst, first, joined, blob


def os_entropy():
    # Imported here so the line numbers above stay put.
    import os
    import secrets
    import uuid

    key = os.urandom(16)                           # expect: DET001
    more = os.getrandom(16)                        # expect: DET001
    host_id = uuid.uuid1()                         # expect: DET001
    request_id = uuid.uuid4()                      # expect: DET001
    raw = secrets.token_bytes(8)                   # expect: DET001
    hexed = secrets.token_hex(8)                   # expect: DET001
    url_safe = secrets.token_urlsafe(8)            # expect: DET001
    below = secrets.randbelow(10)                  # expect: DET001
    chosen = secrets.choice([1, 2, 3])             # expect: DET001
    bits = secrets.randbits(8)                     # expect: DET001
    named_ok = uuid.uuid5(uuid.NAMESPACE_URL, "h")
    return (key, more, host_id, request_id, raw, hexed, url_safe, below,
            chosen, bits, named_ok)
