"""ASYNC101/ASYNC102 fixture — never imported, only linted.

``# expect: CODE`` markers are read by the tests; see
``determinism_violations.py``.
"""

import asyncio
import time


async def work():
    await asyncio.sleep(0)
    return 1


async def blocks_the_loop():
    time.sleep(0.2)                                # expect: ASYNC101
    with open("/tmp/spans.jsonl") as handle:       # expect: ASYNC101
        handle.read()
    await asyncio.sleep(0)


def blocking_helper():
    # A synchronous helper may block; only a call written inside the
    # coroutine itself is a finding.
    time.sleep(0.1)


async def calls_a_helper():
    blocking_helper()
    await asyncio.sleep(0)


async def nested_definitions():
    def later():
        time.sleep(0.1)  # a nested def is its own scope
    await asyncio.sleep(0)
    return later


async def fire_and_forget():
    work()                                         # expect: ASYNC102
    asyncio.create_task(work())                    # expect: ASYNC102
    asyncio.ensure_future(work())                  # expect: ASYNC102


def sync_driver(loop):
    work()                                         # expect: ASYNC102
    loop.create_task(work())                       # expect: ASYNC102


_OWNED = set()


async def careful():
    await work()
    task = asyncio.create_task(work())
    _OWNED.add(task)
    task.add_done_callback(_OWNED.discard)
    await task


class Server:
    def __init__(self, loop):
        self._loop = loop

    async def start(self):
        await asyncio.sleep(0)

    async def restart(self):
        self.start()                               # expect: ASYNC102
        await self.start()

    def kick(self):
        self._loop.create_task(self.start())       # expect: ASYNC102
        return asyncio.run(self.start())
