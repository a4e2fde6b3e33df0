"""The engine seam: one :class:`~repro.engine.api.Scheduler` base, two engines.

Everything above the kernel — the network model, DNS and HTTP stacks,
the AP/client runtimes, PACM — is written against the base in
:mod:`repro.engine.api` and reads only ``now``, ``event``, ``timeout``,
``process`` and ``all_of`` off it, never a concrete engine.  Two
subclasses exist:

* :class:`repro.sim.kernel.Simulator` — virtual time, an event heap,
  fully deterministic; every experiment and test runs here.
* :class:`repro.engine.wallclock.WallClock` — real time on an asyncio
  loop; the live serving stack (:mod:`repro.engine.live`) runs the very
  same components on it over loopback sockets.

The event primitives (:mod:`repro.engine.events`) and resource models
(:mod:`repro.engine.resources`) are engine-agnostic and shared by both.
This package imports nothing itself, so the simulator never loads
asyncio: import the submodule you need.
"""
