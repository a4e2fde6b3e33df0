"""Name -> factory registries for systems and cell runners.

Cells travel between processes as data; the registry is how a worker
turns the data back into live objects after ``spawn`` re-imports the
package.  Two registries live here:

* **systems** — the caching architectures under evaluation.  The four
  paper systems register at import; extensions add theirs via
  :func:`register_system`.
* **runners** — functions executing one :class:`~repro.runner.spec.Cell`
  and returning a metrics dict.  Short names cover the built-ins
  (``"workload"``); experiment-specific runners resolve through their
  ``"module:function"`` path, so workers find them by importing the
  module — nothing needs to be registered before the pool starts.
"""

from __future__ import annotations

import importlib
import typing as _t

from repro.errors import ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.base import CachingSystem
    from repro.runner.spec import Cell

__all__ = ["register_system", "resolve_system", "system_names",
           "register_runner", "resolve_runner", "runner_names"]

SystemFactory = _t.Callable[[], "CachingSystem"]
CellRunner = _t.Callable[["Cell"], dict]

_SYSTEMS: dict[str, SystemFactory] = {}
_RUNNERS: dict[str, CellRunner] = {}


def register_system(name: str, factory: SystemFactory,
                    replace: bool = False) -> SystemFactory:
    """Register a caching-system factory under ``name``."""
    if name in _SYSTEMS and _SYSTEMS[name] is not factory and not replace:
        raise ConfigError(f"system {name!r} is already registered")
    _SYSTEMS[name] = factory
    return factory


def _ensure_builtin_systems() -> None:
    """Lazily register the paper's four systems (import-cycle safe)."""
    if _SYSTEMS:
        return
    from repro.baselines import (
        ApeCacheLruSystem,
        ApeCacheSystem,
        EdgeCacheSystem,
        WiCacheSystem,
    )

    register_system("APE-CACHE", ApeCacheSystem)
    register_system("APE-CACHE-LRU", ApeCacheLruSystem)
    register_system("Wi-Cache", WiCacheSystem)
    register_system("Edge Cache", EdgeCacheSystem)


def system_names() -> list[str]:
    """Registered system names, registration order (paper order first)."""
    _ensure_builtin_systems()
    return list(_SYSTEMS)


def resolve_system(ref: str | SystemFactory | None,
                   ) -> "CachingSystem | None":
    """A fresh system instance for ``ref`` (name or factory)."""
    if ref is None:
        return None
    if callable(ref):
        return ref()
    _ensure_builtin_systems()
    try:
        factory = _SYSTEMS[ref]
    except KeyError:
        raise ConfigError(
            f"unknown system {ref!r}; registered: "
            f"{sorted(_SYSTEMS)}") from None
    return factory()


def register_runner(name: str,
                    ) -> _t.Callable[[CellRunner], CellRunner]:
    """Decorator registering a cell runner under a short ``name``."""

    def decorate(func: CellRunner) -> CellRunner:
        existing = _RUNNERS.get(name)
        if existing is not None and existing is not func:
            raise ConfigError(f"runner {name!r} is already registered")
        _RUNNERS[name] = func
        return func

    return decorate


def _ensure_builtin_runners() -> None:
    if "workload" not in _RUNNERS:
        importlib.import_module("repro.runner.cells")


def runner_names() -> list[str]:
    """Short-named runners currently registered."""
    _ensure_builtin_runners()
    return sorted(_RUNNERS)


def resolve_runner(name: str) -> CellRunner:
    """Look up a runner: a registered short name or ``module:function``.

    The dotted form imports the module first, so a freshly spawned
    worker resolves experiment-local runners without any pre-seeding.
    """
    _ensure_builtin_runners()
    if name in _RUNNERS:
        return _RUNNERS[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ConfigError(
                f"runner {name!r}: cannot import {module_name!r} "
                f"({exc})") from exc
        if name in _RUNNERS:  # importing may have registered it
            return _RUNNERS[name]
        runner = getattr(module, attr, None)
        if runner is None or not callable(runner):
            raise ConfigError(
                f"runner {name!r}: {module_name!r} has no callable "
                f"{attr!r}")
        return _t.cast(CellRunner, runner)
    raise ConfigError(f"unknown runner {name!r}; registered: "
                      f"{sorted(_RUNNERS)} (or use 'module:function')")
