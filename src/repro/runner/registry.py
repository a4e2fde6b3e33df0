"""Name -> object lookups for systems, cell runners and experiments.

Cells travel between processes as data; this module is how a worker
turns the data back into live objects after ``spawn`` re-imports the
package.  Everything resolves through one importer, :func:`resolve_path`,
which turns a ``"module:function"`` string into the callable it names:

* **systems** — the paper's four systems by name (:data:`SYSTEMS`), or
  any picklable zero-argument factory passed in place of a name.
* **runners** — ``"workload"`` or a ``"module:function"`` path, so a
  worker finds an experiment-local runner by importing its module.
* **experiments** — :data:`repro.experiments.EXPERIMENTS` holds
  ``"module:function"`` paths the CLI resolves the same way.
"""

from __future__ import annotations

import importlib
import typing as _t

from repro.errors import ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.base import CachingSystem
    from repro.runner.spec import Cell

__all__ = ["SYSTEMS", "resolve_path", "resolve_system", "system_names",
           "resolve_runner"]

SystemFactory = _t.Callable[[], "CachingSystem"]
CellRunner = _t.Callable[["Cell"], dict]

#: The paper's systems, in paper order: name -> factory path.
SYSTEMS: dict[str, str] = {
    "APE-CACHE": "repro.baselines:ApeCacheSystem",
    "APE-CACHE-LRU": "repro.baselines:ApeCacheLruSystem",
    "Wi-Cache": "repro.baselines:WiCacheSystem",
    "Edge Cache": "repro.baselines:EdgeCacheSystem",
}

#: The one short runner name; every other runner is a dotted path.
_RUNNERS = {"workload": "repro.runner.cells:workload_cell"}


def resolve_path(path: str) -> _t.Callable[..., _t.Any]:
    """Import ``module`` and return its callable ``function``."""
    module_name, _, attr = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigError(f"{path!r}: cannot import {module_name!r} "
                          f"({exc})") from exc
    target = getattr(module, attr, None)
    if target is None or not callable(target):
        raise ConfigError(f"{path!r}: {module_name!r} has no callable "
                          f"{attr!r}")
    return _t.cast(_t.Callable[..., _t.Any], target)


def system_names() -> list[str]:
    """The named systems, paper order."""
    return list(SYSTEMS)


def resolve_system(ref: str | SystemFactory | None,
                   ) -> "CachingSystem | None":
    """A fresh system instance for ``ref`` (name or factory)."""
    if ref is None:
        return None
    if callable(ref):
        return ref()
    if ref not in SYSTEMS:
        raise ConfigError(f"unknown system {ref!r}; known: "
                          f"{sorted(SYSTEMS)}")
    return _t.cast("CachingSystem", resolve_path(SYSTEMS[ref])())


def resolve_runner(name: str) -> CellRunner:
    """Look up a runner: ``"workload"`` or a ``module:function`` path.

    The dotted form imports the module first, so a freshly spawned
    worker resolves experiment-local runners without any pre-seeding.
    """
    path = _RUNNERS.get(name, name)
    if ":" not in path:
        raise ConfigError(f"unknown runner {name!r}; use 'workload' or "
                          "'module:function'")
    return _t.cast(CellRunner, resolve_path(path))
