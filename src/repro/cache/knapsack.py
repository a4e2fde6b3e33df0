"""0/1 knapsack solvers used by PACM's object-selection step.

The production solver quantizes sizes and solves the complement: which
items to evict so the rest fit.  A full store overflows by a few dozen
units out of ~1 270, so a DP over the overflow is cheap enough in pure
Python to run on every cache-full insertion.  An exact exponential
solver is provided for cross-validation in tests.

Quantization rounds item sizes *up* to the granularity, so any DP-feasible
selection is also feasible in real bytes.
"""

from __future__ import annotations

import itertools
import math
import typing as _t

from repro.errors import CacheError

__all__ = ["solve_knapsack", "solve_knapsack_exact", "DEFAULT_GRANULARITY"]

#: Default quantization of object sizes (bytes per DP unit).
DEFAULT_GRANULARITY = 4096


def solve_knapsack(utilities: _t.Sequence[float],
                   sizes: _t.Sequence[int],
                   capacity: int,
                   granularity: int = DEFAULT_GRANULARITY) -> list[int]:
    """Indices of the max-utility subset with total size <= capacity.

    Zero-sized items are always kept.  Items with non-positive utility,
    or larger than the capacity, are never kept.

    Keeping the best subset within ``units`` is evicting the cheapest
    subset that frees ``demand = sum(weights) - units``, so the DP runs
    over ``demand + 1`` cells.  ``best[d]`` is the most utility the
    items so far can keep while freeing at least ``d`` units (``-inf``
    if they cannot).  It holds *kept* utility, summed in item order, so
    every comparison is the one a DP over the whole capacity makes:
    ties evict, and the chosen set does not depend on the formulation.
    """
    if len(utilities) != len(sizes):
        raise CacheError("utilities and sizes must have equal length")
    if capacity < 0:
        raise CacheError(f"negative capacity {capacity}")
    if granularity <= 0:
        raise CacheError(f"granularity must be positive, got {granularity}")
    if any(size < 0 for size in sizes):
        raise CacheError("negative item size")

    free_items = [index for index, size in enumerate(sizes) if size == 0]
    candidates = [(index, utilities[index],
                   math.ceil(sizes[index] / granularity))
                  for index, size in enumerate(sizes) if size > 0]
    units = capacity // granularity
    if units == 0 or not candidates:
        return sorted(free_items)

    feasible = [(index, value, weight) for index, value, weight in candidates
                if weight <= units and value > 0]
    if not feasible:
        return sorted(free_items)

    # When everything fits the demand is 0 and the DP is one cell wide:
    # it still adds in item order, so an item too small to change the
    # float sum is dropped exactly as a full-capacity DP drops it.
    demand = max(sum(weight for _index, _value, weight in feasible) - units,
                 0)
    best = [0.0] + [-math.inf] * demand
    rows: list[list[float]] = []
    for _index, value, weight in feasible:
        rows.append(best)
        # Keep the item (the items before it still free d units) or
        # evict it (they free the remaining max(d - weight, 0)).
        best = [kept if (kept := previous + value) > evicted else evicted
                for previous, evicted in zip(best, itertools.chain(
                    itertools.repeat(best[0], weight), best))]

    chosen: list[int] = []
    short = demand
    for row in range(len(feasible) - 1, -1, -1):
        previous = rows[row]
        index, value, weight = feasible[row]
        freed = max(short - weight, 0)
        if previous[short] + value > previous[freed]:
            chosen.append(index)
        else:
            short = freed
    return sorted(free_items + chosen)


def solve_knapsack_exact(utilities: _t.Sequence[float],
                         sizes: _t.Sequence[int],
                         capacity: int) -> list[int]:
    """Brute-force exact solution (for tests; O(2^n), n <= 20)."""
    if len(utilities) != len(sizes):
        raise CacheError("utilities and sizes must have equal length")
    if len(utilities) > 20:
        raise CacheError("exact solver limited to 20 items")
    best_value = -1.0
    best_subset: tuple[int, ...] = ()
    indices = range(len(utilities))
    for r in range(len(utilities) + 1):
        for subset in itertools.combinations(indices, r):
            size = sum(sizes[i] for i in subset)
            if size > capacity:
                continue
            value = sum(utilities[i] for i in subset)
            if value > best_value:
                best_value = value
                best_subset = subset
    return sorted(best_subset)


def total_value(utilities: _t.Sequence[float],
                selection: _t.Iterable[int]) -> float:
    """Sum of utilities over ``selection`` (test helper)."""
    return math.fsum(utilities[index] for index in selection)


def total_size(sizes: _t.Sequence[int],
               selection: _t.Iterable[int]) -> int:
    """Sum of sizes over ``selection`` (test helper)."""
    return sum(sizes[index] for index in selection)
