"""Checker modules; importing this package registers every checker.

To add a rule: write a :class:`repro.lint.registry.Checker` subclass in
one of these modules (or a new one), decorate it with
:func:`repro.lint.registry.register`, and import the module here.
"""

from __future__ import annotations

from repro.lint.checkers import (
    asyncsafety,
    cachespec,
    determinism,
    perf,
    simsafety,
)

__all__ = ["determinism", "simsafety", "asyncsafety", "cachespec", "perf"]
