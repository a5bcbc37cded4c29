"""The fast-path switch: batched/closed-form costing vs reference loops.

The simulator keeps two implementations of every hot costing routine:

- a **reference path** that walks structures element by element (per
  cache line, per page, per translation entry) through the stateful
  hardware models — simple to audit, and the behaviour every test and
  figure was originally validated against;
- a **fast path** that computes the same result in bulk: a TLB or cache
  sweep is one call into the model's run-length LRU
  (:class:`repro.mem.lru.RunLRU`) instead of one call per page or line,
  page walks read a page-table run's frame array, and counters are
  updated once per phase instead of once per element.

The run-length LRU keeps recency as runs of consecutive keys and decides
each run's part of a sweep with the LRU stack-distance rule: a key hits
iff fewer than ``capacity`` distinct keys were touched since its last
access.  Both paths go through it (the reference path one key at a
time), so they share one LRU implementation.

Both paths are required to be *equivalent*: identical reported ticks,
identical counter values, identical model state afterwards (TLB/cache/
ATT residency, LRU order, pin counts).  ``tests/test_fastpath_
equivalence.py`` enforces this property-style; ``docs/performance.md``
documents the contract.

This module owns the global toggle.  The fast path is ON by default;
it can be disabled

- programmatically: :func:`set_enabled` / :func:`disabled`,
- from the CLI: every ``repro`` command accepts ``--no-fastpath``,
- from the environment: ``REPRO_NO_FASTPATH=1``.

The flag is read through :func:`enabled` on every fast-path entry, so
flipping it mid-run is safe (each phase is costed wholly on one path).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_enabled: bool = os.environ.get("REPRO_NO_FASTPATH", "").strip().lower() not in (
    "1",
    "true",
    "yes",
    "on",
)


def enabled() -> bool:
    """True while the batched fast paths are active."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Turn the fast paths on or off globally."""
    global _enabled
    _enabled = bool(flag)


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager: run the body on the reference paths."""
    global _enabled
    prior = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = prior


@contextmanager
def forced(flag: bool) -> Iterator[None]:
    """Context manager: pin the fast-path switch to *flag* for the body."""
    global _enabled
    prior = _enabled
    _enabled = bool(flag)
    try:
        yield
    finally:
        _enabled = prior
