"""Discrete-event simulation kernel.

A small, dependency-free DES kernel in the style of SimPy: processes are
Python generators that ``yield`` events; the kernel owns a virtual clock
measured in integer **ticks** (we use time-base-register ticks throughout
the reproduction, matching the paper's reporting unit).

Public surface:

- :class:`~repro.engine.core.SimKernel` — event loop, clock and event heap;
  ``join`` runs generators concurrently without making them processes.
- :class:`~repro.engine.core.Event`, :class:`~repro.engine.core.Timeout`,
  :class:`~repro.engine.core.Process` — waitables.
- :class:`~repro.engine.core.AllOf`, :class:`~repro.engine.core.AnyOf` —
  combinators.
- :class:`~repro.engine.resources.Resource`,
  :class:`~repro.engine.resources.Store`,
  :class:`~repro.engine.resources.Channel` — synchronisation primitives.
- :class:`~repro.engine.clock.TickClock` — tick/nanosecond conversions.
"""

from repro.engine.clock import TickClock
from repro.engine.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimError,
    SimKernel,
    Timeout,
)
from repro.engine.resources import Channel, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimError",
    "SimKernel",
    "Store",
    "TickClock",
    "Timeout",
]
