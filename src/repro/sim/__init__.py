"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.kernel`) provides SimPy-style processes and
events; :mod:`repro.sim.resources` adds counted resources and FIFO
stores; :mod:`repro.sim.rng` supplies deterministic named random
streams; :mod:`repro.sim.trace` provides opt-in event tracing.

Simulated time is measured in **nanoseconds** by convention everywhere
in this library.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    ConditionValue,
    Environment,
    Event,
    Interrupt,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Process,
    Timeout,
)
from repro.sim.resources import FilterStore, Request, Resource, Store
from repro.sim.rng import RngRegistry, fnv1a_64
from repro.sim.trace import Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Environment",
    "Event",
    "Interrupt",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "FilterStore",
    "Request",
    "Resource",
    "RngRegistry",
    "Store",
    "Timeout",
    "Tracer",
    "fnv1a_64",
]
