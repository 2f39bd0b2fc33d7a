"""Deterministic discrete-event simulation substrate.

This package is the "hardware" of the reproduction: everything the paper
ran on physical machines (VAX nodes on a token ring, PDP-11s on a CSMA
bus, a shared-memory Butterfly) runs here on a single-threaded,
deterministic event engine with simulated time.

Modules
-------
engine   : the event loop (`Engine`) and simulated clock.
futures  : `Future`, the completion primitive kernels hand to tasks.
tasks    : `Task`, which drives generator coroutines over futures (one
           future, or the first of a tuple of them) and delays (the
           task's own timer: ``yield ms`` or a `Delay`).
network  : latency/bandwidth models for the three interconnects.
metrics  : counters and latency recorders shared by kernels and benches.
faults   : crash modes and the seeded network-fault plane.
rng      : seeded randomness helpers (all randomness flows through here).
"""

from repro.sim.engine import Engine, Event
from repro.sim.futures import Future, FutureState
from repro.sim.tasks import Delay, Task, TaskKilled, sleep
from repro.sim.metrics import MetricSet, LatencyRecorder
from repro.sim.network import (
    NetworkModel,
    TokenRing,
    CSMABus,
    SharedMemoryInterconnect,
)
from repro.sim.rng import SimRandom
from repro.sim.trace import TraceLog, TraceEvent

__all__ = [
    "Engine",
    "Event",
    "Future",
    "FutureState",
    "Delay",
    "Task",
    "TaskKilled",
    "sleep",
    "MetricSet",
    "LatencyRecorder",
    "NetworkModel",
    "TokenRing",
    "CSMABus",
    "SharedMemoryInterconnect",
    "SimRandom",
    "TraceLog",
    "TraceEvent",
]
