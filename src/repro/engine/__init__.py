"""Discrete-event simulation core used by every experiment in this package.

The engine is deliberately small and dependency free: a virtual clock, a
cancellable binary-heap event queue with an explicit event lifecycle
(``PENDING → FIRED | CANCELLED``), a run loop with trace hooks, seeded
per-component random streams, the sample statistics (mean, confidence
interval, stopping rule) that the paper's methodology requires ("enough
replications of each experiment so that the 95% confidence interval is
within 1% of the point estimate of the mean"), and the ordered
process-pool map the sweep executor fans cells out with.
"""

from repro.engine.clock import VirtualClock
from repro.engine.events import Event, EventHandle, EventState
from repro.engine.parallel import (
    BatchedConvergence,
    ConvergenceCriterion,
    map_items,
)
from repro.engine.queue import EventQueue
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.engine.stats import (
    ConfidenceInterval,
    SampleStats,
    mean_confidence_interval,
)

__all__ = [
    "BatchedConvergence",
    "ConfidenceInterval",
    "ConvergenceCriterion",
    "Event",
    "EventHandle",
    "EventQueue",
    "EventState",
    "RngRegistry",
    "SampleStats",
    "Simulator",
    "VirtualClock",
    "map_items",
    "mean_confidence_interval",
]
