"""Simulation measurement substrate: continuity metrics and event traces.

Simulated time is advanced by the service loops themselves
(:mod:`repro.service`); this package scores what they deliver.
"""

from repro.sim.metrics import ContinuityMetrics, SweepSeries
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "ContinuityMetrics",
    "SweepSeries",
    "TraceEvent",
    "Tracer",
]
