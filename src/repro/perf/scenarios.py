"""Synthetic §3.4 service workloads at chosen scale points.

A :class:`ScaleScenario` describes one run of the round-robin service —
how many concurrent streams, how long each strand is, which drive
mechanism serves them, and how arrivals are spread over rounds.  The
scenario is a frozen value object so it pickles cleanly into worker
processes; :func:`run_scale_scenario` is the module-level entry point the
sweep runner maps over.

Scenarios deliberately build :class:`~repro.service.rounds.StreamState`
plans directly (seeded strided slot placement) instead of recording
media through the rope server: the point is to load the service loop and
drive model — the hot paths — with exactly controlled block counts.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.disk.drive import SimulatedDrive
from repro.disk.factory import FAST_DRIVE, TESTBED_DRIVE, build_drive
from repro.disk.seek import TableSeek
from repro.errors import ParameterError
from repro.rope.server import BlockFetch
from repro.service.rounds import Admission, RoundRobinService, StreamState

__all__ = [
    "DRIVE_CONFIGS",
    "ObsOverheadResult",
    "ScaleScenario",
    "ScaleResult",
    "build_drive_config",
    "build_streams",
    "run_obs_overhead_scenario",
    "run_scale_scenario",
]

#: Frame period of the testbed's ~4-frame block at 30 fps.
DEFAULT_BLOCK_SECONDS = 4 / 30.0


def _table_drive() -> SimulatedDrive:
    """The testbed mechanism replayed through a measured-curve TableSeek.

    Sampling the testbed's linear curve at a handful of distances and
    interpolating between them exercises the memoized table path the way
    a real datasheet replay would.
    """
    drive = build_drive(TESTBED_DRIVE)
    linear = TESTBED_DRIVE.seek_model()
    samples = [1, 4, 16, 64, 256, TESTBED_DRIVE.cylinders - 1]
    points = [(d, linear.seek_time(d)) for d in samples]
    return SimulatedDrive(
        geometry=TESTBED_DRIVE.geometry(),
        seek_model=TableSeek(points),
        rotation=TESTBED_DRIVE.rotation(),
        transfer_rate=TESTBED_DRIVE.transfer_rate,
        sectors_per_block=64,
    )


#: Drive configurations a sweep can fan over.
DRIVE_CONFIGS = {
    "testbed": lambda: build_drive(TESTBED_DRIVE),
    "fast": lambda: build_drive(FAST_DRIVE),
    "table": _table_drive,
}

ARRIVALS = ("uniform", "staggered")


def build_drive_config(name: str) -> SimulatedDrive:
    """Instantiate one of the named :data:`DRIVE_CONFIGS`."""
    try:
        factory = DRIVE_CONFIGS[name]
    except KeyError:
        raise ParameterError(
            f"unknown drive config {name!r}; known: "
            f"{', '.join(sorted(DRIVE_CONFIGS))}"
        ) from None
    return factory()


@dataclass(frozen=True)
class ScaleScenario:
    """One service-loop scale point.

    Parameters
    ----------
    name:
        Label carried into the result and the report table.
    streams:
        Concurrent playback requests.
    blocks_per_stream:
        Strand length, in blocks.
    k:
        Blocks per request per round (fixed schedule).
    buffer_capacity:
        Display buffers per stream (the regulation bound).
    seed:
        Seeds the strided slot placement, so a scenario is reproducible
        bit for bit in any process.
    drive:
        A :data:`DRIVE_CONFIGS` key.
    arrivals:
        ``"uniform"`` — every stream present at round 0; ``"staggered"``
        — streams join in admission order over the early rounds, loading
        the mid-run admission path.
    block_seconds:
        Playback seconds per block.
    """

    name: str
    streams: int = 1000
    blocks_per_stream: int = 1000
    k: int = 4
    buffer_capacity: int = 8
    seed: int = 0
    drive: str = "testbed"
    arrivals: str = "uniform"
    block_seconds: float = DEFAULT_BLOCK_SECONDS

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ParameterError(
                f"streams must be >= 1, got {self.streams}"
            )
        if self.blocks_per_stream < 1:
            raise ParameterError(
                f"blocks_per_stream must be >= 1, got "
                f"{self.blocks_per_stream}"
            )
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.drive not in DRIVE_CONFIGS:
            raise ParameterError(
                f"unknown drive config {self.drive!r}; known: "
                f"{', '.join(sorted(DRIVE_CONFIGS))}"
            )
        if self.arrivals not in ARRIVALS:
            raise ParameterError(
                f"unknown arrivals mode {self.arrivals!r}; known: "
                f"{', '.join(ARRIVALS)}"
            )
        if self.block_seconds <= 0:
            raise ParameterError(
                f"block_seconds must be positive, got {self.block_seconds}"
            )


@dataclass(frozen=True)
class ScaleResult:
    """Throughput scoring of one completed scenario."""

    name: str
    streams: int
    blocks_per_stream: int
    drive: str
    arrivals: str
    seed: int
    wall_time_s: float
    rounds: int
    blocks_delivered: int
    misses: int
    blocks_per_second: float
    streams_per_second: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the BENCH_PERF.json row shape)."""
        return {
            "name": self.name,
            "streams": self.streams,
            "blocks_per_stream": self.blocks_per_stream,
            "drive": self.drive,
            "arrivals": self.arrivals,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "rounds": self.rounds,
            "blocks_delivered": self.blocks_delivered,
            "misses": self.misses,
            "blocks_per_second": self.blocks_per_second,
            "streams_per_second": self.streams_per_second,
        }


def build_streams(
    scenario: ScaleScenario, drive: SimulatedDrive
) -> Tuple[List[StreamState], List[Admission]]:
    """Materialize a scenario's streams against a concrete drive."""
    rng = random.Random(scenario.seed)
    total_slots = drive.slots
    initial: List[StreamState] = []
    admissions: List[Admission] = []
    for i in range(scenario.streams):
        base = rng.randrange(total_slots)
        stride = rng.randrange(1, 9)
        fetches = [
            BlockFetch(
                slot=(base + j * stride) % total_slots,
                bits=drive.block_bits,
                duration=scenario.block_seconds,
            )
            for j in range(scenario.blocks_per_stream)
        ]
        stream = StreamState(
            request_id=f"{scenario.name}-s{i:05d}",
            fetches=fetches,
            buffer_capacity=scenario.buffer_capacity,
        )
        if scenario.arrivals == "staggered" and i > 0:
            # Spread joins over the early rounds, one every other round,
            # capped so late joiners still overlap the initial cohort.
            join_round = min(2 * i, 4 * scenario.k)
            admissions.append(
                Admission(round_number=join_round, stream=stream)
            )
        else:
            initial.append(stream)
    return initial, admissions


@dataclass(frozen=True)
class ObsOverheadResult:
    """Full observability + tracing vs obs-off walls on one scenario.

    ``ratio`` is ``wall_obs_s / wall_off_s`` (min-of-*repeats* walls on
    each side, so scheduler noise cannot manufacture a regression); the
    acceptance budget is ``ratio <= budget_ratio``.
    """

    streams: int
    blocks_per_stream: int
    repeats: int
    wall_off_s: float
    wall_obs_s: float
    ratio: float
    spans: int
    spans_dropped: int
    budget_ratio: float

    @property
    def within_budget(self) -> bool:
        """True when tracing overhead stays inside the budget."""
        return self.ratio <= self.budget_ratio

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the BENCH_PERF.json ``obs_overhead``)."""
        return {
            "streams": self.streams,
            "blocks_per_stream": self.blocks_per_stream,
            "repeats": self.repeats,
            "wall_off_s": self.wall_off_s,
            "wall_obs_s": self.wall_obs_s,
            "ratio": self.ratio,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "budget_ratio": self.budget_ratio,
            "within_budget": self.within_budget,
        }


def run_obs_overhead_scenario(
    streams: int = 100,
    blocks_per_stream: int = 1000,
    repeats: int = 5,
    budget_ratio: float = 1.15,
    seed: int = 0,
) -> ObsOverheadResult:
    """Measure tracing overhead on the 100-session perf-sweep scenario.

    Runs the same :class:`ScaleScenario` with observability off and with
    the full sampled surface on (:meth:`Observability.for_scale`: span
    tracer, timeline, metrics, SLO monitor), *repeats* times each with
    the two sides interleaved — off, traced, off, traced, … — so clock
    drift (thermal throttling, background load) biases neither side,
    then compares best walls.  A fresh drive, stream set, and observer
    are built per repeat so neither side reuses warm state.
    """
    from repro.obs.observer import Observability

    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    scenario = ScaleScenario(
        name="obs-overhead",
        streams=streams,
        blocks_per_stream=blocks_per_stream,
        seed=seed,
    )

    def _one_wall(obs):
        drive = build_drive_config(scenario.drive)
        initial, admissions = build_streams(scenario, drive)
        service = RoundRobinService(
            drive, lambda _round, _n: scenario.k, obs=obs
        )
        start = _time.perf_counter()
        service.run(initial, admissions, max_rounds=10_000_000)
        return _time.perf_counter() - start

    wall_off = wall_obs = float("inf")
    obs = None
    for _ in range(repeats):
        wall_off = min(wall_off, _one_wall(None))
        # Spans are seed-deterministic, so any repeat's observer reports
        # the same counts; keep the last.
        obs = Observability.for_scale(seed=seed)
        wall_obs = min(wall_obs, _one_wall(obs))
    return ObsOverheadResult(
        streams=streams,
        blocks_per_stream=blocks_per_stream,
        repeats=repeats,
        wall_off_s=wall_off,
        wall_obs_s=wall_obs,
        ratio=wall_obs / max(wall_off, 1e-9),
        spans=len(obs.tracer),
        spans_dropped=obs.tracer.dropped_count,
        budget_ratio=budget_ratio,
    )


def run_scale_scenario(
    scenario: ScaleScenario, obs=None
) -> ScaleResult:
    """Run one scenario to completion and score simulator throughput.

    Module-level (picklable) so :func:`repro.perf.sweep.run_sweep` can
    dispatch it to worker processes.  With *obs* (an
    :class:`~repro.obs.Observability`) the drive and the round loop
    report to it, and the drive's ``profile_label`` is the drive-config
    name, so per-drive profiler rollups read ``testbed``/``fast``/
    ``table``.  ``wall_time_s`` times the round loop only.
    """
    drive = build_drive_config(scenario.drive)
    if obs is not None:
        drive.profile_label = scenario.drive
        drive.attach_observer(obs)
    initial, admissions = build_streams(scenario, drive)
    service = RoundRobinService(
        drive, lambda _round, _n: scenario.k, obs=obs
    )
    start = _time.perf_counter()
    metrics = service.run(
        initial, admissions, max_rounds=10_000_000
    )
    wall = _time.perf_counter() - start
    delivered = sum(m.blocks_delivered for m in metrics.values())
    misses = sum(m.misses for m in metrics.values())
    # Degenerate sub-microsecond walls only occur for trivial smoke
    # scenarios; clamp so rates stay finite.
    safe_wall = max(wall, 1e-9)
    return ScaleResult(
        name=scenario.name,
        streams=scenario.streams,
        blocks_per_stream=scenario.blocks_per_stream,
        drive=scenario.drive,
        arrivals=scenario.arrivals,
        seed=scenario.seed,
        wall_time_s=wall,
        rounds=service.rounds_run,
        blocks_delivered=delivered,
        misses=misses,
        blocks_per_second=delivered / safe_wall,
        streams_per_second=scenario.streams / safe_wall,
    )
