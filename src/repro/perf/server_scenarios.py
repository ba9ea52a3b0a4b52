"""Server-scale perf scenario: the batched-vs-per-request comparison.

:mod:`repro.perf.scenarios` scores the raw §3.4 service loop; this
module scores the full :class:`repro.server.MediaServer` front end —
request grouping, batched admission, the block cache, the epoch loop —
on the ISSUE's acceptance workload (many concurrent viewers of few hot
strands) and times how fast the simulator serves it.  The result feeds
the ``server_compare`` record in ``BENCH_PERF.json``: the comparison
numbers prove the capability (cache + batching sustain strictly more
continuous streams than per-request admission on the same disk), the
wall-clock figures track the front end's own overhead trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

from repro.config import DEFAULT_SEED
from repro.server import run_serve_compare

__all__ = ["ServerCompareResult", "run_server_compare_scenario"]


@dataclass(frozen=True)
class ServerCompareResult:
    """One timed batched-vs-per-request comparison run."""

    compare: Dict
    wall_time_s: float

    @property
    def batched_continuous(self) -> int:
        return self.compare["batched"]["continuous"]

    @property
    def per_request_continuous(self) -> int:
        return self.compare["per_request"]["continuous"]

    @property
    def batched_wins(self) -> bool:
        """The acceptance predicate: strictly more continuous streams."""
        return self.batched_continuous > self.per_request_continuous

    @property
    def sessions_per_second(self) -> float:
        """Front-end throughput: sessions served per wall second."""
        total = 2 * self.compare["sessions"]
        if self.wall_time_s <= 0:
            return float("inf")
        return total / self.wall_time_s

    def to_dict(self) -> Dict:
        """JSON-ready record (the BENCH_PERF ``server_compare`` shape)."""
        return {
            **self.compare,
            "wall_time_s": self.wall_time_s,
            "sessions_per_second": self.sessions_per_second,
            "batched_wins": self.batched_wins,
        }


def run_server_compare_scenario(
    seed: int = DEFAULT_SEED, **overrides
) -> ServerCompareResult:
    """Time one full comparison (both servers, both hot waves).

    *overrides* replace the ``server-hot`` registry defaults of
    ``sessions``, ``strands`` and ``seconds``.
    """
    # Imported here: the registry imports repro.perf.
    from repro.scenarios import SCENARIOS

    params = SCENARIOS["server-hot"].resolve(overrides)
    started = time.perf_counter()
    compare = run_serve_compare(
        sessions=params["sessions"],
        strands=params["strands"],
        seconds=params["seconds"],
        seed=seed,
    )
    return ServerCompareResult(
        compare=compare, wall_time_s=time.perf_counter() - started
    )
