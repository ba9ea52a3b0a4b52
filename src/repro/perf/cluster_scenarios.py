"""Cluster-scale perf scenario: the sharded-catalog acceptance run.

Scores the full :class:`repro.cluster.MediaCluster` stack — placement,
routing, per-node batched admission, chunked serving, handoff — on the
ROADMAP's north-star workload: 1000+ concurrent sessions over a sharded
Zipf catalog.  The result feeds the ``cluster_scale`` record in
``BENCH_PERF.json``: the measured session counts are reported alongside
the distributed-VoD analytical bounds (single-video, full-catalog,
max-flow demand satisfiability), and a deterministic node-kill run
reports what fraction of affected sessions handed off without a
continuity break.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.config import DEFAULT_SEED
from repro.cluster import (
    run_cluster_failover_scenario,
    run_cluster_scale_scenario,
)

__all__ = ["ClusterScaleResult", "run_cluster_scale_bench"]


@dataclass(frozen=True)
class ClusterScaleResult:
    """One timed cluster acceptance run (scale + failover + bounds)."""

    params: Dict
    scale: Dict
    bounds: Dict
    failover: Dict

    @property
    def all_continuous(self) -> bool:
        """The scale acceptance predicate: every admitted session clean."""
        return (
            self.scale["admitted"] > 0
            and self.scale["continuous"] == self.scale["admitted"]
        )

    @property
    def handoff_clean_ratio(self) -> float:
        """Clean fraction of the failover run's handoff decisions."""
        affected = self.failover["affected"]
        if not affected:
            return 1.0
        return self.failover["clean"] / affected

    @property
    def within_bounds(self) -> bool:
        """Measured concurrency never exceeds the analytical envelope."""
        return (
            self.scale["admitted"] <= self.bounds["full_catalog"]
            and self.bounds["demand_satisfiable"]
            <= self.bounds["demand_total"]
        )

    def to_dict(self) -> Dict:
        """JSON-ready record (the BENCH_PERF ``cluster_scale`` shape)."""
        return {
            **self.params,
            "scale": self.scale,
            "bounds": self.bounds,
            "failover": {
                **self.failover,
                "clean_ratio": self.handoff_clean_ratio,
            },
            "all_continuous": self.all_continuous,
            "within_bounds": self.within_bounds,
        }


def run_cluster_scale_bench(
    scale: Optional[Mapping[str, object]] = None,
    failover: Optional[Mapping[str, object]] = None,
    seed: int = DEFAULT_SEED,
) -> ClusterScaleResult:
    """Time the ``cluster-scale`` run, then the ``cluster-failover`` run.

    *scale* and *failover* override the registry defaults of each.  The
    two runs share a seed but use independent clusters, so the failover
    numbers are not polluted by the scale run's cache state.
    """
    # Imported here: the registry imports repro.perf.
    from repro.scenarios import SCENARIOS

    params = SCENARIOS["cluster-scale"].resolve(scale)
    failover_params = SCENARIOS["cluster-failover"].resolve(failover)
    started = time.perf_counter()
    scale_run = run_cluster_scale_scenario(seed=seed, **params)
    scale_wall = time.perf_counter() - started
    result = scale_run.result
    scale = {
        "admitted": result.admitted,
        "continuous": result.continuous_sessions,
        "rejected": len(result.rejects),
        "blocks_delivered": sum(
            s.blocks_delivered for s in result.statuses
        ),
        "total_misses": result.total_misses,
        "wall_time_s": scale_wall,
        "sessions_per_second": (
            len(result.statuses) / scale_wall if scale_wall > 0
            else float("inf")
        ),
    }
    started = time.perf_counter()
    failover_run = run_cluster_failover_scenario(seed=seed, **failover_params)
    failover_wall = time.perf_counter() - started
    fr = failover_run.result
    broken = sum(
        1 for record in fr.handoffs
        if record.to_node is None or not record.clean
    )
    failover = {
        "nodes": failover_params["nodes"],
        "sessions": failover_params["sessions"],
        "affected": len(fr.handoffs),
        "clean": fr.handoffs_clean,
        "continuity_breaks": broken,
        "continuous": fr.continuous_sessions,
        "admitted": fr.admitted,
        "wall_time_s": failover_wall,
    }
    return ClusterScaleResult(
        params={**params, "seed": seed},
        scale=scale,
        bounds=scale_run.bounds.to_dict(),
        failover=failover,
    )
