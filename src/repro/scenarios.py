"""One registry of the canonical, seed-deterministic scenarios.

Every named scenario is one :class:`Scenario` entry in
:data:`SCENARIOS`: its parameters and their defaults (the types follow
the defaults), the smaller sizes of its smoke run, the observability it
is watched under, how to run it, and one ``metrics(run)`` summary in
the shape every experiment-matrix cell records (:data:`METRIC_KEYS`).
A default is read off the signature of the function that runs the
scenario, so each is written once, next to the code that uses it.  The
commands that run a named scenario (``repro obs-report``, ``profile``,
``trace-export``, ``serve`` and ``cluster``) and the experiment matrix
(:mod:`repro.expt`) all look names up here, so each scenario is defined
once and every one is reachable from each of them.

The dependency runs one way: this module imports the scenario layers
(:mod:`repro.obs.scenarios`, :mod:`repro.server.scenarios`,
:mod:`repro.cluster.scenarios`, :mod:`repro.perf.scenarios`), and none
of them imports it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.cluster.scenarios import (
    cluster_observability,
    run_cluster_failover_scenario,
    run_cluster_scale_scenario,
)
from repro.errors import ParameterError
from repro.obs.observer import Observability
from repro.obs.scenarios import (
    run_fault_scenario,
    run_steady_scenario,
    slo_observability,
)
from repro.perf.scenarios import (
    ARRIVALS,
    DRIVE_CONFIGS,
    ScaleScenario,
    run_obs_overhead_scenario,
    run_scale_scenario,
)
from repro.server.scenarios import (
    run_server_fault_scenario,
    run_server_hot_scenario,
    run_server_steady_scenario,
)

__all__ = [
    "METRIC_KEYS",
    "OBS_OVERHEAD",
    "SCENARIOS",
    "Scenario",
    "ratio",
]

#: Metric keys every summary carries (None when not applicable).
METRIC_KEYS = (
    "blocks_delivered",
    "misses",
    "rounds",
    "continuity_ratio",
    "reject_rate",
    "cache_hit_ratio",
    "slo_breaches",
    "slo_breach_events",
    "handoffs",
    "handoff_clean_ratio",
)


def ratio(numerator: float, denominator: float) -> Optional[float]:
    """A guarded ratio: None instead of dividing by zero or NaN."""
    if denominator != denominator or numerator != numerator:
        return None
    if denominator == 0:
        return None
    return numerator / denominator


def _metrics(**values) -> Dict[str, Optional[float]]:
    return {key: values.get(key) for key in METRIC_KEYS}


def _slo_counts(obs) -> Dict[str, int]:
    """Unresolved breaches and breach transitions of *obs*'s monitor.

    Unresolved breaches (still bad when the run ends) gate golden
    cells; transitions are recorded separately because healthy runs
    breach transiently (the cache-warm SLO always starts cold).
    """
    if obs is None or obs.slo is None:
        return {"slo_breaches": 0, "slo_breach_events": 0}
    summary = obs.slo.summary_dict()
    return {
        "slo_breaches": len(summary["breached_now"]),
        "slo_breach_events": sum(
            1 for event in summary["breach_events"]
            if event["to"] == "breach"
        ),
    }


def _defaults(function: Callable, *names: str) -> Dict[str, object]:
    """The defaults of *names* in *function*'s signature."""
    parameters = inspect.signature(function).parameters
    return {name: parameters[name].default for name in names}


def _param_types(default: object) -> Tuple[type, ...]:
    """The types a parameter accepts, read off its default.

    A float parameter also takes ints; a None default marks an
    optional integer (an op index that is off unless given).
    """
    if default is None:
        return (int,)
    if isinstance(default, float):
        return (int, float)
    return (type(default),)


@dataclass(frozen=True)
class Scenario:
    """One named scenario: defaults, observer, runner and summaries.

    ``run(seed, obs, **overrides)`` calls ``runner`` with keyword
    arguments and returns the scenario's run object; with
    ``obs=None`` it runs under the scenario's own built-in observer
    (none for ``scale``), which is what the experiment matrix and the
    ``serve``/``cluster`` commands use.  ``observability(seed)`` is the
    observer the observing commands (``obs-report``, ``profile``,
    ``trace-export``) build first, so they can attach the profiler
    before the run starts.

    ``axes`` names the parameters the experiment matrix's axes supply
    (``drive``, ``cache_blocks``, ``batching``) instead of the workload
    entry; ``id_format(spec)`` names a matrix cell, and ``accepts(spec)``
    says whether a cell is the acceptance configuration a golden mark
    binds to.
    """

    name: str
    params: Mapping[str, object]
    runner: Callable[..., object]
    metrics: Callable[[object], Dict[str, Optional[float]]]
    healthy: Optional[Callable[[object], bool]] = None
    observability: Optional[Callable[[int], Observability]] = None
    smoke: Mapping[str, object] = field(default_factory=dict)
    axes: Tuple[str, ...] = ()
    choices: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    id_format: Optional[Callable[[Mapping], str]] = None
    accepts: Callable[[Mapping], bool] = lambda spec: True

    def cell_id(self, spec: Mapping) -> str:
        """The matrix cell id of *spec* (name, parameters, seed)."""
        if self.id_format is not None:
            return self.id_format(spec)
        parts = [f"{key}{spec[key]}" for key in sorted(spec) if key != "seed"]
        return "-".join([self.name, *parts, f"seed{spec['seed']}"])

    def run(self, seed: int, obs=None, **overrides):
        """Run at *seed*, watched by *obs*, with :meth:`resolve`'s params."""
        return self.runner(seed=seed, obs=obs, **self.resolve(overrides))

    def param_types(self) -> Dict[str, Tuple[type, ...]]:
        """Accepted types per parameter, read off the defaults."""
        return {
            key: _param_types(default)
            for key, default in self.params.items()
        }

    def resolve(
        self,
        overrides: Optional[Mapping[str, object]] = None,
        smoke: bool = False,
    ) -> Dict[str, object]:
        """Defaults, then the smoke sizes, then *overrides* (None skipped)."""
        params = dict(self.params)
        if smoke:
            params.update(self.smoke)
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key not in params:
                raise ParameterError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"known: {', '.join(sorted(params))}"
                )
            params[key] = value
        return params

    def profile_section(
        self, seed: int, params: Mapping[str, object], run, obs
    ) -> Dict[str, object]:
        """Parameters, outcome and cost attribution of a profiled run.

        All modeled time and op counts, never wall clock, so its sorted
        JSON is byte-identical across runs at the same seed; on
        ``scale`` it is the BENCH_PERF.json ``profile`` section.
        """
        metrics = self.metrics(run)
        return {
            "params": {**params, "seed": seed},
            "rounds": metrics["rounds"],
            "blocks_delivered": metrics["blocks_delivered"],
            "misses": metrics["misses"],
            **obs.profiler.summary_dict(),
        }


# -- per-layer summaries ---------------------------------------------------------

def _session_metrics(run) -> Dict[str, Optional[float]]:
    result = run.result
    per_request = result.metrics.values()
    return _metrics(
        blocks_delivered=sum(m.blocks_delivered for m in per_request),
        misses=result.total_misses,
        rounds=result.rounds,
        continuity_ratio=ratio(
            sum(1 for m in per_request if m.continuous), len(result.metrics)
        ),
        reject_rate=0.0,
        **_slo_counts(run.obs),
    )


def _session_healthy(run) -> bool:
    # Every discontinuity is an injected fault's skip.
    return run.result.total_misses == run.result.total_skips


def _served_metrics(
    result, cache_stats, rounds: int, obs, **extra
) -> Dict[str, Optional[float]]:
    """Summary of a MediaServer epoch or a whole cluster run."""
    hits = sum(stats.get("hits", 0) for stats in cache_stats)
    cache_misses = sum(stats.get("misses", 0) for stats in cache_stats)
    return _metrics(
        blocks_delivered=sum(s.blocks_delivered for s in result.statuses),
        misses=result.total_misses,
        rounds=rounds,
        continuity_ratio=ratio(result.continuous_sessions, result.admitted),
        reject_rate=ratio(len(result.rejects), len(result.statuses)),
        cache_hit_ratio=ratio(hits, hits + cache_misses),
        **extra,
        **_slo_counts(obs),
    )


def _server_metrics(run) -> Dict[str, Optional[float]]:
    final = run.final
    return _served_metrics(final, [final.cache_stats], final.rounds, run.obs)


def _server_healthy(run) -> bool:
    # Every discontinuity is an injected fault's skip.
    statuses = run.final.statuses
    return sum(s.misses for s in statuses) == sum(s.skips for s in statuses)


def _cluster_metrics(run) -> Dict[str, Optional[float]]:
    result = run.result
    return _served_metrics(
        result,
        [serve.cache_stats for node in result.per_node
         for serve in node.results],
        sum(node.rounds for node in result.per_node),
        run.obs,
        handoffs=len(result.handoffs),
        handoff_clean_ratio=ratio(
            result.handoffs_clean, len(result.handoffs)
        ),
    )


def _cluster_healthy(run) -> bool:
    result = run.result
    clean = result.handoff_clean_ratio
    return result.continuous_sessions == result.admitted and (
        clean is None or clean > 0.9
    )


def _scale_metrics(result) -> Dict[str, Optional[float]]:
    return _metrics(
        blocks_delivered=result.blocks_delivered,
        misses=result.misses,
        rounds=result.rounds,
        continuity_ratio=ratio(
            result.blocks_delivered - result.misses,
            result.blocks_delivered,
        ),
        reject_rate=0.0,
    )


#: The cluster scenarios are watched with per-node cost attribution on.
_CLUSTER_OBSERVABILITY = partial(cluster_observability, profile=True)
_FAULT_MIX = ("transient", "defects", "retry_budget")
_CLUSTER_SIZING = (
    "nodes", "sessions", "titles", "seconds", "per_node_streams",
    "min_replicas", "chunks",
)

SCENARIOS: Dict[str, Scenario] = {
    entry.name: entry
    for entry in (
        Scenario(
            name="steady",
            params=_defaults(run_steady_scenario, "seconds", "requests", "k"),
            runner=run_steady_scenario,
            metrics=_session_metrics,
            healthy=_session_healthy,
            observability=slo_observability,
        ),
        Scenario(
            name="fault",
            params=_defaults(
                run_fault_scenario, "seconds", *_FAULT_MIX, "k",
                "head_failure_at_op",
            ),
            runner=run_fault_scenario,
            metrics=_session_metrics,
            healthy=_session_healthy,
            observability=slo_observability,
        ),
        Scenario(
            name="server-steady",
            params=_defaults(run_server_steady_scenario, "seconds", "clients"),
            runner=run_server_steady_scenario,
            metrics=_server_metrics,
            healthy=_server_healthy,
            observability=slo_observability,
        ),
        Scenario(
            name="server-hot",
            params={
                **_defaults(
                    run_server_hot_scenario, "sessions", "strands",
                    "seconds", "batch_window", "cache_blocks",
                ),
                "batching": True,
            },
            smoke={"sessions": 6, "strands": 2, "seconds": 1.0},
            runner=lambda batching, batch_window, **p: (
                run_server_hot_scenario(
                    batch_window=batch_window if batching else 0.0, **p
                )
            ),
            metrics=_server_metrics,
            healthy=_server_healthy,
            observability=Observability.for_scale,
            axes=("cache_blocks", "batching"),
            id_format=lambda spec: (
                f"server-hot-s{spec['sessions']}x{spec['strands']}"
                f"-c{spec['cache_blocks']}"
                f"-batch{'on' if spec['batching'] else 'off'}"
                f"-seed{spec['seed']}"
            ),
            # Cache-off / batch-off cells are degraded baselines that
            # reject by §3.4 design; only the acceptance set-up is golden.
            accepts=lambda spec: spec["cache_blocks"] > 0 and spec["batching"],
        ),
        Scenario(
            name="server-fault",
            params=_defaults(
                run_server_fault_scenario, "seconds", *_FAULT_MIX
            ),
            runner=run_server_fault_scenario,
            metrics=_server_metrics,
            healthy=_server_healthy,
            observability=slo_observability,
        ),
        Scenario(
            name="scale",
            params=_defaults(
                ScaleScenario, "streams", "blocks_per_stream", "k",
                "buffer_capacity", "drive", "arrivals",
            ),
            smoke={"streams": 4, "blocks_per_stream": 16},
            runner=lambda obs, **p: run_scale_scenario(
                ScaleScenario(name="scale", **p), obs
            ),
            metrics=_scale_metrics,
            # Overloaded by design (no admission), so misses are
            # expected; every block must still be delivered once.
            healthy=lambda result: result.blocks_delivered
            == result.streams * result.blocks_per_stream,
            observability=Observability.for_scale,
            axes=("drive",),
            choices={"arrivals": ARRIVALS, "drive": tuple(DRIVE_CONFIGS)},
            id_format=lambda spec: (
                f"scale-{spec['drive']}-{spec['arrivals']}"
                f"-n{spec['streams']}-b{spec['blocks_per_stream']}"
                f"-seed{spec['seed']}"
            ),
        ),
        Scenario(
            name="cluster-failover",
            params=_defaults(
                run_cluster_failover_scenario, *_CLUSTER_SIZING,
                "kill_node", "kill_chunk",
            ),
            smoke={
                "nodes": 3, "sessions": 12, "titles": 4, "seconds": 1.0,
                "per_node_streams": 8, "chunks": 3, "kill_chunk": 1,
            },
            runner=run_cluster_failover_scenario,
            metrics=_cluster_metrics,
            healthy=_cluster_healthy,
            observability=_CLUSTER_OBSERVABILITY,
            id_format=lambda spec: (
                f"cluster-n{spec['nodes']}-s{spec['sessions']}"
                f"-t{spec['titles']}-seed{spec['seed']}"
            ),
        ),
        Scenario(
            name="cluster-scale",
            params=_defaults(run_cluster_scale_scenario, *_CLUSTER_SIZING),
            smoke={
                "nodes": 3, "sessions": 12, "titles": 4,
                "per_node_streams": 8,
            },
            runner=run_cluster_scale_scenario,
            metrics=_cluster_metrics,
            healthy=_cluster_healthy,
            observability=_CLUSTER_OBSERVABILITY,
        ),
    )
}


#: Not a scenario but a paired timing measurement of ``scale`` (obs off
#: vs fully on); the experiment matrix accepts it as a workload kind.
OBS_OVERHEAD = Scenario(
    name="obs-overhead",
    params=_defaults(
        run_obs_overhead_scenario, "streams", "blocks_per_stream", "repeats"
    ),
    runner=lambda obs, **p: run_obs_overhead_scenario(**p),
    metrics=lambda result: _metrics(
        blocks_delivered=result.streams * result.blocks_per_stream
    ),
    id_format=lambda spec: (
        f"obs-overhead-n{spec['streams']}-b{spec['blocks_per_stream']}"
        f"-seed{spec['seed']}"
    ),
)
