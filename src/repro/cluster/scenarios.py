"""Canonical cluster scenarios: sharded scale and deterministic failover.

These are the seed-deterministic workloads behind the ``repro cluster``
CLI, the cluster benchmark record, and the cluster experiment cells.
Two headline runs:

* :func:`run_cluster_scale_scenario` — the ROADMAP's north-star step:
  1000+ concurrent sessions over a sharded catalog on N nodes, every
  session continuous at steady state (each node warms its replicas, so
  the hot waves are batched and cache-admitted exactly like the
  single-server acceptance scenario).  The run carries the VoD paper's
  analytical bounds (:mod:`repro.cluster.bounds`) next to the measured
  numbers.
* :func:`run_cluster_failover_scenario` — a node is killed mid-stream
  by a :class:`~repro.faults.FaultPlan` and its sessions hand off to
  surviving replicas; the acceptance bar is >90% of affected sessions
  resuming without a continuity break.

The registry entries ``cluster-scale`` and ``cluster-failover``
(:mod:`repro.scenarios`) carry their defaults and smoke sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import ClusterServeResult, Media, OpenSessionRequest
from repro.config import DEFAULT_SEED
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs.observer import Observability
from repro.obs.slo import SloMonitor

from repro.cluster.bounds import ClusterBounds, bounds_for_placement
from repro.cluster.node import build_node
from repro.cluster.placement import (
    CatalogTitle,
    PlacementPolicy,
    zipf_popularity,
)
from repro.cluster.router import CLUSTER_SLOS, MediaCluster

__all__ = [
    "ClusterScenarioRun",
    "build_cluster",
    "cluster_observability",
    "run_cluster_scale_scenario",
    "run_cluster_failover_scenario",
]


@dataclass
class ClusterScenarioRun:
    """A completed cluster scenario and everything it measured."""

    obs: Observability
    cluster: MediaCluster
    catalog: Tuple[CatalogTitle, ...]
    result: ClusterServeResult
    bounds: ClusterBounds
    demand: Dict[str, int] = field(default_factory=dict)

    @property
    def affected(self) -> int:
        """Sessions a node death touched (one per handoff decision)."""
        return len(self.result.handoffs)

    @property
    def clean_handoffs(self) -> int:
        """Handoffs that resumed with no continuity break."""
        return self.result.handoffs_clean

    def snapshot(self, include_profile: bool = False) -> str:
        """The run's stable JSON snapshot (golden-file content)."""
        return self.obs.snapshot(include_profile=include_profile)


def build_cluster(
    nodes: int,
    titles: int,
    seconds: float = 1.0,
    per_node_streams: int = 8,
    min_replicas: int = 2,
    clients: Optional[List[str]] = None,
    obs: Optional[Observability] = None,
    warm: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    cache_blocks: int = 512,
    batch_window: float = 0.25,
    scope_nodes: bool = True,
) -> Tuple[MediaCluster, Tuple[CatalogTitle, ...]]:
    """A cluster of *nodes* MediaServers sharing a Zipf catalog.

    Titles are ``T01..Tnn`` with classic Zipf(1) popularity; the
    placement policy mirrors each title onto at least *min_replicas*
    nodes (so every title has a failover target) and stripes replicas
    least-loaded-first.  Every node records its assigned replicas from
    the title's own deterministic frame source and, when *warm* is on,
    plays each once so the hot waves are cache-admitted.

    With *scope_nodes* (the default) each node is built against
    ``obs.scoped(node_id)`` — the federated per-node view — and the
    router's counters go through the ``"cluster"`` scope.  Shared
    totals are byte-identical either way (the equivalence test pins
    this); ``scope_nodes=False`` reproduces the legacy flat sharing.
    """
    catalog = tuple(
        CatalogTitle(
            title_id=f"T{rank:02d}",
            seconds=seconds,
            popularity=zipf_popularity(rank),
        )
        for rank in range(1, titles + 1)
    )
    node_ids = [f"node-{i:02d}" for i in range(nodes)]
    placement = PlacementPolicy(min_replicas=min_replicas).plan(
        catalog, node_ids, per_node_streams
    )
    viewers = list(clients or []) + ["warmer"]
    built = []
    for node_id in node_ids:
        node_obs = obs
        if obs is not None and scope_nodes:
            scoped = getattr(obs, "scoped", None)
            if scoped is not None:
                node_obs = scoped(node_id)
        node = build_node(
            node_id,
            capacity=per_node_streams,
            cache_blocks=cache_blocks,
            batch_window=batch_window,
            obs=node_obs,
        )
        for title in catalog:
            if node_id in placement.replicas(title.title_id):
                node.record_title(title, viewers)
        built.append(node)
    if warm and cache_blocks > 0:
        for node in built:
            for title_id in sorted(node.local_ropes):
                node.warm(title_id)
    cluster = MediaCluster(
        built, placement, fault_plan=fault_plan, obs=obs,
        scope_counters=scope_nodes,
    )
    return cluster, catalog


def _catalog_requests(
    catalog: Tuple[CatalogTitle, ...],
    sessions: int,
    seed: int,
    window: float,
) -> List[OpenSessionRequest]:
    """*sessions* opens drawn popularity-weighted over the catalog.

    Title choice and arrival jitter both come from one seeded RNG, so
    the workload (and everything downstream of it) is deterministic.
    Arrivals land inside half the batching window so each node sees its
    per-title viewers as one admission batch.
    """
    rng = random.Random(seed)
    weights = [title.popularity for title in catalog]
    requests = []
    for i in range(sessions):
        title = rng.choices(catalog, weights=weights)[0]
        requests.append(
            OpenSessionRequest(
                client_id=f"client-{i}",
                rope_id=title.title_id,
                arrival=rng.uniform(0.0, window / 2.0),
                media=Media.VIDEO,
            )
        )
    return requests


def cluster_observability(
    seed: int, profile: bool = False
) -> Observability:
    """A for-scale observability with the cluster objective set.

    With *profile* a :class:`~repro.obs.CostProfiler` is attached, so
    scenario runs additionally carry per-phase / per-node cost
    attribution (what ``repro obs-report`` and ``repro profile`` watch
    the cluster scenarios with).
    """
    obs = Observability.for_scale(seed=seed)
    obs.slo = SloMonitor(obs.registry, CLUSTER_SLOS)
    if profile:
        obs.enable_profiler()
    return obs


def _run(
    nodes: int,
    sessions: int,
    titles: int,
    seconds: float,
    per_node_streams: int,
    min_replicas: int,
    chunks: int,
    seed: int,
    obs: Optional[Observability],
    fault_plan: Optional[FaultPlan],
    scope_nodes: bool = True,
) -> ClusterScenarioRun:
    if obs is None:
        obs = cluster_observability(seed)
    clients = [f"client-{i}" for i in range(sessions)]
    cluster, catalog = build_cluster(
        nodes=nodes,
        titles=titles,
        seconds=seconds,
        per_node_streams=per_node_streams,
        min_replicas=min_replicas,
        clients=clients,
        obs=obs,
        fault_plan=fault_plan,
        scope_nodes=scope_nodes,
    )
    batch_window = cluster.nodes[0].server.batch_window
    requests = _catalog_requests(catalog, sessions, seed, batch_window)
    demand: Dict[str, int] = {}
    for request in requests:
        demand[request.rope_id] = demand.get(request.rope_id, 0) + 1
    result = cluster.serve(requests, chunks=chunks)
    bounds = bounds_for_placement(
        cluster.placement,
        nodes=nodes,
        per_node_streams=per_node_streams,
        per_node_titles=titles,
        demand=demand,
    )
    return ClusterScenarioRun(
        obs=obs,
        cluster=cluster,
        catalog=catalog,
        result=result,
        bounds=bounds,
        demand=demand,
    )


def run_cluster_scale_scenario(
    nodes: int = 20,
    sessions: int = 1000,
    titles: int = 40,
    seconds: float = 1.0,
    per_node_streams: int = 75,
    min_replicas: int = 2,
    chunks: int = 1,
    seed: int = DEFAULT_SEED,
    obs: Optional[Observability] = None,
    scope_nodes: bool = True,
) -> ClusterScenarioRun:
    """The north-star run: 1000+ concurrent sessions, all continuous.

    Warmed replicas make every hot wave cache-admitted, so the cluster
    sustains far beyond the per-request disk limit — the measured
    numbers are reported against the analytical full-catalog and
    single-video bounds in :attr:`ClusterScenarioRun.bounds`.
    """
    return _run(
        nodes, sessions, titles, seconds, per_node_streams,
        min_replicas, chunks, seed, obs, fault_plan=None,
        scope_nodes=scope_nodes,
    )


def run_cluster_failover_scenario(
    nodes: int = 4,
    sessions: int = 32,
    titles: int = 8,
    seconds: float = 2.0,
    per_node_streams: int = 24,
    min_replicas: int = 2,
    chunks: int = 4,
    kill_node: int = 1,
    kill_chunk: int = 2,
    seed: int = DEFAULT_SEED,
    obs: Optional[Observability] = None,
    scope_nodes: bool = True,
) -> ClusterScenarioRun:
    """Kill one node mid-stream; its sessions hand off and finish.

    The fault plan is explicit and deterministic: node *kill_node* dies
    at chunk boundary *kill_chunk*; every session it was serving is
    re-admitted onto the least-loaded surviving replica (the catalog is
    mirrored with ``min_replicas >= 2``, so a target exists).  The
    acceptance bar — >90% of affected sessions resume cleanly — is also
    the ``handoff-clean`` SLO, so a regression shows up as a breach
    event in the snapshot.
    """
    plan = FaultPlan([
        FaultSpec(
            kind=FaultKind.HEAD_FAILURE,
            at_op=kill_chunk,
            drive_index=kill_node,
        )
    ], seed=seed)
    return _run(
        nodes, sessions, titles, seconds, per_node_streams,
        min_replicas, chunks, seed, obs, fault_plan=plan,
        scope_nodes=scope_nodes,
    )
