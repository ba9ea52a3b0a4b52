"""Canonical MediaServer scenarios: steady, hot-strand-batched, faulted.

These are the fixed, seed-deterministic workloads behind the
``repro serve`` CLI, the server golden-trace regressions, and the
server-scale benchmark comparison.  Everything is simulated, so a
scenario's :meth:`~repro.obs.Observability.snapshot` is byte-identical
across runs with the same arguments — that string *is* the golden file.

The headline scenario, :func:`run_server_hot_scenario`, is the ISSUE's
acceptance case: the testbed disk admits only ``n_max = 3`` concurrent
video streams per-request, yet the server sustains 50 concurrent
sessions over 5 hot strands — the warm-up epochs leave every hot block
resident, so the follow-up wave is batched and cache-admitted without
consuming any disk-round budget.  :func:`run_serve_compare` pits that
against per-request admission on the same disk for BENCH_PERF.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.experiments import default_msm
from repro.api import OpenSessionRequest, ServeResult
from repro.config import DEFAULT_SEED, TESTBED_1991
from repro.disk.drive import SimulatedDrive
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.media.frames import frames_for_duration
from repro.obs.observer import Observability
from repro.obs.scenarios import slo_observability
from repro.rope import Media, MultimediaRopeServer
from repro.server.media_server import MediaServer

__all__ = [
    "ServerScenarioRun",
    "build_media_server",
    "run_server_steady_scenario",
    "run_server_hot_scenario",
    "run_server_fault_scenario",
    "run_serve_compare",
]


@dataclass
class ServerScenarioRun:
    """A completed server scenario: the server plus its epoch results."""

    obs: Observability
    server: MediaServer
    results: List[ServeResult] = field(default_factory=list)
    rope_ids: List[str] = field(default_factory=list)

    @property
    def final(self) -> ServeResult:
        """The last (headline) epoch's result."""
        return self.results[-1]

    def snapshot(self, include_profile: bool = False) -> str:
        """The run's stable JSON snapshot (golden-file content)."""
        return self.obs.snapshot(include_profile=include_profile)


def _record_strands(
    mrs: MultimediaRopeServer,
    strands: int,
    seconds: float,
    clients: List[str],
    source: str,
) -> List[str]:
    """Record *strands* video ropes, playable by every listed client."""
    profile = TESTBED_1991
    rope_ids = []
    for i in range(strands):
        frames = frames_for_duration(
            profile.video, seconds, source=f"{source}-{i}"
        )
        request_id, rope_id = mrs.record(
            "librarian", frames=frames, play_access=tuple(clients)
        )
        mrs.stop(request_id)
        rope_ids.append(rope_id)
    return rope_ids


def build_media_server(
    obs: Optional[Observability] = None,
    cache_blocks: int = 512,
    batch_window: float = 0.25,
    requeue_limit: int = 0,
    recovery: Optional[RecoveryPolicy] = None,
    drive: Optional[SimulatedDrive] = None,
) -> MediaServer:
    """A MediaServer over a testbed storage manager.

    *drive* defaults to a fresh testbed drive.
    """
    return MediaServer(
        MultimediaRopeServer(default_msm(drive=drive, obs=obs)),
        batch_window=batch_window,
        cache_blocks=cache_blocks,
        requeue_limit=requeue_limit,
        recovery=recovery,
        obs=obs,
    )


def _hot_requests(
    rope_ids: List[str],
    sessions: int,
    seed: int,
    window: float,
) -> List[OpenSessionRequest]:
    """*sessions* opens spread round-robin over the hot ropes.

    Arrivals are seeded jitter inside half the batching window, so every
    strand's viewers land in one admission batch — deterministically.
    """
    rng = random.Random(seed)
    requests = []
    for i in range(sessions):
        rope_id = rope_ids[i % len(rope_ids)]
        requests.append(
            OpenSessionRequest(
                client_id=f"client-{i}",
                rope_id=rope_id,
                arrival=rng.uniform(0.0, window / 2.0),
                media=Media.VIDEO,
            )
        )
    return requests


def run_server_steady_scenario(
    seconds: float = 3.0,
    clients: int = 2,
    seed: int = DEFAULT_SEED,
    obs: Optional[Observability] = None,
) -> ServerScenarioRun:
    """Steady state: each client plays its own rope, no sharing.

    Every open is a batch of one and holds a real admission slot — the
    baseline snapshot a continuity-clean multi-tenant epoch produces.
    The run itself draws nothing random; *seed* seeds the default
    observer's trace ids.
    """
    if obs is None:
        obs = slo_observability(seed)
    server = build_media_server(obs)
    client_ids = [f"client-{i}" for i in range(clients)]
    rope_ids = _record_strands(
        server.mrs, clients, seconds, client_ids, "steady"
    )
    requests = [
        OpenSessionRequest(
            client_id=client_ids[i],
            rope_id=rope_ids[i],
            arrival=0.0,
            media=Media.VIDEO,
        )
        for i in range(clients)
    ]
    result = server.serve(requests)
    return ServerScenarioRun(
        obs=obs, server=server, results=[result], rope_ids=rope_ids
    )


def run_server_hot_scenario(
    sessions: int = 50,
    strands: int = 5,
    seconds: float = 2.0,
    seed: int = DEFAULT_SEED,
    warm: bool = True,
    cache_blocks: int = 512,
    batch_window: float = 0.25,
    obs: Optional[Observability] = None,
) -> ServerScenarioRun:
    """The acceptance scenario: many concurrent viewers of few strands.

    Warm-up epochs (one viewer per strand, run one at a time so the
    3-stream testbed disk admits each) leave every hot block resident in
    the cache.  The hot wave — *sessions* opens over *strands* ropes,
    arriving within the batching window — is then batched per strand and
    **cache-admitted**: zero controller slots, zero disk reads, every
    session continuous.
    """
    if obs is None:
        obs = Observability.for_scale(seed=seed)
    server = build_media_server(
        obs, cache_blocks=cache_blocks, batch_window=batch_window
    )
    client_ids = [f"client-{i}" for i in range(sessions)] + ["warmer"]
    rope_ids = _record_strands(
        server.mrs, strands, seconds, client_ids, "hot"
    )
    run = ServerScenarioRun(
        obs=obs, server=server, rope_ids=rope_ids
    )
    if warm and cache_blocks > 0:
        for rope_id in rope_ids:
            run.results.append(
                server.serve([
                    OpenSessionRequest(
                        client_id="warmer",
                        rope_id=rope_id,
                        arrival=0.0,
                        media=Media.VIDEO,
                    )
                ])
            )
    requests = _hot_requests(
        rope_ids, sessions, seed, server.batch_window
    )
    run.results.append(server.serve(requests))
    return run


def run_server_fault_scenario(
    seconds: float = 3.0,
    seed: int = DEFAULT_SEED,
    transient: int = 4,
    defects: int = 2,
    retry_budget: int = 2,
    obs: Optional[Observability] = None,
) -> ServerScenarioRun:
    """Fault injection through the cache: one batch over a faulted drive.

    A leader + follower batch plays a strand whose slots carry scripted
    transients and media defects.  The leader's recovered reads populate
    the cache (followers hit them); faulted reads never do — a defect
    skips on the leader *and* on the follower, because a failed read is
    never resident.  The snapshot pins the fault counters, the cache
    counters, and the audit trail together.
    """
    if obs is None:
        obs = slo_observability(seed)
    server = build_media_server(
        obs, recovery=RecoveryPolicy(retry_budget=retry_budget)
    )
    clients = ["client-0", "client-1"]
    rope_ids = _record_strands(server.mrs, 1, seconds, clients, "faulted")
    plan_slots = []
    rope = server.mrs.get_rope(rope_ids[0])
    for segment in rope.segments:
        track = segment.video
        strand = server.mrs.msm.get_strand(track.strand_id)
        plan_slots.extend(
            slot for slot in strand.slots() if slot is not None
        )
    plan = FaultPlan.random(
        seed=seed,
        slots=plan_slots,
        transient=transient,
        defects=defects,
    )
    server.mrs.msm.drive.attach_injector(FaultInjector(plan))
    requests = [
        OpenSessionRequest(
            client_id=clients[i],
            rope_id=rope_ids[0],
            arrival=0.01 * i,
            media=Media.VIDEO,
        )
        for i in range(2)
    ]
    result = server.serve(requests)
    return ServerScenarioRun(
        obs=obs, server=server, results=[result], rope_ids=rope_ids
    )


def run_serve_compare(
    sessions: int,
    strands: int,
    seconds: float,
    seed: int = DEFAULT_SEED,
) -> Dict:
    """Batched+cached vs per-request admission on the same disk.

    Two identically-built servers get the identical hot wave; the
    batched one warms its cache first (the per-request one has no cache
    to warm).  Returns the BENCH_PERF.json ``server_compare`` record.
    """
    hot = run_server_hot_scenario(
        sessions=sessions, strands=strands, seconds=seconds, seed=seed
    )
    batched = hot.final
    baseline_server = build_media_server(
        obs=None, cache_blocks=0, batch_window=0.0
    )
    client_ids = [f"client-{i}" for i in range(sessions)]
    rope_ids = _record_strands(
        baseline_server.mrs, strands, seconds, client_ids, "hot"
    )
    requests = _hot_requests(
        rope_ids, sessions, seed, hot.server.batch_window
    )
    per_request = baseline_server.serve(requests)
    return {
        "sessions": sessions,
        "strands": strands,
        "seconds": seconds,
        "seed": seed,
        "batched": {
            "continuous": batched.continuous_sessions,
            "admitted": batched.admitted,
            "rejected": len(batched.rejects),
            "batches": batched.batches,
            "cache_hits": batched.cache_stats.get("hits", 0),
            "cache_misses": batched.cache_stats.get("misses", 0),
        },
        "per_request": {
            "continuous": per_request.continuous_sessions,
            "admitted": per_request.admitted,
            "rejected": len(per_request.rejects),
            "batches": per_request.batches,
        },
    }
