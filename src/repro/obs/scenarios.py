"""Canonical observed scenarios: one steady run, one faulted run.

These are the fixed, seed-deterministic workloads behind the
``repro obs-report`` CLI, the golden-trace regression tests, and the
benchmark snapshot artifacts.  Everything they touch is simulated, so a
scenario's :meth:`~repro.obs.Observability.snapshot` is byte-identical
across runs with the same arguments — that string *is* the golden file.

This module imports the full service stack and therefore must not be
imported by :mod:`repro.obs`'s package ``__init__`` (the observability
core stays dependency-free so every layer can import it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.experiments import default_msm
from repro.config import DEFAULT_SEED, TESTBED_1991
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.media.frames import frames_for_duration
from repro.obs.observer import Observability
from repro.rope import Media, MultimediaRopeServer
from repro.service import PlaybackSession

__all__ = [
    "ScenarioRun",
    "run_steady_scenario",
    "run_fault_scenario",
    "slo_observability",
]


def slo_observability(seed: int = DEFAULT_SEED) -> Observability:
    """Full-fidelity observability with the default SLOs attached."""
    obs = Observability(seed=seed)
    obs.enable_slos()
    return obs


@dataclass
class ScenarioRun:
    """A completed scenario: the observer plus the session outcome."""

    obs: Observability
    result: object  #: :class:`repro.service.session.SessionResult`
    play_ids: List[str]

    def snapshot(self, include_profile: bool = False) -> str:
        """The run's stable JSON snapshot (golden-file content)."""
        return self.obs.snapshot(include_profile=include_profile)


def _record_plays(
    mrs: MultimediaRopeServer,
    requests: int,
    seconds: float,
    source: str,
) -> List[str]:
    profile = TESTBED_1991
    play_ids = []
    for i in range(requests):
        frames = frames_for_duration(
            profile.video, seconds, source=f"{source}-{i}"
        )
        request_id, rope_id = mrs.record(f"user-{i}", frames=frames)
        mrs.stop(request_id)
        play_ids.append(
            mrs.play(f"user-{i}", rope_id, media=Media.VIDEO)
        )
    return play_ids


def run_steady_scenario(
    seconds: float = 4.0,
    requests: int = 2,
    k: int = 4,
    seed: int = DEFAULT_SEED,
    obs: Optional[Observability] = None,
) -> ScenarioRun:
    """Steady state: *requests* healthy video playbacks, round-robin.

    No faults, no admission rejections — the baseline whose snapshot
    shows what a continuity-clean run looks like (every session
    conserved, zero ``fault.*`` counters, slack comfortably positive).
    The run itself draws nothing random; *seed* seeds the default
    observer's trace ids.
    """
    if obs is None:
        obs = slo_observability(seed)
    mrs = MultimediaRopeServer(default_msm(obs=obs))
    play_ids = _record_plays(mrs, requests, seconds, "steady")
    session = PlaybackSession(mrs)
    result = session.run(play_ids, k=k)
    return ScenarioRun(obs=obs, result=result, play_ids=play_ids)


def run_fault_scenario(
    seconds: float = 6.0,
    seed: int = DEFAULT_SEED,
    transient: int = 4,
    defects: int = 2,
    retry_budget: int = 2,
    k: int = 4,
    head_failure_at_op: Optional[int] = None,
    obs: Optional[Observability] = None,
) -> ScenarioRun:
    """Fault injection: one playback over a drive with scripted faults.

    Transients recover inside the retry budget (``fault.retries`` /
    ``fault.recovered_reads``), media defects each become exactly one
    skip (``fault.skips`` and a ``skipped`` terminal in the timeline),
    and an optional head failure degrades service and leaves a
    ``revalidate`` entry in the admission audit log.
    """
    if obs is None:
        obs = slo_observability(seed)
    mrs = MultimediaRopeServer(default_msm(obs=obs))
    play_ids = _record_plays(mrs, 1, seconds, "faulted")
    slots = [
        fetch.slot
        for fetch in mrs.playback_plan(play_ids[0]).video
        if fetch.slot is not None
    ]
    plan = FaultPlan.random(
        seed=seed,
        slots=slots,
        transient=transient,
        defects=defects,
        head_failure_at_op=head_failure_at_op,
    )
    mrs.msm.drive.attach_injector(FaultInjector(plan))
    session = PlaybackSession(
        mrs, recovery=RecoveryPolicy(retry_budget=retry_budget)
    )
    result = session.run(play_ids, k=k)
    return ScenarioRun(obs=obs, result=result, play_ids=play_ids)
