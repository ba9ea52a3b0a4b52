"""Round-robin servicing of multiple requests (§3.4).

"In order to service multiple requests simultaneously, the file system
proceeds in rounds.  In each round, it multiplexes among the media block
transfers of the n requests", reading k consecutive blocks per request
before switching; switching costs a real head movement (bounded by the
maximum seek).

:class:`RoundRobinService` replays any number of playback plans through
one simulated drive under a per-round k schedule, scoring continuity per
request.  It supports:

* mid-run admissions (new streams joining at a chosen round) with either
  the paper's transition-safe step-of-1 k growth or a naive jump — the
  E3 experiment's comparison;
* buffer-capacity regulation ("regulating the number of data blocks
  transferred for each request during each service round, so as not to
  overflow the buffering available in the display subsystem");
* per-request playback clocks that start when the request's anti-jitter
  read-ahead (its first k-block service) completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.disk.drive import SimulatedDrive
from repro.errors import HeadFailureError, ParameterError
from repro.faults.recovery import RecoveryPolicy, read_with_recovery
from repro.obs.registry import (
    DEADLINE_SLACK_BUCKETS,
    QUEUE_DEPTH_BUCKETS,
    ROUND_UTILIZATION_BUCKETS,
)
from repro.obs.timeline import BlockStage
from repro.rope.server import BlockFetch
from repro.sim.metrics import ContinuityMetrics
from repro.sim.trace import Tracer

__all__ = [
    "StreamState",
    "Admission",
    "RoundRobinService",
    "consumed_prefix",
]


def consumed_prefix(
    deliveries: Sequence[Tuple[float, float, float]],
    start: float,
    now: float,
) -> Tuple[int, float]:
    """Reference playback-consumption scan: ``(count, elapsed)`` at *now*.

    Playback cascades over the delivery schedule: block j starts when its
    data is ready and the previous block has finished, so consumption is a
    running fold over ``(ready, duration)``.  This is the O(n) rescan the
    :class:`StreamState` cursor replaces on its hot path; it remains the
    ground truth for non-monotone queries and for the equivalence tests.
    """
    count = 0
    elapsed = start
    for ready, _deadline, duration in deliveries:
        end = max(elapsed, ready) + duration
        if end <= now:
            count += 1
            elapsed = end
        else:
            break
    return count, elapsed


def _sampled_indexes(
    keep: Optional[int], every: Optional[int], total: int
) -> Sequence[int]:
    """Block indexes of a *total*-block stream the sample keeps, in order.

    The first *keep* indexes, then every *every*-th past them; every
    index when *keep* is None.
    """
    if keep is None:
        return range(total)
    indexes = list(range(min(keep, total)))
    if every is not None:
        indexes.extend(range(keep + (-keep % every), total, every))
    return indexes


def _play(elapsed: float, deliveries: Sequence[Tuple[float, float, float]]):
    """The playback clock after *deliveries* play in turn from *elapsed*.

    Each block starts when its data is ready and the previous block has
    finished (the cascade :func:`consumed_prefix` folds).
    """
    for ready, _deadline, duration in deliveries:
        if ready > elapsed:
            elapsed = ready
        elapsed += duration
    return elapsed


@dataclass
class StreamState:
    """One request's progress through its fetch plan.

    ``k_override``, when set, replaces the round's global k for this
    stream — the per-request k_i of Eq. (11)'s general formulation
    (see :func:`repro.core.admission.solve_heterogeneous_k`).
    """

    request_id: str
    fetches: Sequence[BlockFetch]
    buffer_capacity: int
    k_override: Optional[int] = None
    next_fetch: int = 0
    clock_start: Optional[float] = None
    _elapsed_playback: float = 0.0
    metrics: ContinuityMetrics = field(default_factory=ContinuityMetrics)
    #: (ready time, deadline, duration) per delivered block.
    deliveries: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Delivery indexes whose data never arrived (fault-recovery skips);
    #: the playback timeline still advances over them (the glitch).
    skipped_indices: Set[int] = field(default_factory=set)
    #: Causal-trace context: the server-side root span (or wire dict)
    #: this stream's service spans continue, if any.
    trace: object = None
    #: Consumption cursor: blocks fully played as of the last query, and
    #: the playback clock right after the last consumed block.  Block end
    #: times are non-decreasing, so the cursor only ever moves forward
    #: while query times are monotone — the service loop's case — making
    #: every consumption query O(1) amortized over a stream's lifetime.
    _consumed_count: int = field(default=0, init=False, repr=False)
    _consumed_end: float = field(default=0.0, init=False, repr=False)
    #: Smallest positive block duration in the fetch plan (the Eq.-11
    #: budget term), computed lazily since the plan never changes.
    _duration_floor: Optional[float] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.metrics.request_id = self.request_id
        if self.buffer_capacity < 1:
            raise ParameterError(
                f"buffer_capacity must be >= 1, got {self.buffer_capacity}"
            )

    @property
    def finished(self) -> bool:
        """True when every block has been delivered."""
        return self.next_fetch >= len(self.fetches)

    def _consume_state(self, now: float) -> Tuple[int, float]:
        """``(consumed count, playback clock after them)`` at *now*.

        Advances the cached cursor forward when *now* has not moved
        backwards; a query earlier than the last consumed block's end
        (never issued by the service loop) falls back to the reference
        rescan without disturbing the cursor.
        """
        if self.clock_start is None:
            return 0, 0.0
        count = self._consumed_count
        if count and now < self._consumed_end:
            return consumed_prefix(self.deliveries, self.clock_start, now)
        elapsed = self._consumed_end if count else self.clock_start
        deliveries = self.deliveries
        total = len(deliveries)
        while count < total:
            ready, _deadline, duration = deliveries[count]
            end = max(elapsed, ready) + duration
            if end > now:
                break
            count += 1
            elapsed = end
        if count != self._consumed_count:
            self._consumed_count = count
            self._consumed_end = elapsed
        return count, elapsed

    def consumed_at(self, now: float) -> int:
        """Blocks whose playback has completed by *now*."""
        return self._consume_state(now)[0]

    def buffered_at(self, now: float) -> int:
        """Blocks sitting in the display buffer at *now*."""
        return len(self.deliveries) - self._consume_state(now)[0]

    def next_consumption_time(self, now: float) -> float:
        """When the next buffered block finishes playing (inf if never).

        Used by the service loop to advance time when every stream's
        buffer is full — consumption is the only thing that frees space.
        """
        if self.clock_start is None:
            return float("inf")
        count, elapsed = self._consume_state(now)
        if count >= len(self.deliveries):
            return float("inf")
        ready, _deadline, duration = self.deliveries[count]
        return max(elapsed, ready) + duration


@dataclass(frozen=True)
class Admission:
    """A stream joining the service at the start of a given round."""

    round_number: int
    stream: StreamState


class RoundRobinService:
    """The §3.4 service loop over one drive.

    Parameters
    ----------
    drive:
        The shared mechanism.
    k_schedule:
        Callable ``(round_number, active_count) -> k`` giving the blocks
        per request to transfer in that round.  The paper's algorithm
        passes the admission controller's staged plan through this hook.
    tracer:
        Optional event tracer.
    recovery:
        Fault-recovery policy applied when the drive carries a
        :class:`~repro.faults.injector.FaultInjector`; defaults to the
        standard bounded retry.
    on_head_failure:
        Invoked once, with the :class:`HeadFailureError`, the first time
        the drive's head dies mid-service (admission revalidation hook).
    obs:
        Optional :class:`~repro.obs.Observability` handle.  When given,
        the loop feeds the round-utilization / queue-depth histograms
        and the delivered/skipped/miss counters for every block.  Per
        block it tests the handle's one block sample
        (``block_keep_first`` / ``block_every_kth``) once; a sampled
        block records its session-timeline stages, its ``service.block``
        span and, at the end of the run, its deadline slack.  When None
        (the default) every hook is a single ``is None`` test.
    """

    def __init__(
        self,
        drive: SimulatedDrive,
        k_schedule: Callable[[int, int], int],
        tracer: Optional[Tracer] = None,
        recovery: Optional[RecoveryPolicy] = None,
        on_head_failure: Optional[Callable[[HeadFailureError], None]] = None,
        obs=None,
    ):
        self.drive = drive
        self.k_schedule = k_schedule
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.on_head_failure = on_head_failure
        self.head_failure: Optional[HeadFailureError] = None
        self.rounds_run = 0
        self.obs = obs
        # Hoisted observability handles: the per-block hot loop reads
        # these locals-of-self instead of chasing obs attributes, and a
        # disabled surface is a plain None test.
        self._tl = None
        self._sp = None
        #: The block sample as the per-block test reads it: index < keep,
        #: or index a multiple of a nonzero every.  (0, 0) samples nothing
        #: — no per-block surface records — and keep is infinite when the
        #: sample is every block.
        self._keep: float = 0
        self._every = 0
        self._slo = None
        self._prof = None
        self._stream_spans: Dict[str, object] = {}
        self._drive_traced = hasattr(drive, "traced_read")
        if obs is not None:
            registry = obs.registry
            self._obs_slack = registry.histogram(
                "session.deadline_slack_s", DEADLINE_SLACK_BUCKETS
            )
            self._obs_depth = registry.histogram(
                "service.queue_depth", QUEUE_DEPTH_BUCKETS
            )
            self._obs_util = registry.histogram(
                "service.round_utilization", ROUND_UTILIZATION_BUCKETS
            )
            self._obs_delivered = registry.counter(
                "session.blocks_delivered"
            )
            self._obs_skipped = registry.counter("session.blocks_skipped")
            self._obs_misses = registry.counter("session.deadline_misses")
            if obs.timeline.enabled:
                self._tl = obs.timeline
            if obs.tracer.enabled:
                self._sp = obs.tracer
            if self._tl is not None or self._sp is not None:
                keep = obs.block_keep_first
                self._keep = math.inf if keep is None else keep
                self._every = obs.block_every_kth or 0
            self._slo = getattr(obs, "slo", None)
            self._prof = getattr(obs, "profiler", None)
            if tracer is not None and hasattr(obs, "attach_sim_tracer"):
                obs.attach_sim_tracer(self.tracer)

    def _extra_work_pending(self) -> bool:
        """Hook for subclasses with non-playback work (e.g. recording).

        When True, the service loop keeps running rounds even after every
        playback stream has finished.
        """
        return False

    def run(
        self,
        initial: Sequence[StreamState],
        admissions: Sequence[Admission] = (),
        max_rounds: int = 100_000,
    ) -> Dict[str, ContinuityMetrics]:
        """Service all streams to completion; returns metrics per request."""
        time = 0.0
        active: List[StreamState] = list(initial)
        if self._sp is not None:
            for stream in active:
                self._open_stream_span(stream, time)
        pending = sorted(admissions, key=lambda a: a.round_number)
        next_pending = 0
        round_number = 0
        prof = self._prof
        while True:
            admitted_now = 0
            while (
                next_pending < len(pending)
                and pending[next_pending].round_number <= round_number
            ):
                admitted = pending[next_pending]
                next_pending += 1
                admitted_now += 1
                active.append(admitted.stream)
                self.tracer.emit(
                    time, "admit", admitted.stream.request_id,
                    f"round {round_number}",
                )
                if self._sp is not None:
                    self._open_stream_span(admitted.stream, time)
            # Compact finished streams out in place, preserving order.
            scanned = len(active)
            write = 0
            for stream in active:
                if not stream.finished:
                    active[write] = stream
                    write += 1
            if write != len(active):
                del active[write:]
            if prof is not None and (scanned or admitted_now):
                prof.record("admission_scan", ops=scanned + admitted_now)
            more_pending = next_pending < len(pending)
            if not active and not more_pending and not self._extra_work_pending():
                break
            if not active and more_pending and not self._extra_work_pending():
                round_number += 1
                continue
            k = self.k_schedule(round_number, len(active))
            if k < 1:
                raise ParameterError(
                    f"k schedule returned {k} for round {round_number}"
                )
            if self.obs is not None:
                self._obs_depth.observe(len(active))
                with self.obs.timed("service.round"):
                    time, progressed = self._run_round(
                        time, active, k, round_number
                    )
            else:
                time, progressed = self._run_round(
                    time, active, k, round_number
                )
            if not progressed:
                # Every buffer was full: idle until consumption frees one.
                if prof is not None:
                    prof.record("deadline_ordering", ops=len(active))
                wake = min(
                    stream.next_consumption_time(time) for stream in active
                )
                if wake == float("inf") or wake <= time:
                    raise ParameterError(
                        "service deadlocked: all buffers full and no "
                        "playback consuming them"
                    )
                time = wake
            round_number += 1
            self.rounds_run += 1
            if prof is not None:
                prof.checkpoint(time)
            if self._slo is not None:
                self._slo.on_round(time, round_number)
            if round_number > max_rounds:
                raise ParameterError(
                    f"exceeded {max_rounds} rounds; k schedule likely "
                    "starves a stream"
                )
        streams = list(initial) + [a.stream for a in admissions]
        if self.obs is not None:
            self._finalize_obs(streams)
        if self._slo is not None:
            self._slo.finalize(time)
        return {stream.request_id: stream.metrics for stream in streams}

    def _open_stream_span(self, stream: StreamState, time: float) -> None:
        """Start this stream's ``service.stream`` span.

        Parents on the server-side root span when the tracer has one
        bound for the request (or the stream carries a wire context);
        otherwise the span roots a trace keyed by the request id — the
        same trace id the server side would have produced.
        """
        tracer = self._sp
        parent = stream.trace
        if parent is None:
            parent = tracer.context_for(stream.request_id)
        span = tracer.start_span(
            "service.stream",
            time,
            parent=parent,
            session=stream.request_id,
            attrs={"blocks": len(stream.fetches)},
        )
        if span is not None:
            self._stream_spans[stream.request_id] = span
            stream.trace = span

    def _finalize_obs(self, streams: Sequence[StreamState]) -> None:
        """Score the completed run into the observability surfaces.

        Consumption times are derivable only after the fact (playback
        cascades over the delivery schedule), so ``consumed`` timeline
        events and the deadline-slack histogram are recorded here, with
        the post-rescore deadlines, for each sampled, non-skipped block.
        """
        timeline = self._tl
        tracer = self._sp
        prof = self._prof
        slack_observe = self._obs_slack.observe
        for stream in streams:
            span = self._stream_spans.pop(stream.request_id, None)
            if stream.clock_start is None:
                if prof is not None:
                    prof.record("span_finalize", ops=1)
                if tracer is not None and span is not None:
                    tracer.end_span(span, span.start, status="unstarted")
                continue
            elapsed = stream.clock_start
            skipped = stream.skipped_indices
            deliveries = stream.deliveries
            # A continuous stream never stalled on a late block, so block
            # i finished playing at exactly deadline_i + duration_i and
            # only the sampled indexes are touched; any other stream
            # folds the playback cascade between sampled indexes.
            continuous = not skipped and not stream.metrics.misses
            pos = 0
            for index in _sampled_indexes(
                self.obs.block_keep_first,
                self.obs.block_every_kth,
                len(deliveries),
            ):
                ready, deadline, duration = deliveries[index]
                if continuous:
                    end = deadline + duration
                else:
                    end = elapsed = _play(elapsed, deliveries[pos:index + 1])
                    pos = index + 1
                if index in skipped:
                    continue
                if timeline is not None:
                    timeline.record(
                        end, stream.request_id, index, BlockStage.CONSUMED
                    )
                slack_observe(deadline - ready)
            if not continuous:
                elapsed = _play(elapsed, deliveries[pos:])
            elif deliveries:
                _ready, last_deadline, last_duration = deliveries[-1]
                elapsed = last_deadline + last_duration
            if prof is not None:
                prof.record(
                    "span_finalize", ops=len(deliveries) if deliveries else 1
                )
            self._obs_delivered.inc(len(deliveries) - len(skipped))
            if stream.metrics.misses:
                self._obs_misses.inc(stream.metrics.misses)
            if tracer is not None and span is not None:
                status = "ok" if stream.metrics.continuous else "degraded"
                tracer.end_span(span, elapsed, status=status)
        self.obs.registry.gauge("service.rounds_run").set(self.rounds_run)

    def _run_round(
        self,
        time: float,
        active: Sequence[StreamState],
        k: int,
        round_number: int,
    ) -> Tuple[float, bool]:
        progressed = False
        round_start = time
        #: Tightest Eq.-11 budget among streams served this round:
        #: min of (stream's k × its smallest positive block duration).
        budget = float("inf")
        obs = self.obs
        tl = self._tl
        sp = self._sp
        keep = self._keep
        every = self._every
        prof = self._prof
        # Consumption-cursor / deadline bookkeeping queries this round
        # (the buffer-room probe per stream + one per delivery).
        dq_ops = 0
        for stream in active:
            if stream.finished:
                continue
            stream_k = stream.k_override if stream.k_override else k
            # Buffer regulation: never exceed display-subsystem capacity.
            room = stream.buffer_capacity - stream.buffered_at(time)
            dq_ops += 1
            quota = min(stream_k, max(0, room))
            if quota == 0:
                self.tracer.emit(
                    time, "buffer-full", stream.request_id,
                    f"round {round_number}",
                )
                continue
            stream_start = time
            delivered = 0
            while delivered < quota and not stream.finished:
                index = stream.next_fetch
                fetch = stream.fetches[index]
                tl_on = False
                block_span = None
                if index < keep or (every and not index % every):
                    # A sampled block: its timeline stages and its
                    # service.block span, which opens before the read so
                    # the read's spans parent on it.
                    tl_on = tl is not None
                    if tl_on:
                        rid = stream.request_id
                        tl.record(time, rid, index, BlockStage.ENQUEUED)
                        if fetch.slot is not None:
                            tl.record(time, rid, index, BlockStage.READ_START)
                    if sp is not None:
                        block_span = sp.start_span(
                            "service.block",
                            time,
                            parent=stream.trace,
                            session=stream.request_id,
                            attrs={"block": index, "round": round_number},
                        )
                skipped = False
                if fetch.slot is not None:
                    time, skipped = self._fetch_block(
                        stream, fetch, time, block_span
                    )
                self._deliver(stream, fetch, time, skipped=skipped)
                stream.next_fetch += 1
                delivered += 1
                progressed = True
                if block_span is not None:
                    sp.end_span(
                        block_span, time,
                        status="skipped" if skipped else "ok",
                    )
                if tl_on:
                    tl.record(time, rid, index, BlockStage.READ_DONE)
                    if skipped:
                        tl.record(time, rid, index, BlockStage.SKIPPED)
                if skipped and obs is not None:
                    self._obs_skipped.inc()
            if delivered:
                dq_ops += delivered
                if prof is not None:
                    prof.attribute_stream(
                        stream.request_id,
                        cost=time - stream_start,
                        ops=delivered,
                    )
            if obs is not None and delivered:
                floor = stream._duration_floor
                if floor is None:
                    # The fetch plan is immutable, so the stream's
                    # smallest positive block duration is computed once
                    # and cached for every later round.
                    durations = [f.duration for f in stream.fetches]
                    floor = min(durations) if durations else 0.0
                    if floor <= 0.0:
                        floor = min(
                            (d for d in durations if d > 0.0),
                            default=0.0,
                        )
                    stream._duration_floor = floor
                if floor > 0.0:
                    stream_budget = stream_k * floor
                    if stream_budget < budget:
                        budget = stream_budget
            # Playback starts once the anti-jitter read-ahead — the first
            # k-block service, capped by what the display buffer can
            # actually hold — is on board.
            threshold = min(
                stream_k, stream.buffer_capacity, len(stream.fetches)
            )
            if stream.clock_start is None and (
                len(stream.deliveries) >= threshold
            ):
                stream.clock_start = time
                stream.metrics.startup_latency = time
                self._rescore(stream)
                self.tracer.emit(
                    time, "playback-start", stream.request_id,
                    f"after {len(stream.deliveries)} blocks",
                )
        if prof is not None and dq_ops:
            prof.record("deadline_ordering", ops=dq_ops)
        if (
            self.obs is not None
            and progressed
            and budget != float("inf")
            and budget > 0
        ):
            self._obs_util.observe((time - round_start) / budget)
        return time, progressed

    def _fetch_block(
        self,
        stream: StreamState,
        fetch: BlockFetch,
        time: float,
        span=None,
    ) -> Tuple[float, bool]:
        """Read one block with fault recovery; returns (time, skipped).

        With a sampled *span* (the block's ``service.block`` span) and a
        trace-capable drive, the read itself is traced — a
        ``cache.read``/``disk.access`` child per access, and
        ``fault.retry``/``fault.skip`` spans on the recovery path.
        """
        if self.drive.injector is None:
            # Healthy drive: the original zero-overhead path.
            if span is not None and self._drive_traced:
                elapsed = self.drive.traced_read(
                    fetch.slot, fetch.bits, time, self._sp, span
                )
                return time + elapsed, False
            return time + self.drive.read_slot(fetch.slot, fetch.bits), False
        deadline = None
        if stream.clock_start is not None:
            deadline = stream.clock_start + stream._elapsed_playback
        try:
            elapsed, ok = read_with_recovery(
                self.drive,
                fetch.slot,
                fetch.bits,
                self.recovery,
                now=time,
                deadline=deadline,
                tracer=self.tracer,
                subject=stream.request_id,
                obs=self.obs,
                span_tracer=self._sp if span is not None else None,
                span=span,
            )
        except HeadFailureError as fault:
            self._note_head_failure(fault, time + fault.elapsed)
            return time + fault.elapsed, True
        return time + elapsed, not ok

    def _note_head_failure(
        self, fault: HeadFailureError, time: float
    ) -> None:
        """Record the (first) head failure and fire the degrade hook."""
        if self.head_failure is not None:
            return
        self.head_failure = fault
        self.tracer.emit(
            time, "fault.degrade", "service",
            f"head {fault.drive_index} lost; degraded service, "
            "admission revalidation requested",
        )
        if self.on_head_failure is not None:
            self.on_head_failure(fault)

    def _deliver(
        self,
        stream: StreamState,
        fetch: BlockFetch,
        ready: float,
        skipped: bool = False,
    ) -> None:
        if skipped:
            stream.skipped_indices.add(len(stream.deliveries))
        if stream.clock_start is None:
            # Deadline unknown until the clock starts; placeholder scored
            # in _rescore.
            stream.deliveries.append((ready, float("nan"), fetch.duration))
            return
        deadline = stream.clock_start + stream._elapsed_playback
        stream._elapsed_playback += fetch.duration
        stream.deliveries.append((ready, deadline, fetch.duration))
        if skipped:
            stream.metrics.record_skip(ready, deadline)
        else:
            stream.metrics.record_delivery(ready, deadline)
        high = stream.buffered_at(ready)
        stream.metrics.buffer_high_water = max(
            stream.metrics.buffer_high_water, high
        )

    def _rescore(self, stream: StreamState) -> None:
        """Assign deadlines to pre-start deliveries once the clock starts."""
        start = stream.clock_start
        assert start is not None
        rescored: List[Tuple[float, float, float]] = []
        elapsed = 0.0
        for index, (ready, _deadline, duration) in enumerate(
            stream.deliveries
        ):
            deadline = start + elapsed
            elapsed += duration
            rescored.append((ready, deadline, duration))
            if index in stream.skipped_indices:
                stream.metrics.record_skip(ready, deadline)
            else:
                stream.metrics.record_delivery(ready, deadline)
        stream.deliveries = rescored
        stream._elapsed_playback = elapsed
