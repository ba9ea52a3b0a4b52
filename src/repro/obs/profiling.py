"""Deterministic cost-attribution profiling and node-scoped registries.

Two related tools for answering "where does round time actually go?"
without sacrificing the byte-stability contract every other obs surface
keeps:

* :class:`CostProfiler` decomposes a run into the named service
  **phases** of :data:`PHASES` — the §3.4 round loop's admission scan
  and deadline bookkeeping, the drive's positioning (seek + rotation)
  and media transfer, cache lookups, fault-recovery overhead, and
  per-stream span finalize — accumulating *operation counts* and
  *modeled-time costs* per phase, per stream, per drive, and per
  cluster node.  Costs are **simulated seconds only**: the profiler
  never reads the wall clock, so two runs at the same seed serialize
  byte-identically (the ``repro profile --json`` acceptance bar).
* :class:`ScopedObservability` is the node-scoped view of one shared
  :class:`~repro.obs.Observability` that the cluster hands each
  :class:`~repro.cluster.ClusterNode` instead of flat sharing: every
  counter/gauge/histogram/timer write lands in **both** the shared
  registry (so cluster-wide totals, SLOs, and goldens are unchanged)
  and a private per-node registry (so hot spots are attributable).
  :func:`merge_snapshots` folds the per-node views back into one
  byte-stable cluster snapshot whose counters equal the legacy
  flat-shared values exactly.

Phase taxonomy (see docs/OBSERVABILITY.md for the full semantics):

========================  ====================================================
``admission_scan``        per-round pending-admission pops + active-list
                          compaction scans (ops; zero modeled cost)
``deadline_ordering``     consumption-cursor / buffer-occupancy queries that
                          order deliveries against playback deadlines (ops;
                          zero modeled cost)
``seek``                  drive positioning: seek + rotational latency
                          (modeled seconds per access)
``transfer``              media transfer seconds per access
``cache_lookup``          block-cache residency probes (ops; a hit's memory
                          copy is below the model's time granularity)
``fault_recovery``        modeled delay attributable to injected faults:
                          doomed attempts and retry backoff windows (this
                          *overlaps* the seek/transfer charged to the failed
                          attempts — it is attribution, not conservation)
``span_finalize``         per-stream post-run scoring work: deliveries
                          folded into timeline/slack/span records (ops)
========================  ====================================================
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ParameterError
from repro.obs.registry import MetricsRegistry

__all__ = [
    "PHASES",
    "CostProfiler",
    "ScopedObservability",
    "ScopedRegistry",
    "merge_snapshots",
]

#: The fixed phase taxonomy a service round decomposes into.
PHASES: Tuple[str, ...] = (
    "admission_scan",
    "deadline_ordering",
    "seek",
    "transfer",
    "cache_lookup",
    "fault_recovery",
    "span_finalize",
)


class _PhaseStat:
    """Accumulated operations + modeled cost for one attribution key."""

    __slots__ = ("ops", "cost")

    def __init__(self) -> None:
        self.ops = 0
        self.cost = 0.0

    def add(self, cost: float, ops: int) -> None:
        self.ops += ops
        self.cost += cost

    def as_dict(self) -> Dict[str, Union[int, float]]:
        return {"ops": self.ops, "cost_s": self.cost}


class CostProfiler:
    """Deterministic per-phase cost accumulator.

    Parameters
    ----------
    enabled:
        When False every ``record`` is a no-op (call sites additionally
        guard on ``profiler is None``, the default).
    checkpoint_limit:
        Maximum retained per-round checkpoints for the Perfetto counter
        tracks.  When the limit fills, every other checkpoint is dropped
        and the sampling stride doubles — deterministic decimation, so
        the series stays bounded on million-round runs.
    top_streams:
        How many per-stream rows :meth:`summary_dict` retains (ranked
        by cost, then ops, then id — fully deterministic).
    """

    def __init__(
        self,
        enabled: bool = True,
        checkpoint_limit: int = 256,
        top_streams: int = 8,
    ):
        if checkpoint_limit < 2:
            raise ParameterError(
                f"checkpoint_limit must be >= 2, got {checkpoint_limit}"
            )
        if top_streams < 1:
            raise ParameterError(
                f"top_streams must be >= 1, got {top_streams}"
            )
        self.enabled = enabled
        self.checkpoint_limit = checkpoint_limit
        self.top_streams = top_streams
        self._phases: Dict[str, _PhaseStat] = {
            phase: _PhaseStat() for phase in PHASES
        }
        self._streams: Dict[str, _PhaseStat] = {}
        self._drives: Dict[str, Dict[str, _PhaseStat]] = {}
        self._nodes: Dict[str, Dict[str, _PhaseStat]] = {}
        self._scoped: Dict[str, "_ScopedProfiler"] = {}
        #: (simulated time, per-PHASES cumulative cost tuple).
        self._checkpoints: List[Tuple[float, Tuple[float, ...]]] = []
        self._checkpoint_stride = 1
        self._checkpoint_calls = 0

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        phase: str,
        cost: float = 0.0,
        ops: int = 1,
        drive: Optional[str] = None,
        node: Optional[str] = None,
    ) -> None:
        """Charge *ops* operations and *cost* modeled seconds to *phase*.

        *drive* and *node* additionally attribute the charge to a drive
        label / cluster node.  Unknown phases are a
        :class:`~repro.errors.ParameterError` — the taxonomy is closed
        so downstream rankings are comparable across runs.
        """
        if not self.enabled:
            return
        stat = self._phases.get(phase)
        if stat is None:
            raise ParameterError(
                f"unknown profile phase {phase!r}; known: "
                f"{', '.join(PHASES)}"
            )
        stat.ops += ops
        stat.cost += cost
        if drive is not None:
            per_drive = self._drives.get(drive)
            if per_drive is None:
                per_drive = self._drives[drive] = {}
            drive_stat = per_drive.get(phase)
            if drive_stat is None:
                drive_stat = per_drive[phase] = _PhaseStat()
            drive_stat.add(cost, ops)
        if node is not None:
            per_node = self._nodes.get(node)
            if per_node is None:
                per_node = self._nodes[node] = {}
            node_stat = per_node.get(phase)
            if node_stat is None:
                node_stat = per_node[phase] = _PhaseStat()
            node_stat.add(cost, ops)

    def attribute_stream(
        self, stream_id: str, cost: float = 0.0, ops: int = 1
    ) -> None:
        """Charge *cost* modeled seconds of service work to one stream."""
        if not self.enabled:
            return
        stat = self._streams.get(stream_id)
        if stat is None:
            stat = self._streams[stream_id] = _PhaseStat()
        stat.add(cost, ops)

    def checkpoint(self, time: float) -> None:
        """Sample the cumulative per-phase costs at simulated *time*.

        The service loop calls this once per round; decimation keeps the
        retained series under ``checkpoint_limit`` samples regardless of
        round count, and which rounds survive is a pure function of the
        call sequence (no randomness, no wall clock).
        """
        if not self.enabled:
            return
        self._checkpoint_calls += 1
        if self._checkpoint_calls % self._checkpoint_stride:
            return
        self._checkpoints.append((
            time,
            tuple(self._phases[phase].cost for phase in PHASES),
        ))
        if len(self._checkpoints) >= self.checkpoint_limit:
            self._checkpoints = self._checkpoints[::2]
            self._checkpoint_stride *= 2

    def scoped(self, node_id: str) -> "_ScopedProfiler":
        """A view whose records carry ``node=node_id`` attribution."""
        view = self._scoped.get(node_id)
        if view is None:
            view = self._scoped[node_id] = _ScopedProfiler(self, node_id)
        return view

    # -- rollups -----------------------------------------------------------------

    @property
    def total_cost(self) -> float:
        """Sum of modeled cost over all phases."""
        return sum(stat.cost for stat in self._phases.values())

    @property
    def total_ops(self) -> int:
        """Sum of operation counts over all phases."""
        return sum(stat.ops for stat in self._phases.values())

    def phase_shares(self) -> Dict[str, float]:
        """Each phase's share of the total, summing to 1.0 (± float eps).

        Shares are cost-weighted when any phase carried modeled cost;
        otherwise (a run with no drive attached) they fall back to
        operation-count weighting so the ranking is still meaningful.
        """
        total_cost = self.total_cost
        if total_cost > 0.0:
            return {
                phase: stat.cost / total_cost
                for phase, stat in self._phases.items()
            }
        total_ops = self.total_ops
        if total_ops > 0:
            return {
                phase: stat.ops / total_ops
                for phase, stat in self._phases.items()
            }
        return {phase: 0.0 for phase in self._phases}

    def top_cost_centers(self, n: Optional[int] = None) -> List[Dict]:
        """Phases ranked by (cost desc, ops desc, name) — the hot list.

        Returns at most *n* entries (all phases when None); each entry
        carries the phase name, ops, modeled cost, and share.
        """
        shares = self.phase_shares()
        ranked = sorted(
            self._phases.items(),
            key=lambda item: (-item[1].cost, -item[1].ops, item[0]),
        )
        if n is not None:
            if n < 1:
                raise ParameterError(f"top n must be >= 1, got {n}")
            ranked = ranked[:n]
        return [
            {
                "phase": phase,
                "ops": stat.ops,
                "cost_s": stat.cost,
                "share": shares[phase],
            }
            for phase, stat in ranked
        ]

    def node_summary(self, node_id: str) -> Dict[str, Dict]:
        """One node's per-phase attribution (empty when unseen)."""
        per_node = self._nodes.get(node_id, {})
        return {
            phase: stat.as_dict()
            for phase, stat in sorted(per_node.items())
        }

    def summary_dict(self) -> Dict:
        """The whole profile as a JSON-ready, byte-stable dict."""
        shares = self.phase_shares()
        top_streams = sorted(
            self._streams.items(),
            key=lambda item: (-item[1].cost, -item[1].ops, item[0]),
        )[: self.top_streams]
        return {
            "phases": {
                phase: {
                    "ops": stat.ops,
                    "cost_s": stat.cost,
                    "share": shares[phase],
                }
                for phase, stat in self._phases.items()
            },
            "total_cost_s": self.total_cost,
            "total_ops": self.total_ops,
            "top": self.top_cost_centers(),
            "per_stream": {
                "count": len(self._streams),
                "top": [
                    {
                        "stream": stream_id,
                        "ops": stat.ops,
                        "cost_s": stat.cost,
                    }
                    for stream_id, stat in top_streams
                ],
            },
            "per_drive": {
                label: {
                    phase: stat.as_dict()
                    for phase, stat in sorted(per_drive.items())
                }
                for label, per_drive in sorted(self._drives.items())
            },
            "per_node": {
                node: {
                    phase: stat.as_dict()
                    for phase, stat in sorted(per_node.items())
                }
                for node, per_node in sorted(self._nodes.items())
            },
            "checkpoints": len(self._checkpoints),
        }

    def snapshot(self) -> str:
        """Stable sorted-key JSON of :meth:`summary_dict`."""
        return json.dumps(self.summary_dict(), sort_keys=True, indent=2)

    def chrome_counter_events(self) -> List[Dict]:
        """Perfetto ``"C"`` counter events: one track per phase.

        Each retained checkpoint becomes one sample per phase that ever
        carried cost, on counter tracks named ``profile.<phase>`` —
        loadable next to the span export in ui.perfetto.dev.
        """
        active = [
            index for index, phase in enumerate(PHASES)
            if self._phases[phase].cost > 0.0
        ]
        events: List[Dict] = []
        for time, costs in self._checkpoints:
            for index in active:
                events.append({
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "name": f"profile.{PHASES[index]}",
                    "ts": round(time * 1e6, 3),
                    "args": {"cost_ms": round(costs[index] * 1e3, 6)},
                })
        return events

    def reset(self) -> None:
        """Drop everything recorded (a fresh profiler)."""
        for stat in self._phases.values():
            stat.ops = 0
            stat.cost = 0.0
        self._streams.clear()
        self._drives.clear()
        self._nodes.clear()
        self._checkpoints.clear()
        self._checkpoint_stride = 1
        self._checkpoint_calls = 0


class _ScopedProfiler:
    """A node-attributed facade over one shared :class:`CostProfiler`."""

    __slots__ = ("_parent", "node_id")

    def __init__(self, parent: CostProfiler, node_id: str):
        self._parent = parent
        self.node_id = node_id

    @property
    def enabled(self) -> bool:
        return self._parent.enabled

    def record(
        self,
        phase: str,
        cost: float = 0.0,
        ops: int = 1,
        drive: Optional[str] = None,
        node: Optional[str] = None,
    ) -> None:
        self._parent.record(
            phase, cost=cost, ops=ops, drive=drive,
            node=self.node_id if node is None else node,
        )

    def attribute_stream(
        self, stream_id: str, cost: float = 0.0, ops: int = 1
    ) -> None:
        self._parent.attribute_stream(stream_id, cost=cost, ops=ops)

    def checkpoint(self, time: float) -> None:
        self._parent.checkpoint(time)


# -- scoped registries -----------------------------------------------------------


class _PairedCounter:
    __slots__ = ("_shared", "_local")

    def __init__(self, shared, local):
        self._shared = shared
        self._local = local

    def inc(self, amount: int = 1) -> None:
        self._shared.inc(amount)
        self._local.inc(amount)

    @property
    def value(self) -> int:
        return self._local.value


class _PairedGauge:
    __slots__ = ("_shared", "_local")

    def __init__(self, shared, local):
        self._shared = shared
        self._local = local

    def set(self, value: float) -> None:
        self._shared.set(value)
        self._local.set(value)

    @property
    def value(self) -> float:
        return self._local.value


class _PairedHistogram:
    __slots__ = ("_shared", "_local")

    def __init__(self, shared, local):
        self._shared = shared
        self._local = local

    def observe(self, value: float) -> None:
        self._shared.observe(value)
        self._local.observe(value)


class _PairedTimer:
    __slots__ = ("_shared", "_local")

    def __init__(self, shared, local):
        self._shared = shared
        self._local = local

    def __enter__(self) -> "_PairedTimer":
        self._shared.__enter__()
        self._local.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._local.__exit__(*exc)
        self._shared.__exit__(*exc)


class ScopedRegistry:
    """Writes go to both a shared and a node-local registry.

    Reads (``peek_*``) resolve against the **shared** registry so
    derived evaluators (the SLO monitor) see cluster-wide values, while
    :meth:`snapshot_dict` serializes the **local** registry — the
    per-node breakdown :func:`merge_snapshots` folds back together.
    """

    def __init__(self, shared: MetricsRegistry, local: MetricsRegistry):
        self.shared = shared
        self.local = local
        self._counters: Dict[str, _PairedCounter] = {}
        self._gauges: Dict[str, _PairedGauge] = {}
        self._histograms: Dict[str, _PairedHistogram] = {}
        self._timers: Dict[str, _PairedTimer] = {}

    @property
    def enabled(self) -> bool:
        return self.shared.enabled

    def counter(self, name: str) -> _PairedCounter:
        pair = self._counters.get(name)
        if pair is None:
            pair = self._counters[name] = _PairedCounter(
                self.shared.counter(name), self.local.counter(name)
            )
        return pair

    def gauge(self, name: str) -> _PairedGauge:
        pair = self._gauges.get(name)
        if pair is None:
            pair = self._gauges[name] = _PairedGauge(
                self.shared.gauge(name), self.local.gauge(name)
            )
        return pair

    def histogram(self, name: str, buckets: Iterable[float]):
        pair = self._histograms.get(name)
        if pair is None:
            bounds = tuple(float(b) for b in buckets)
            pair = self._histograms[name] = _PairedHistogram(
                self.shared.histogram(name, bounds),
                self.local.histogram(name, bounds),
            )
        return pair

    def timer(self, name: str) -> _PairedTimer:
        pair = self._timers.get(name)
        if pair is None:
            pair = self._timers[name] = _PairedTimer(
                self.shared.timer(name), self.local.timer(name)
            )
        return pair

    def timed(self, name: str) -> _PairedTimer:
        return self.timer(name)

    def peek_counter(self, name: str) -> Optional[int]:
        return self.shared.peek_counter(name)

    def peek_histogram(self, name: str):
        return self.shared.peek_histogram(name)

    def snapshot_dict(self, include_profile: bool = False) -> Dict:
        return self.local.snapshot_dict(include_profile=include_profile)

    def snapshot(self, include_profile: bool = False) -> str:
        return self.local.snapshot(include_profile=include_profile)

    @staticmethod
    def diff(before, after) -> Dict:
        return MetricsRegistry.diff(before, after)


class ScopedObservability:
    """The node-scoped view of one shared :class:`Observability`.

    Everything event-shaped (timeline, audit, spans, SLOs, sim-tracer
    health) forwards to the parent unchanged — causality must cross
    nodes.  Metric writes are *paired*: they land in the parent registry
    (so cluster totals, SLO evaluation, and golden snapshots are
    byte-identical to legacy flat sharing) **and** in a private
    node-local registry serialized by :meth:`snapshot_dict`.  The
    profiler handle, when the parent has one, attributes every record
    to this view's node id.
    """

    def __init__(self, parent, node_id: str):
        if not node_id:
            raise ParameterError("scoped node_id must be non-empty")
        self.parent = parent
        self.node_id = node_id
        self.enabled = parent.enabled
        self.registry = ScopedRegistry(
            parent.registry, MetricsRegistry(parent.enabled)
        )
        self.timeline = parent.timeline
        self.audit = parent.audit
        self.tracer = parent.tracer
        self.block_keep_first = parent.block_keep_first
        self.block_every_kth = parent.block_every_kth

    @property
    def slo(self):
        """The parent's SLO monitor (attached after scoping is fine)."""
        return self.parent.slo

    @property
    def profiler(self):
        """Node-attributed view of the parent's profiler (or None)."""
        parent_profiler = self.parent.profiler
        if parent_profiler is None:
            return None
        return parent_profiler.scoped(self.node_id)

    def scoped(self, node_id: str) -> "ScopedObservability":
        """Scoping is flat: delegate to the parent."""
        return self.parent.scoped(node_id)

    def enable_slos(self, slos=None):
        return self.parent.enable_slos(slos)

    def attach_sim_tracer(self, tracer) -> None:
        self.parent.attach_sim_tracer(tracer)

    def timed(self, name: str):
        return self.registry.timed(name)

    def snapshot_dict(self, include_profile: bool = False) -> Dict:
        """This node's view: local metrics + its profiler attribution."""
        parent_profiler = self.parent.profiler
        return {
            "node_id": self.node_id,
            "metrics": self.registry.snapshot_dict(
                include_profile=include_profile
            ),
            "profile": (
                parent_profiler.node_summary(self.node_id)
                if parent_profiler is not None else {}
            ),
        }

    def snapshot(self, include_profile: bool = False) -> str:
        """Stable sorted-key JSON of this node's view."""
        return json.dumps(
            self.snapshot_dict(include_profile=include_profile),
            sort_keys=True,
            indent=2,
        )


def merge_snapshots(snapshots: Iterable[Union[str, Dict]]) -> Dict:
    """Fold per-node view snapshots into one cluster-level dict.

    Accepts :meth:`ScopedObservability.snapshot_dict` dicts (or their
    JSON strings, or bare registry ``snapshot_dict`` mappings) and
    merges deterministically:

    * **counters** and **timer calls** sum — so a merge over *every*
      scoped view of a run reproduces the shared registry's values
      exactly (the flat-equivalence acceptance bar);
    * **histograms** sum bucket-wise (bucket layouts must agree, or
      :class:`~repro.errors.ParameterError`); bucket counts merge
      exactly, while the float ``sum`` field is order-sensitive
      addition — it can differ from a flat-shared run's sum in the
      last ulp (compare with a relative tolerance, not ``==``);
    * **gauges** take the elementwise max — last-write-wins order does
      not survive a merge, so the merge picks the deterministic bound;
    * **profile** phase attributions sum ops and cost.

    Returns ``{"metrics": ..., "profile": ...}``; serialize with
    ``json.dumps(..., sort_keys=True)`` for the byte-stable form.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict] = {}
    timers: Dict[str, Dict] = {}
    profile: Dict[str, Dict[str, Union[int, float]]] = {}
    for snap in snapshots:
        if isinstance(snap, str):
            snap = json.loads(snap)
        metrics = snap.get("metrics", snap)
        for name, value in metrics.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in metrics.get("gauges", {}).items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
        for name, data in metrics.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "buckets": list(data["buckets"]),
                    "counts": list(data["counts"]),
                    "overflow": data["overflow"],
                    "count": data["count"],
                    "sum": data["sum"],
                }
                continue
            if merged["buckets"] != list(data["buckets"]):
                raise ParameterError(
                    f"histogram {name!r} bucket layouts disagree across "
                    "node snapshots"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], data["counts"])
            ]
            merged["overflow"] += data["overflow"]
            merged["count"] += data["count"]
            merged["sum"] += data["sum"]
        for name, data in metrics.get("timers", {}).items():
            entry = timers.get(name)
            if entry is None:
                timers[name] = dict(data)
                continue
            entry["calls"] += data.get("calls", 0)
            if "wall_seconds" in entry and "wall_seconds" in data:
                entry["wall_seconds"] += data["wall_seconds"]
        for phase, stat in snap.get("profile", {}).items():
            entry = profile.get(phase)
            if entry is None:
                profile[phase] = {
                    "ops": stat["ops"], "cost_s": stat["cost_s"],
                }
            else:
                entry["ops"] += stat["ops"]
                entry["cost_s"] += stat["cost_s"]
    return {
        "metrics": {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
            "timers": dict(sorted(timers.items())),
        },
        "profile": dict(sorted(profile.items())),
    }
