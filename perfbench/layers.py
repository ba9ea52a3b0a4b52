"""Outside-in per-layer tracing: wrap each layer's public functions.

The program carries no benchmark instrumentation.  :class:`LayerTracer`
replaces the layer entry points listed in :data:`LAYERS` with thin
wrappers for the duration of a traced iteration and restores them after.
Every wrapped call is a span on one stack (the host runs one thread), so
a layer's self time is its spans' time minus the time of the spans
nested inside them.  Counts are taken at the same boundaries, from call
counts and from the values the layer returns.

Spans of the first traced iteration are kept in memory and written at
the end as Chrome trace-event JSON, which Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LAYER_NAMES", "LayerTracer"]


def _admit(counts, args, result, error):
    counts["admission.rejects" if error else "admission.admits"] += 1


def _route(counts, args, result, error):
    counts["cluster.rejects" if result is None else "cluster.routes"] += 1


def _serve(counts, args, result, error):
    if error is None:
        counts["server.batches"] += result.batches
        counts["server.cache_admits"] += sum(
            1 for s in result.statuses if s.cache_admitted
        )


def _invoke(counts, args, result, error):
    counts["rpc.calls"] += 1
    if error is None:
        call = args[0].calls[-1]
        counts["rpc.bytes"] += call.argument_bytes + call.result_bytes


def _plan(counts, args, result, error):
    counts["rope.plans"] += 1


def _edit(counts, args, result, error):
    counts["rope.edits"] += 1


def _repair(counts, args, result, error):
    if error is None:
        report = result[1]
        counts["repair.calls"] += 1
        counts["repair.seams_checked"] += report.seams_checked
        counts["repair.seams_repaired"] += report.seams_repaired
        counts["repair.blocks_copied"] += report.blocks_copied


def _store(counts, args, result, error):
    counts["fs.strands_stored"] += 1


def _collect(counts, args, result, error):
    if error is None:
        counts["fs.strands_collected"] += len(result)


def _alloc(counts, args, result, error):
    counts["alloc.calls"] += 1


def _service(counts, args, result, error):
    if error is None:
        counts["service.rounds"] += args[0].rounds_run
        for metrics in result.values():
            counts["service.blocks"] += metrics.blocks_delivered
            counts["service.misses"] += metrics.misses
            counts["service.skips"] += metrics.skips


def _lookup(counts, args, result, error):
    counts["cache.lookups"] += 1
    if result:
        counts["cache.hits"] += 1


def _read(counts, args, result, error):
    counts["drive.reads"] += 1
    if error is None:
        counts["drive.busy_sim_s"] += result


def _write(counts, args, result, error):
    if error is None:
        counts["drive.busy_sim_s"] += result


def _span(counts, args, result, error):
    if result is not None:
        counts["obs.spans"] += 1


_Hook = Optional[Callable]

#: (layer, module, class, {method: count hook}).  Each row names a
#: layer's public entry points; the order is the stack from the client
#: API down to the drive.
LAYERS: Tuple[Tuple[str, str, str, Dict[str, _Hook]], ...] = (
    ("cluster", "repro.cluster.router", "MediaCluster",
     {"serve": None, "route": _route}),
    ("server", "repro.server.media_server", "MediaServer",
     {"serve": _serve, "open": None, "stop": None}),
    ("rpc", "repro.service.rpc", "RpcChannel", {"invoke": _invoke}),
    ("admission", "repro.core.admission", "AdmissionController",
     {"admit": _admit, "release": None}),
    ("rope", "repro.rope.server", "MultimediaRopeServer",
     {"playback_plan": _plan, "record": None, "delete_rope": None,
      "insert": _edit, "replace": _edit, "substring": _edit,
      "concate": _edit, "delete": _edit}),
    ("repair", "repro.rope.scattering_repair", "ScatteringRepairer",
     {"repair_segments": _repair}),
    ("fs", "repro.fs.storage_manager", "MultimediaStorageManager",
     {"store_video_strand": _store, "store_audio_strand": _store,
      "store_mixed_strand": _store, "copy_blocks_near": _store,
      "create_copied_strand": _store, "collect_garbage": _collect}),
    ("alloc", "repro.disk.allocation", "Allocator",
     {"allocate_strand": _alloc, "release": _alloc}),
    ("alloc", "repro.disk.allocation", "ConstrainedScatterAllocator",
     {"allocate_first": _alloc, "allocate_after": _alloc}),
    ("service", "repro.service.session", "PlaybackSession", {"run": None}),
    ("service", "repro.service.rounds", "RoundRobinService",
     {"run": _service}),
    ("cache", "repro.disk.cache", "CachedDrive",
     {"read_slot": None, "traced_read": None}),
    ("cache", "repro.disk.cache", "BlockCache", {"lookup": _lookup}),
    ("drive", "repro.disk.drive", "SimulatedDrive",
     {"read_slot": _read, "traced_read": None, "write_slot": _write}),
    ("obs", "repro.obs.tracing", "SpanTracer",
     {"start_span": _span, "end_span": None}),
)

LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYERS))


class LayerTracer:
    """Installs the layer wrappers and accumulates per-phase numbers.

    Use as a context manager around one traced iteration; call
    :meth:`phase` before each phase and :meth:`end_phase` with the
    phase's wall time after it.  :meth:`suspend` / :meth:`resume`
    bracket benchmark-side work inside a phase that must not count.
    """

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: List[Tuple[str, str, float, float]] = []
        self.self_s: Dict[str, Dict[str, float]] = defaultdict(
            lambda: dict.fromkeys(LAYER_NAMES, 0.0)
        )
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.unattributed_s: Dict[str, float] = {}
        self.phases: List[Tuple[str, float, float]] = []
        self._phase = ""
        self._phase_start = 0.0
        self._top = 0.0
        self._stack: List[float] = []
        self._on = False
        self._saved: List[Tuple[type, str, object]] = []
        #: Listed entry points the program no longer defines.
        self.missing: List[str] = []

    # -- installation -----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, module, cls_name, methods in LAYERS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method, hook in methods.items():
                if method not in cls.__dict__:
                    self.missing.append(f"{cls_name}.{method}")
                    continue
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(
                    layer, f"{cls_name}.{method}", original, hook
                ))
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()
        self._on = False

    def _wrap(self, layer: str, name: str, fn, hook: _Hook):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                tracer._close(layer, name, start, clock() - start)
                if hook is not None:
                    hook(tracer.counts[tracer._phase], args, None, error)
                raise
            tracer._close(layer, name, start, clock() - start)
            if hook is not None:
                hook(tracer.counts[tracer._phase], args, result, None)
            return result

        return traced

    def _close(self, layer: str, name: str, start: float, duration: float):
        stack = self._stack
        child = stack.pop()
        self.self_s[self._phase][layer] += duration - child
        if stack:
            stack[-1] += duration
        else:
            self._top += duration
        if self.keep_spans:
            self.spans.append((layer, name, start, duration))

    # -- phases -------------------------------------------------------------------

    def phase(self, name: str) -> None:
        """Start attributing to phase *name*."""
        self._phase = name
        self._top = 0.0
        self.self_s[name]
        self.counts[name]
        self._phase_start = time.perf_counter()
        self._on = True

    def end_phase(self, wall_s: float) -> None:
        """Close the phase; *wall_s* is its wall time net of suspensions."""
        self._on = False
        self.unattributed_s[self._phase] = wall_s - self._top
        if self.keep_spans:
            self.phases.append(
                (self._phase, self._phase_start, time.perf_counter())
            )

    def suspend(self) -> None:
        self._on = False

    def resume(self) -> None:
        self._on = True

    # -- export -------------------------------------------------------------------

    def chrome_trace(self, metadata: Dict[str, object]) -> Dict[str, object]:
        """The kept spans as Chrome trace events (Perfetto opens them)."""
        if not self.phases:
            return {"traceEvents": [], "otherData": metadata}
        origin = self.phases[0][1]
        events = [
            {
                "name": name, "cat": "phase", "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
            }
            for name, start, end in self.phases
        ]
        events.extend(
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
            }
            for layer, name, start, duration in self.spans
        )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def write_chrome_trace(self, path, metadata: Dict[str, object]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)
