"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vod-disk --seed 1 --seconds 10 --trace 0

One run repeats iterations of (set-up, timed phase) on fresh state until
``--seconds`` of wall time have passed (at least ``MIN_ITERATIONS``),
after one warm-up iteration that is not counted.  The workload marks
both phases in laps, units of work that repeat identically per seed.
``setup_s`` is the sum of each set-up lap's fastest time over the
untraced iterations, and ``blocks_per_s`` divides the timed phase's
blocks by the same sum over its laps (see :func:`best_timed_s`).
Simulated metrics must be byte-identical across iterations.  With ``--trace 1`` traced and untraced iterations
alternate: the fastest traced one gives the per-layer numbers, and
``trace_overhead`` compares traced and untraced laps the same way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check prints ``correct: false`` with no metrics and exits with 1.  A full
record, with the host fingerprint and every iteration's values, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from layers import LAYER_NAMES, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ITERATIONS = 3
#: Iterations of the fixed calibration loop in the host fingerprint.
CALIBRATION_LOOPS = 2_000_000


def _import_program():
    """Import the program from the checkout's ``src`` tree."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(
            f"perfbench: cannot import the program from {ROOT / 'src'}: "
            f"{error}",
            file=sys.stderr,
        )
        sys.exit(2)


def host_fingerprint() -> Dict[str, object]:
    """Python version, platform, CPU count and a calibration score."""
    scores = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i & 7
        scores.append(CALIBRATION_LOOPS / (time.perf_counter() - started))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_loops_per_s": statistics.median(scores),
    }


class PhaseClock:
    """Times one phase as a sequence of laps, for the workload to mark.

    A lap is one unit of work that repeats identically in every
    iteration with the same seed (a node's serve, a newsroom cycle).
    :meth:`untimed` brackets benchmark-side work inside the phase: its
    time is left out of the laps, and an active layer tracer stops
    attributing while it runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.laps: List[float] = []
        self._excluded = 0.0
        self._last = time.perf_counter()

    def lap(self) -> None:
        """Close the current lap."""
        now = time.perf_counter()
        self.laps.append(now - self._last - self._excluded)
        self._last = now
        self._excluded = 0.0

    @contextlib.contextmanager
    def untimed(self):
        started = time.perf_counter()
        if self.tracer is not None:
            self.tracer.suspend()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.resume()
            self._excluded += time.perf_counter() - started

    @contextlib.contextmanager
    def laps_around(self, cls, method: str):
        """Make every call of ``cls.method`` a lap of its own."""
        original = cls.__dict__[method]
        clock = self

        def lapped(*args, **kwargs):
            clock.lap()
            try:
                return original(*args, **kwargs)
            finally:
                clock.lap()

        setattr(cls, method, lapped)
        try:
            yield
        finally:
            setattr(cls, method, original)


def iterate(workload, tracer=None) -> Dict[str, object]:
    """One iteration: set-up, then the timed phase, then the checks.

    Both phases are timed in laps on a :class:`PhaseClock`.
    """
    phases = {}
    for phase in ("setup", "timed"):
        gc.collect()
        if tracer is not None:
            tracer.phase(phase)
        clock = PhaseClock(tracer)
        if phase == "setup":
            system = workload.setup(clock)
        else:
            raw = workload.timed(system, clock)
        clock.lap()
        phases[phase] = clock.laps
        if tracer is not None:
            tracer.end_phase(sum(clock.laps))
    outcome = workload.summarize(system, raw)
    return {
        "setup_laps": phases["setup"], "laps": phases["timed"],
        "setup_s": sum(phases["setup"]), "timed_s": sum(phases["timed"]),
        "outcome": outcome, "tracer": tracer,
    }


def best_timed_s(iterations, key: str = "laps") -> float:
    """The sum over laps of each lap's fastest time across iterations.

    Laps repeat identically per seed, so each lap's fastest time is the
    steadiest estimate of what it costs: on a shared host, neighbours
    only ever slow a lap down, in bursts that are shorter than a phase
    but longer than a lap.
    """
    counts = {len(it[key]) for it in iterations}
    if len(counts) != 1:
        raise RuntimeError(f"lap counts differ across iterations: {counts}")
    return sum(min(laps) for laps in zip(*(it[key] for it in iterations)))


def layer_metrics(untraced, traced, offered) -> Dict[str, float]:
    """Per-layer numbers from the fastest traced iteration.

    Self times come from one iteration, so they add up to its timed
    phase; ``trace_overhead`` compares the per-lap bests of the traced
    and untraced iterations.
    """
    from workloads import percentile

    best = min(traced, key=lambda it: it["timed_s"])
    tracer = best["tracer"]
    values: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        values[f"{layer}.self_s"] = tracer.self_s["timed"][layer]
    for layer in ("rope", "fs", "alloc"):
        values[f"setup.{layer}.self_s"] = tracer.self_s["setup"][layer]
    values["unattributed_s"] = tracer.unattributed_s["timed"]
    values["setup.unattributed_s"] = tracer.unattributed_s["setup"]
    values["trace_overhead"] = best_timed_s(traced) / best_timed_s(untraced)
    counts = tracer.counts["timed"]
    lookups = counts["cache.lookups"]
    repairs = counts["repair.calls"]
    edit_ms = [
        1e3 * s for it in untraced for s in it["outcome"].edit_seconds
    ]
    startups = best["outcome"].startups
    values.update({
        "cluster.routes": counts["cluster.routes"],
        "cluster.rejects": counts["cluster.rejects"],
        "server.batches": counts["server.batches"],
        "server.cache_admits": counts["server.cache_admits"],
        "rpc.calls": counts["rpc.calls"],
        "rpc.bytes": counts["rpc.bytes"],
        "admission.admits": counts["admission.admits"],
        "admission.rejects": counts["admission.rejects"],
        "rope.plans_per_session": counts["rope.plans"] / offered,
        "rope.edits": counts["rope.edits"],
        "rope.edit_p50_ms": percentile(edit_ms, 0.50),
        "rope.edit_p95_ms": percentile(edit_ms, 0.95),
        "repair.seams_checked": counts["repair.seams_checked"],
        "repair.seams_repaired": counts["repair.seams_repaired"],
        "repair.blocks_copied": counts["repair.blocks_copied"],
        "repair.blocks_per_edit": (
            counts["repair.blocks_copied"] / repairs if repairs else 0.0
        ),
        "fs.strands_stored": counts["fs.strands_stored"],
        "fs.strands_collected": counts["fs.strands_collected"],
        "alloc.calls": counts["alloc.calls"],
        "service.rounds": counts["service.rounds"],
        "service.blocks": counts["service.blocks"],
        "service.misses": counts["service.misses"],
        "service.skips": counts["service.skips"],
        "service.startup_p50_sim_s": percentile(startups, 0.50),
        "service.startup_p95_sim_s": percentile(startups, 0.95),
        "cache.lookups": lookups,
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "cache.evictions": best["outcome"].evictions,
        "drive.reads": counts["drive.reads"],
        "drive.busy_sim_s": counts["drive.busy_sim_s"],
        "obs.spans": counts["obs.spans"],
    })
    return values


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False):
    """Measure one workload; returns (result record, tracer of the first
    traced iteration or None)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, smoke=smoke)
    iterate(workload)  # warm-up, not counted
    untraced: List[Dict] = []
    traced: List[Dict] = []
    started = time.perf_counter()
    while (
        time.perf_counter() - started < seconds
        or len(untraced) < MIN_ITERATIONS
        or (trace and len(traced) < MIN_ITERATIONS)
    ):
        untraced.append(iterate(workload))
        if trace:
            with LayerTracer(keep_spans=not traced) as tracer:
                traced.append(iterate(workload, tracer))
    iterations = untraced + traced
    first = iterations[0]["outcome"]
    sim = first.sim_metrics()
    checks = dict(first.checks)
    checks["simulated_outputs_repeat_per_seed"] = all(
        it["outcome"].digest == first.digest
        and it["outcome"].sim_metrics() == sim
        for it in iterations
    )
    for it in iterations:
        for check, ok in it["outcome"].checks.items():
            checks[check] = checks[check] and ok
    correct = all(checks.values())
    end_to_end = {
        "setup_s": best_timed_s(untraced, "setup_laps"),
        "blocks_per_s": first.blocks / best_timed_s(untraced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
        "continuous_ratio": sim["continuous_ratio"],
        "sessions_per_drive": sim["sessions_per_drive"],
        "space_amp": sim["space_amp"],
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "checks": checks,
        "attempted": first.offered + first.edits + len(checks),
        "failed": (
            first.rejected + first.edit_failures
            + sum(1 for ok in checks.values() if not ok)
        ),
        "simulated": {**sim, "blocks": first.blocks, "digest": first.digest},
        "end_to_end": end_to_end,
        "iterations": [
            {"setup_s": it["setup_s"], "timed_s": it["timed_s"],
             "setup_laps": len(it["setup_laps"]), "laps": len(it["laps"]),
             "traced": it["tracer"] is not None}
            for it in iterations
        ],
    }
    if not trace:
        return record, None
    record["per_layer"] = layer_metrics(untraced, traced, first.offered)
    record["trace_missing"] = traced[0]["tracer"].missing
    return record, traced[0]["tracer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    host = host_fingerprint()
    record, tracer = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke,
    )
    record["host"] = host
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_chrome_trace(
            OUT / f"{stem}.trace.json",
            {"workload": args.workload, "seed": args.seed, "host": host},
        )
    (OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"iterations={len(record['iterations'])} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("simulated " + json.dumps(record["simulated"], sort_keys=True))
    for name in record.get("trace_missing", ()):
        print(f"perfbench: traced entry point {name} not found",
              file=sys.stderr)
    for check, ok in sorted(record["checks"].items()):
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    metrics = {}
    if record["correct"]:
        for entry in listed:
            value = values[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"metric {entry['name']} = {value!r} {entry['unit']} "
                  f"({entry['better']} is better)")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
