"""Perf-scale benchmark: service-loop throughput at production scale.

Not a paper artifact — this is the BENCH_PERF.json trajectory the
ROADMAP's "as fast as the hardware allows" goal is measured against.  It
scores the §3.4 round loop at 10/100/1000 concurrent streams (1000-block
strands), then runs a seeds × arrival-mixes × drive-configs sweep through
the :mod:`repro.perf` parallel runner.  The scale points land in
``BENCH_PERF.json`` at the repo root (``BENCH_PERF.smoke.json`` under
``--smoke``, so CI never clobbers the committed trajectory), and the
same points are re-emitted as an experiment-matrix manifest
(``BENCH_PERF.matrix.json``) so the bench trajectory and the
``repro expt gate`` regression machinery speak one schema — see
:mod:`repro.expt` and docs/EXPERIMENTS.md.

The trajectory to watch: ``blocks_per_second`` should stay flat across
stream count and strand length — the incremental consumption cursor and
cached disk models make per-block service cost O(1); any regression to
super-linear cost shows up as a falling curve at the 1000-stream point.
"""

import json
from pathlib import Path

from conftest import emit, param, pedantic_args, smoke_mode

from repro.expt import build_manifest, cell_from_scale_result, stable_json
from repro.obs import Observability
from repro.perf import (
    run_cluster_scale_bench,
    run_obs_overhead_scenario,
    run_scale_scenario,
    run_server_compare_scenario,
    run_sweep,
    scale_grid,
)
from repro.perf.scenarios import ScaleScenario
from repro.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parent.parent

#: Concurrent-stream scale points (smoke: tiny but still multi-stream).
STREAM_POINTS = param((10, 100, 1000), (2, 3))
BLOCKS_PER_STREAM = param(1000, 12)
SWEEP_SEEDS = param((0, 1), (0,))
SWEEP_DRIVES = param(("testbed", "table"), ("testbed",))
SWEEP_ARRIVALS = param(("uniform", "staggered"), ("uniform",))
SERVE_SESSIONS = param(50, 8)
SERVE_STRANDS = param(5, 2)
OBS_STREAMS = param(100, 8)
OBS_BLOCKS = param(1000, 50)
# min-of-repeats walls: 5 repeats under-samples on noisy shared hosts
# (observed min-of-5 ratios spanning 1.11-1.19 on one machine where
# min-of-15 converges to 1.12), so the full run takes 15.
OBS_REPEATS = param(15, 2)
CLUSTER_NODES = param(20, 3)
CLUSTER_SESSIONS = param(1000, 12)
CLUSTER_TITLES = param(40, 4)
CLUSTER_PER_NODE_STREAMS = param(75, 8)
CLUSTER_FAILOVER_NODES = param(4, 3)
CLUSTER_FAILOVER_SESSIONS = param(32, 12)


def _scenario(streams: int) -> ScaleScenario:
    return ScaleScenario(
        name=f"scale-n{streams}",
        streams=streams,
        blocks_per_stream=BLOCKS_PER_STREAM,
        k=4,
        buffer_capacity=8,
        seed=0,
        drive="testbed",
    )


def _bench_path() -> Path:
    name = "BENCH_PERF.smoke.json" if smoke_mode() else "BENCH_PERF.json"
    return ROOT / name


def _matrix_path() -> Path:
    name = (
        "BENCH_PERF.matrix.smoke.json" if smoke_mode()
        else "BENCH_PERF.matrix.json"
    )
    return ROOT / name


def test_perf_scale_points(benchmark):
    """Score every scale point; benchmark the largest; write the JSON."""
    points = [run_scale_scenario(_scenario(n)) for n in STREAM_POINTS]

    result = benchmark.pedantic(
        run_scale_scenario,
        args=(_scenario(STREAM_POINTS[-1]),),
        **pedantic_args(),
    )
    assert result.blocks_delivered == (
        STREAM_POINTS[-1] * BLOCKS_PER_STREAM
    )

    sweep = run_sweep(
        scale_grid(
            stream_counts=list(STREAM_POINTS[:-1]) or [STREAM_POINTS[0]],
            blocks_per_stream=max(BLOCKS_PER_STREAM // 5, 4),
            seeds=SWEEP_SEEDS,
            drives=SWEEP_DRIVES,
            arrivals=SWEEP_ARRIVALS,
        ),
        workers=None,
    )

    compare = run_server_compare_scenario(
        sessions=SERVE_SESSIONS, strands=SERVE_STRANDS
    )
    assert compare.batched_wins, (
        "batched+cached admission must sustain strictly more continuous "
        f"streams than per-request: {compare.batched_continuous} vs "
        f"{compare.per_request_continuous}"
    )

    cluster = run_cluster_scale_bench(
        scale={
            "nodes": CLUSTER_NODES,
            "sessions": CLUSTER_SESSIONS,
            "titles": CLUSTER_TITLES,
            "per_node_streams": CLUSTER_PER_NODE_STREAMS,
        },
        failover={
            "nodes": CLUSTER_FAILOVER_NODES,
            "sessions": CLUSTER_FAILOVER_SESSIONS,
        },
    )
    assert cluster.all_continuous, (
        "every admitted cluster session must stay continuous: "
        f"{cluster.scale['continuous']} of {cluster.scale['admitted']}"
    )
    assert cluster.within_bounds, (
        "measured concurrency exceeded the analytical VoD bounds: "
        f"{cluster.scale['admitted']} admitted vs full-catalog "
        f"{cluster.bounds['full_catalog']}"
    )
    assert cluster.handoff_clean_ratio > 0.9, (
        ">90% of node-kill handoffs must preserve continuity: "
        f"{cluster.failover['clean']} clean of "
        f"{cluster.failover['affected']} affected"
    )
    if not smoke_mode():
        # The acceptance scale: 1000+ concurrent sessions, sharded.
        assert cluster.scale["admitted"] >= 1000

    overhead = run_obs_overhead_scenario(
        streams=OBS_STREAMS,
        blocks_per_stream=OBS_BLOCKS,
        repeats=OBS_REPEATS,
    )
    if not smoke_mode():
        # The acceptance budget: full tracing + metrics + SLOs must cost
        # < 15% wall on the 100-session scenario.  Smoke walls are too
        # small to compare meaningfully, so only full mode enforces it.
        assert overhead.within_budget, (
            f"observability overhead ratio {overhead.ratio:.3f} exceeds "
            f"budget {overhead.budget_ratio:.2f} "
            f"({overhead.wall_obs_s:.3f}s vs {overhead.wall_off_s:.3f}s)"
        )

    # Metrics + profiler only (no spans or timeline), so attribution
    # sees every access while perturbing the loop as little as possible.
    scale = SCENARIOS["scale"]
    params = scale.resolve({
        "streams": STREAM_POINTS[-1], "blocks_per_stream": BLOCKS_PER_STREAM,
    })
    profiler_obs = Observability.for_profiling(seed=0)
    profiled = run_scale_scenario(
        ScaleScenario(name="profiled-scale", seed=0, **params),
        profiler_obs,
    )
    profile_section = scale.profile_section(
        0, params, profiled, profiler_obs
    )
    share_sum = sum(
        phase["share"] for phase in profile_section["phases"].values()
    )
    # Cost attribution must account for the whole run.
    assert abs(share_sum - 1.0) <= 1e-9, (
        f"profile phase shares must sum to 1.0, got {share_sum!r}"
    )
    assert profiled.blocks_delivered == (
        STREAM_POINTS[-1] * BLOCKS_PER_STREAM
    )

    record = {
        "benchmark": "perf_scale",
        "schema_version": 1,
        "mode": "smoke" if smoke_mode() else "full",
        "blocks_per_stream": BLOCKS_PER_STREAM,
        "points": [point.to_dict() for point in points],
        "sweep": sweep.to_dict(),
        "server_compare": compare.to_dict(),
        "cluster_scale": cluster.to_dict(),
        "obs_overhead": overhead.to_dict(),
        "profile": profile_section,
    }
    path = _bench_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    # The same trajectory as an expt-matrix manifest, so the scale
    # points can feed `repro expt gate`/`diff` like any matrix run.
    manifest = build_manifest(
        name=f"bench-perf-scale-{record['mode']}",
        cell_records=[
            cell_from_scale_result(point)
            for point in points + list(sweep.results)
        ],
        workers=sweep.workers,
        parallel=sweep.parallel,
        wall_time_s=sweep.wall_time_s,
    )
    matrix_path = _matrix_path()
    matrix_path.write_text(stable_json(manifest))

    table_lines = [
        f"perf scale trajectory ({record['mode']}) -> {path.name}, "
        f"{matrix_path.name}"
    ]
    for point in points:
        table_lines.append(
            f"  n={point.streams:>5} x {point.blocks_per_stream} blocks: "
            f"{point.wall_time_s:.3f}s wall, "
            f"{point.blocks_per_second:,.0f} blocks/s, "
            f"{point.streams_per_second:,.0f} streams/s"
        )
    table_lines.append(
        f"  serve compare: batched {compare.batched_continuous} vs "
        f"per-request {compare.per_request_continuous} continuous "
        f"({compare.sessions_per_second:,.0f} sessions/s)"
    )
    table_lines.append(
        f"  cluster scale: {cluster.scale['continuous']}/"
        f"{cluster.scale['admitted']} continuous on "
        f"{cluster.params['nodes']} nodes "
        f"(full-catalog bound {cluster.bounds['full_catalog']}, "
        f"demand {cluster.bounds['demand_satisfiable']}/"
        f"{cluster.bounds['demand_total']}); failover "
        f"{cluster.failover['clean']}/{cluster.failover['affected']} "
        f"clean handoffs"
    )
    table_lines.append(
        f"  obs overhead: x{overhead.ratio:.3f} "
        f"({overhead.wall_obs_s:.3f}s traced vs "
        f"{overhead.wall_off_s:.3f}s off, {overhead.spans} spans, "
        f"budget x{overhead.budget_ratio:.2f})"
    )
    hot = profile_section["top"][0]
    table_lines.append(
        f"  profile n={STREAM_POINTS[-1]}: hottest {hot['phase']} "
        f"({hot['share'] * 100:.1f}% of "
        f"{profile_section['total_cost_s']:.1f}s modeled, "
        f"{profile_section['total_ops']} ops)"
    )
    emit("\n".join(table_lines), sweep.table())

    for point in points:
        assert point.blocks_delivered == (
            point.streams * point.blocks_per_stream
        )
