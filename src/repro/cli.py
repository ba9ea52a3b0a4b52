"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``profiles``
    List the built-in hardware profiles with their derived §2 figures.
``policy [--profile NAME]``
    Show the §3.3.4 placement policies an MSM derives on a profile.
``experiments [ID ...]``
    Run experiment drivers (e1..e21; default: all) and print their
    tables — the figure-regeneration harness without pytest.
``demo``
    The quickstart flow: derive policy, record a clip, play it back.
``obs-report [--scenario NAME] [--top N] [--json]``
    Run a registry scenario under its observability and print the
    observability report (or raw snapshot JSON); the cluster scenarios
    carry per-node metrics and profile rollups.
``profile [--scenario NAME] [--top N] [--smoke] [--json] [--trace-out F]``
    Run a registry scenario under the deterministic cost-attribution
    profiler (:class:`repro.obs.CostProfiler`) and print the ranked cost
    centers; ``--smoke`` runs it at its smoke size, ``--json`` emits
    the byte-stable profile section, ``--trace-out`` a Perfetto
    document with per-phase counter tracks.
``perf-sweep [--streams N ...] [--blocks N] [--workers N] [--json]``
    Fan a grid of service-loop scale scenarios across worker processes
    and print simulator-throughput scores — see :mod:`repro.perf`.
``serve [--sessions N] [--strands N] [--compare] [--smoke] [--json]``
    Run a multi-tenant :class:`repro.server.MediaServer` scenario —
    batched admission + block cache — and print the outcome; with
    ``--compare``, pit it against per-request admission on the same
    disk (see :mod:`repro.server.scenarios`).
``trace-export [--scenario NAME] [--out FILE] [--json]``
    Run a registry scenario with span tracing on and emit its causal
    trace as Chrome trace-event JSON, loadable in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing`` — see
    :meth:`repro.obs.SpanTracer.to_chrome_trace`.
``cluster [--failover] [--smoke] [--nodes N] [--sessions N] [--json]``
    Run a sharded :class:`repro.cluster.MediaCluster` scenario — the
    1000-session scale run with its analytical VoD bounds, or (with
    ``--failover``) a deterministic node-kill run with inter-node
    session handoff (see :mod:`repro.cluster.scenarios`).
``expt {run,gate,diff}``
    The experiment-matrix harness (:mod:`repro.expt`): ``run`` expands a
    declarative config (``--smoke`` for the builtin CI matrix) and
    writes a structured results directory; ``gate`` compares a results
    manifest against the committed baseline with per-metric tolerances
    and exits non-zero on regression; ``diff`` prints per-cell metric
    deltas between two manifests.

``--scenario NAME`` takes any name of the scenario registry
(:data:`repro.scenarios.SCENARIOS`): ``steady``, ``fault``,
``server-steady``, ``server-hot``, ``server-fault``, ``scale``,
``cluster-failover`` and ``cluster-scale``.  ``serve`` runs
``server-hot`` and ``cluster`` runs ``cluster-scale`` (``cluster-failover``
with ``--failover`` or ``--smoke``) from the same entries.

Every scenario-running subcommand (``demo``, ``obs-report``,
``profile``, ``perf-sweep``, ``serve``, ``cluster``,
``trace-export``) accepts
``--seed`` and ``--json`` via one shared option builder, and the
``expt`` subcommands take the ``--json`` half of the same builder, so
scripted callers can rely on the same determinism and output contract
everywhere.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro import analysis
from repro.config import DEFAULT_SEED, PROFILES, get_profile
from repro.core import continuity, video_block_model
from repro.core.continuity import Architecture
from repro.errors import InfeasibleError, ParameterError
from repro.media import frames_for_duration, generate_talk_spurts
from repro.rope import Media, MultimediaRopeServer
from repro.service import PlaybackSession
from repro.units import format_rate, format_seconds

__all__ = ["main", "EXPERIMENTS"]

#: Experiment registry: id -> driver returning an object with ``.table``;
#: every ``analysis.eN_*`` driver, in id order.
EXPERIMENTS: Dict[str, Callable[[], object]] = dict(sorted(
    (
        (name.split("_", 1)[0], getattr(analysis, name))
        for name in analysis.__all__
        if re.fullmatch(r"e\d+_\w+", name)
    ),
    key=lambda item: int(item[0][1:]),
))


def _add_common_options(
    parser: argparse.ArgumentParser,
    seed_default: int = DEFAULT_SEED,
    seed_help: str = "deterministic scenario seed",
    json_help: str = "print machine-readable JSON instead of the report",
    include_seed: bool = True,
) -> argparse.ArgumentParser:
    """Attach the ``--seed`` / ``--json`` pair every scenario command has.

    One shared builder keeps the contract uniform: the same flag names,
    types, and defaults on ``demo``, ``obs-report``, ``perf-sweep``,
    ``serve``, ``trace-export``, ``cluster``, and the ``expt``
    subcommands — tests introspect the parser to enforce this.
    Commands whose determinism comes from a manifest rather than a
    seed (``expt run/gate/diff``) pass ``include_seed=False`` and keep
    only the ``--json`` half of the contract.
    """
    if include_seed:
        parser.add_argument("--seed", type=int, default=seed_default,
                            help=seed_help)
    parser.add_argument("--json", action="store_true", help=json_help)
    return parser


def _add_scenario_option(
    parser: argparse.ArgumentParser, default: str, verb: str
) -> None:
    """Attach ``--scenario NAME`` with the registry's names as choices."""
    from repro.scenarios import SCENARIOS

    parser.add_argument(
        "--scenario", default=default, choices=list(SCENARIOS),
        help=f"registry scenario to {verb} (default: {default})",
    )


def _cmd_profiles(_args: argparse.Namespace) -> int:
    for name in sorted(PROFILES):
        profile = PROFILES[name]
        print(f"{name}")
        print(f"  {profile.description}")
        print(
            f"  video: {profile.video.frame_rate:g} fps x "
            f"{profile.video.frame_size:g} bits/frame "
            f"({format_rate(profile.video.bit_rate)})"
        )
        print(
            f"  audio: {profile.audio.sample_rate:g} Hz x "
            f"{profile.audio.sample_size:g} bits/sample"
        )
        print(
            f"  disk: {format_rate(profile.disk.transfer_rate)}, seek "
            f"max/avg/track = "
            f"{format_seconds(profile.disk.seek_max)} / "
            f"{format_seconds(profile.disk.seek_avg)} / "
            f"{format_seconds(profile.disk.seek_track)}, "
            f"{profile.disk.heads} head(s)"
        )
    return 0


def _cmd_policy(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    try:
        msm = analysis.default_msm(profile)
    except InfeasibleError as error:
        print(f"no feasible policy on this profile: {error}")
        return 1
    for label, policy in (
        ("video", msm.policies.video),
        ("audio", msm.policies.audio),
        ("mixed", msm.policies.mixed),
    ):
        print(
            f"{label}: granularity {policy.granularity} units/block, "
            f"block {policy.block_bits:g} bits, scattering "
            f"[{format_seconds(policy.scattering_lower)}, "
            f"{format_seconds(policy.scattering_upper)}]"
        )
    block = video_block_model(profile.video, msm.policies.video.granularity)
    for architecture in (
        Architecture.SEQUENTIAL, Architecture.PIPELINED
    ):
        try:
            bound = continuity.max_scattering(
                architecture, block, msm.disk_params, profile.video_device
            )
            print(
                f"{architecture.value} l_ds bound: {format_seconds(bound)}"
            )
        except InfeasibleError:
            print(f"{architecture.value}: infeasible at any scattering")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENTS)}"
        )
        return 2
    for experiment_id in ids:
        result = EXPERIMENTS[experiment_id]()
        print(result.table.render())
        extra = getattr(result, "gc_behaviour", None)
        if extra is not None:
            print()
            print(extra.render())
        print()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    mrs = MultimediaRopeServer(analysis.default_msm(profile))
    rng = random.Random(args.seed)
    frames = frames_for_duration(profile.video, args.seconds, source="demo")
    chunks = generate_talk_spurts(profile.audio, args.seconds, 0.35, rng)
    request_id, rope_id = mrs.record("demo", frames=frames, chunks=chunks)
    mrs.stop(request_id)
    play_id = mrs.play("demo", rope_id, media=Media.AUDIO_VISUAL)
    result = PlaybackSession(mrs).run([play_id])
    metrics = result.metrics[play_id]
    if args.json:
        import json

        print(json.dumps({
            "rope_id": rope_id,
            "duration": mrs.get_rope(rope_id).duration,
            "blocks_delivered": metrics.blocks_delivered,
            "misses": metrics.misses,
            "startup_latency": metrics.startup_latency,
            "continuous": metrics.continuous,
        }, indent=2, sort_keys=True))
    else:
        print(
            f"recorded rope {rope_id}: "
            f"{mrs.get_rope(rope_id).duration:.2f} s"
        )
        print(
            f"played {metrics.blocks_delivered} blocks, misses "
            f"{metrics.misses}, startup "
            f"{format_seconds(metrics.startup_latency)}"
        )
    return 0 if metrics.continuous else 1


def _scenario(
    args: argparse.Namespace, name: str, smoke: bool = False, **overrides
):
    """The registry entry *name* and its parameters for this command.

    *overrides* maps parameter names to option values; options left
    unset (None) keep the entry's defaults (its smoke sizes with
    *smoke*).
    """
    from repro.scenarios import SCENARIOS

    entry = SCENARIOS[name]
    try:
        return entry, entry.resolve(overrides, smoke=smoke)
    except ParameterError as error:
        raise SystemExit(f"{args.command}: {error}") from None


def _cmd_obs_report(args: argparse.Namespace) -> int:
    entry, params = _scenario(
        args, args.scenario, seconds=args.seconds,
        head_failure_at_op=args.head_failure_at_op,
    )
    obs = entry.observability(args.seed)
    run = entry.run(args.seed, obs, **params)
    if args.json:
        print(obs.snapshot(include_profile=args.profile_timers))
    else:
        print(obs.report(top=args.top))
        print()
        print(", ".join(
            f"{key}={value}"
            for key, value in entry.metrics(run).items()
            if value is not None
        ))
    return 0 if entry.healthy(run) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    entry, params = _scenario(
        args, args.scenario, smoke=args.smoke,
        streams=args.streams, blocks_per_stream=args.blocks,
    )
    obs = entry.observability(args.seed)
    profiler = obs.enable_profiler()
    run = entry.run(args.seed, obs, **params)
    section = entry.profile_section(args.seed, params, run, obs)
    share_sum = sum(
        phase["share"] for phase in section["phases"].values()
    )
    # Attribution must account for the whole run: shares sum to 1
    # whenever anything was recorded.
    healthy = (
        profiler.total_ops > 0 and abs(share_sum - 1.0) <= 1e-9
    )
    if args.trace_out:
        document = obs.to_chrome_trace()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    elif args.smoke:
        hottest = profiler.top_cost_centers(1)[0]
        print(
            f"profile smoke: {profiler.total_ops} ops, "
            f"{profiler.total_cost:.6f}s modeled, hottest "
            f"{hottest['phase']} ({hottest['share']:.1%}), share sum "
            f"{share_sum:.12f}"
        )
    else:
        print(f"profile: {args.scenario} (seed {args.seed})")
        print(
            f"  total: {profiler.total_ops} ops, "
            f"{profiler.total_cost:.6f}s modeled"
        )
        print("  cost centers:")
        for center in profiler.top_cost_centers(args.top):
            print(
                f"    {center['phase']:<20} ops={center['ops']:<10} "
                f"cost={center['cost_s']:.6f}s share={center['share']:.4f}"
            )
        for drive, phases in sorted(section["per_drive"].items()):
            cost = sum(stat["cost_s"] for stat in phases.values())
            ops = sum(stat["ops"] for stat in phases.values())
            print(
                f"  drive {drive:<14} ops={ops:<10} cost={cost:.6f}s"
            )
        for node_id in obs.node_ids():
            summary = profiler.node_summary(node_id)
            if not summary:
                continue
            cost = sum(stat["cost_s"] for stat in summary.values())
            ops = sum(stat["ops"] for stat in summary.values())
            print(
                f"  node {node_id:<15} ops={ops:<10} cost={cost:.6f}s"
            )
        if args.trace_out:
            print(f"  wrote {args.trace_out}")
    return 0 if healthy else 1


def _cmd_perf_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.perf import run_sweep, scale_grid

    grid = scale_grid(
        stream_counts=args.streams,
        blocks_per_stream=args.blocks,
        seeds=args.seeds if args.seeds is not None else [args.seed],
        drives=args.drives,
        arrivals=args.arrivals,
        k=args.k,
        buffer_capacity=args.buffer,
    )
    report = run_sweep(grid, workers=args.workers)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.table().render())
        print(
            f"\n{report.total_blocks} blocks in "
            f"{format_seconds(report.wall_time_s)} wall"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.server import run_serve_compare

    entry, params = _scenario(
        args, "server-hot", smoke=args.smoke,
        sessions=args.sessions,
        strands=args.strands,
        seconds=args.seconds,
        cache_blocks=0 if args.no_cache else args.cache_blocks,
        batch_window=args.batch_window,
        batching=False if args.no_batch else None,
    )
    if args.compare:
        record = run_serve_compare(
            sessions=params["sessions"],
            strands=params["strands"],
            seconds=params["seconds"],
            seed=args.seed,
        )
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            batched, per_request = record["batched"], record["per_request"]
            print(
                f"{record['sessions']} sessions over "
                f"{record['strands']} hot strands:"
            )
            print(
                f"  batched + cached : {batched['continuous']} continuous "
                f"({batched['batches']} batches, "
                f"{batched['cache_hits']} cache hits)"
            )
            print(
                f"  per-request      : {per_request['continuous']} "
                f"continuous ({per_request['rejected']} rejected)"
            )
        won = (
            record["batched"]["continuous"]
            > record["per_request"]["continuous"]
        )
        return 0 if won else 1
    run = entry.run(args.seed, None, **params)
    if args.smoke:
        print(run.snapshot())
        return 0 if entry.healthy(run) else 1
    result = run.final
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"served {len(result.statuses)} sessions over "
            f"{len(run.rope_ids)} strands: {result.admitted} admitted, "
            f"{result.continuous_sessions} continuous, "
            f"{len(result.rejects)} rejected"
        )
        print(
            f"  {result.batches} batches, {result.rounds} rounds at "
            f"k={result.k_used}, cache {result.cache_stats or 'off'}"
        )
    return 0 if entry.healthy(run) else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json

    failover = args.failover or args.smoke
    entry, params = _scenario(
        args, "cluster-failover" if failover else "cluster-scale",
        smoke=args.smoke,
        nodes=args.nodes,
        sessions=args.sessions,
        titles=args.titles,
        seconds=args.seconds,
        per_node_streams=args.per_node_streams,
        min_replicas=args.replicas,
        chunks=args.chunks,
        kill_node=args.kill_node,
        kill_chunk=args.kill_chunk,
    )
    run = entry.run(args.seed, None, **params)
    result = run.result
    if args.smoke:
        clean = (
            result.continuous_sessions == result.admitted
            and result.handoffs_clean == len(result.handoffs)
            and not result.rejects
        )
        print(run.snapshot())
        return 0 if clean else 1
    ratio = result.handoff_clean_ratio
    if args.json:
        print(json.dumps({
            "summary": {
                "nodes": len(result.nodes),
                "sessions": len(result.statuses),
                "admitted": result.admitted,
                "continuous": result.continuous_sessions,
                "rejected": len(result.rejects),
                "handoffs": len(result.handoffs),
                "handoffs_clean": result.handoffs_clean,
                "handoff_clean_ratio": ratio,
                "chunks": result.chunks,
            },
            "bounds": run.bounds.to_dict(),
            "placement": {
                title: list(nodes) for title, nodes in result.placement
            },
            "nodes": [node.to_dict() for node in result.nodes],
        }, indent=2, sort_keys=True))
    else:
        print(
            f"cluster of {len(result.nodes)} nodes served "
            f"{len(result.statuses)} sessions: {result.admitted} "
            f"admitted, {result.continuous_sessions} continuous, "
            f"{len(result.rejects)} rejected"
        )
        if result.handoffs:
            print(
                f"  handoffs: {result.handoffs_clean}/"
                f"{len(result.handoffs)} clean "
                f"(ratio {ratio:.2f})"
            )
        bounds = run.bounds
        print(
            f"  bounds: full-catalog {bounds.full_catalog} streams, "
            f"demand {bounds.demand_satisfiable}/{bounds.demand_total} "
            f"satisfiable, storage "
            f"{'ok' if bounds.storage_ok else 'infeasible'}"
        )
    return 0 if entry.healthy(run) else 1


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    entry, params = _scenario(args, args.scenario)
    obs = entry.observability(args.seed)
    if args.profile:
        obs.enable_profiler()
    entry.run(args.seed, obs, **params)
    document = obs.to_chrome_trace()
    payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    if args.json:
        sys.stdout.write(payload)
    else:
        other = document["otherData"]
        print(
            f"{args.scenario}: {other['spans']} spans "
            f"({other['dropped']} dropped), "
            f"{len(document['traceEvents'])} trace events"
        )
        if args.out:
            print(f"wrote {args.out}")
        else:
            print(
                "pass --out FILE (or --json) and load the file in "
                "https://ui.perfetto.dev or chrome://tracing"
            )
    return 0


#: Default artifact locations for the ``expt`` command (cwd-relative,
#: i.e. the repo root in the documented workflow).
EXPT_BASELINE_PATH = "tests/baselines/matrix_baseline.json"
EXPT_RESULTS_ROOT = "results"


def _load_manifest_file(path: str) -> dict:
    import json

    from repro.expt import validate_manifest

    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            f"expt: manifest {path!r} not found; run "
            "`repro expt run --smoke` first (or pass --manifest)"
        ) from None
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"expt: manifest {path!r} is not valid JSON: {error}"
        ) from None
    return validate_manifest(manifest)


def _cmd_expt_run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.expt import load_config, run_matrix, smoke_config
    from repro.expt.runner import stable_json, write_results

    if args.smoke and args.config:
        raise SystemExit("expt run: pass either --smoke or --config")
    if args.config:
        config = load_config(args.config)
    elif args.smoke:
        config = smoke_config()
    else:
        raise SystemExit(
            "expt run: pass --smoke or --config experiments/<name>.json"
        )
    report = run_matrix(config, workers=args.workers)
    out_dir = args.out or str(Path(EXPT_RESULTS_ROOT) / config.name)
    manifest_path = write_results(report, out_dir)
    if args.regen_baseline:
        baseline_path = Path(args.baseline)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(stable_json(report.manifest_dict()))
    if args.json:
        print(json.dumps(
            report.manifest_dict(), indent=2, sort_keys=True
        ))
    else:
        print(
            f"expt run '{config.name}' ({config.hash[:19]}…): "
            f"{len(report.cells)} cells, {report.workers} worker(s), "
            f"{'parallel' if report.parallel else 'serial'}, "
            f"{format_seconds(report.wall_time_s)} wall"
        )
        for cell in report.cells:
            metrics = {
                key: value
                for key, value in cell.metrics.items()
                if value is not None
            }
            print(f"  {cell.cell_id}: {metrics}")
        print(f"wrote {manifest_path}")
        if args.regen_baseline:
            print(f"regenerated baseline {args.baseline}")
    return 0


def _cmd_expt_gate(args: argparse.Namespace) -> int:
    import json

    from repro.expt import gate_manifest

    manifest = _load_manifest_file(args.manifest)
    try:
        baseline = _load_manifest_file(args.baseline)
    except SystemExit:
        raise SystemExit(
            f"expt: baseline {args.baseline!r} not found or invalid; "
            "regenerate with `repro expt run --smoke --regen-baseline`"
        ) from None
    report = gate_manifest(
        manifest, baseline, allow_extra_cells=args.allow_extra_cells
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        if args.verbose:
            print(report.table().render())
        print(report.render())
    return 0 if report.passed else 1


def _cmd_expt_diff(args: argparse.Namespace) -> int:
    import json

    from repro.expt import diff_manifests

    manifest = _load_manifest_file(args.manifest)
    baseline = _load_manifest_file(args.baseline)
    delta = diff_manifests(manifest, baseline)
    if args.json:
        print(json.dumps(delta, indent=2, sort_keys=True))
        return 0
    print(
        f"expt diff: '{delta['manifest']}' vs baseline "
        f"'{delta['baseline']}'"
    )
    for cell_id, entry in delta["cells"].items():
        if entry["status"] != "common":
            print(f"  {cell_id}: {entry['status']}")
            continue
        for metric, change in entry["deltas"].items():
            relative = change.get("relative")
            suffix = (
                f" ({relative * 100:+.1f}%)" if relative is not None
                else ""
            )
            print(
                f"  {cell_id} :: {metric}: "
                f"{change['baseline']} -> {change['observed']}{suffix}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Rangan & Vin, 'Designing File Systems for "
            "Digital Video and Audio' (SOSP 1991)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "profiles", help="list hardware profiles"
    ).set_defaults(handler=_cmd_profiles)

    policy = commands.add_parser(
        "policy", help="show derived placement policies"
    )
    policy.add_argument(
        "--profile", default="testbed-1991", help="profile name"
    )
    policy.set_defaults(handler=_cmd_policy)

    experiments = commands.add_parser(
        "experiments", help="run experiment drivers and print tables"
    )
    experiments.add_argument(
        "ids", nargs="*",
        help="experiment ids (e1..e21); default all",
    )
    experiments.set_defaults(handler=_cmd_experiments)

    demo = commands.add_parser("demo", help="record and play a demo clip")
    demo.add_argument("--profile", default="testbed-1991")
    demo.add_argument("--seconds", type=float, default=10.0)
    _add_common_options(
        demo, seed_default=2026, seed_help="talk-spurt generator seed",
        json_help="print the demo outcome as JSON",
    )
    demo.set_defaults(handler=_cmd_demo)

    obs_report = commands.add_parser(
        "obs-report",
        help="run an observed scenario and print its telemetry",
    )
    _add_scenario_option(obs_report, "steady", "report")
    obs_report.add_argument(
        "--profile-timers", action="store_true",
        help="include wall-clock timer data (not byte-stable) in --json",
    )
    obs_report.add_argument(
        "--seconds", type=float, default=None,
        help="media seconds per recording (default: the scenario's)",
    )
    _add_common_options(
        obs_report, seed_help="scenario seed (fault plan, trace ids)",
        json_help="print the raw snapshot JSON instead of the report",
    )
    obs_report.add_argument(
        "--head-failure-at-op", type=int, default=None,
        help="inject a head failure at this disk-op index (fault)",
    )
    obs_report.add_argument(
        "--top", type=int, default=5,
        help="profiler cost centers to list in the report (default: 5)",
    )
    obs_report.set_defaults(handler=_cmd_obs_report)

    profile = commands.add_parser(
        "profile",
        help="run a scenario under the cost-attribution profiler",
    )
    _add_scenario_option(profile, "scale", "profile")
    profile.add_argument(
        "--streams", type=int, default=None,
        help="concurrent streams (scale)",
    )
    profile.add_argument(
        "--blocks", type=int, default=None,
        help="blocks per stream (scale)",
    )
    profile.add_argument(
        "--top", type=int, default=5,
        help="cost centers to list (default: 5)",
    )
    profile.add_argument(
        "--smoke", action="store_true",
        help="run the scenario at its smoke size and verify attribution "
             "health",
    )
    profile.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write a Perfetto-loadable trace with profile.<phase> "
             "counter tracks to FILE",
    )
    _add_common_options(
        profile, seed_help="scenario seed (attribution derives from it)",
        json_help="print the profile section as stable JSON",
    )
    profile.set_defaults(handler=_cmd_profile)

    perf_sweep = commands.add_parser(
        "perf-sweep",
        help="run the parallel service-loop scale sweep",
    )
    perf_sweep.add_argument(
        "--streams", type=int, nargs="+", default=[10, 100],
        help="concurrent-stream counts to sweep (default: 10 100)",
    )
    perf_sweep.add_argument(
        "--blocks", type=int, default=200,
        help="blocks per stream (default: 200)",
    )
    perf_sweep.add_argument("--k", type=int, default=4)
    perf_sweep.add_argument(
        "--buffer", type=int, default=8,
        help="display buffers per stream (default: 8)",
    )
    perf_sweep.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="placement seeds to sweep (default: the --seed value)",
    )
    perf_sweep.add_argument(
        "--drives", nargs="+", default=["testbed"],
        choices=["testbed", "fast", "table"],
        help="drive configs to sweep (default: testbed)",
    )
    perf_sweep.add_argument(
        "--arrivals", nargs="+", default=["uniform"],
        choices=["uniform", "staggered"],
        help="arrival mixes to sweep (default: uniform)",
    )
    perf_sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: min(scenarios, cpu count))",
    )
    _add_common_options(
        perf_sweep, seed_default=0,
        seed_help="placement seed (when --seeds is not given)",
        json_help="print the sweep report as JSON",
    )
    perf_sweep.set_defaults(handler=_cmd_perf_sweep)

    serve = commands.add_parser(
        "serve",
        help="serve a multi-tenant MediaServer scenario",
    )
    serve.add_argument(
        "--sessions", type=int, default=None,
        help="concurrent open requests in the hot wave",
    )
    serve.add_argument(
        "--strands", type=int, default=None,
        help="distinct hot ropes the sessions share",
    )
    serve.add_argument(
        "--seconds", type=float, default=None,
        help="length of each recorded strand, seconds",
    )
    serve.add_argument(
        "--cache-blocks", type=int, default=None,
        help="block-cache capacity, blocks",
    )
    serve.add_argument(
        "--batch-window", type=float, default=None,
        help="admission batching window, seconds",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the block cache (implies per-request reads)",
    )
    serve.add_argument(
        "--no-batch", action="store_true",
        help="disable batched admission (every request its own batch)",
    )
    serve.add_argument(
        "--compare", action="store_true",
        help="run batched+cached vs per-request and print both",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="run server-hot at its smoke size and emit its obs snapshot",
    )
    _add_common_options(
        serve, seed_help="arrival-jitter seed",
        json_help="print the serve result as JSON",
    )
    serve.set_defaults(handler=_cmd_serve)

    cluster = commands.add_parser(
        "cluster",
        help="serve a sharded multi-node cluster scenario",
    )
    cluster.add_argument(
        "--nodes", type=int, default=None,
        help="MediaServer nodes in the cluster",
    )
    cluster.add_argument(
        "--sessions", type=int, default=None,
        help="concurrent open requests",
    )
    cluster.add_argument(
        "--titles", type=int, default=None,
        help="catalog titles, Zipf-popular",
    )
    cluster.add_argument(
        "--seconds", type=float, default=None,
        help="length of each recorded title, seconds",
    )
    cluster.add_argument(
        "--per-node-streams", type=int, default=None,
        help="per-node concurrent-session capacity",
    )
    cluster.add_argument(
        "--replicas", type=int, default=None,
        help="minimum replicas per title",
    )
    cluster.add_argument(
        "--chunks", type=int, default=None,
        help="chunk epochs per session (handoff granularity)",
    )
    cluster.add_argument(
        "--failover", action="store_true",
        help="run the node-kill failover scenario instead of scale",
    )
    cluster.add_argument(
        "--kill-node", type=int, default=None,
        help="node index the failover plan kills",
    )
    cluster.add_argument(
        "--kill-chunk", type=int, default=None,
        help="chunk boundary the kill fires at",
    )
    cluster.add_argument(
        "--smoke", action="store_true",
        help="run cluster-failover at its smoke size and emit its obs "
             "snapshot",
    )
    _add_common_options(
        cluster, seed_help="workload seed (title draws and arrivals)",
        json_help="print the cluster summary and bounds as JSON",
    )
    cluster.set_defaults(handler=_cmd_cluster)

    trace_export = commands.add_parser(
        "trace-export",
        help="export a scenario's causal trace as Chrome trace JSON",
    )
    _add_scenario_option(trace_export, "server-steady", "trace")
    trace_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the trace-event JSON to FILE",
    )
    trace_export.add_argument(
        "--profile", action="store_true",
        help="also attach the cost profiler, so the export carries "
             "profile.<phase> counter tracks alongside the spans",
    )
    _add_common_options(
        trace_export, seed_help="scenario seed (trace ids derive from it)",
        json_help="print the trace-event JSON to stdout",
    )
    trace_export.set_defaults(handler=_cmd_trace_export)

    expt = commands.add_parser(
        "expt",
        help="experiment-matrix harness: run, gate, diff",
    )
    expt_commands = expt.add_subparsers(dest="expt_command", required=True)

    expt_run = expt_commands.add_parser(
        "run", help="expand a matrix config and run every cell"
    )
    expt_run.add_argument(
        "--config", default=None, metavar="FILE",
        help="experiment config JSON (see experiments/)",
    )
    expt_run.add_argument(
        "--smoke", action="store_true",
        help="run the builtin tiny CI matrix",
    )
    expt_run.add_argument(
        "--out", default=None, metavar="DIR",
        help=f"results directory (default: {EXPT_RESULTS_ROOT}/<name>)",
    )
    expt_run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: min(cells, cpu count))",
    )
    expt_run.add_argument(
        "--regen-baseline", action="store_true",
        help="also rewrite the committed gate baseline from this run",
    )
    expt_run.add_argument(
        "--baseline", default=EXPT_BASELINE_PATH, metavar="FILE",
        help="baseline path used by --regen-baseline "
             f"(default: {EXPT_BASELINE_PATH})",
    )
    _add_common_options(
        expt_run, include_seed=False,
        json_help="print the manifest JSON instead of the summary",
    )
    expt_run.set_defaults(handler=_cmd_expt_run)

    expt_gate = expt_commands.add_parser(
        "gate",
        help="compare a results manifest against the committed baseline",
    )
    expt_gate.add_argument(
        "--manifest", metavar="FILE",
        default=f"{EXPT_RESULTS_ROOT}/smoke/matrix.json",
        help="results manifest to judge "
             f"(default: {EXPT_RESULTS_ROOT}/smoke/matrix.json)",
    )
    expt_gate.add_argument(
        "--baseline", default=EXPT_BASELINE_PATH, metavar="FILE",
        help=f"baseline manifest (default: {EXPT_BASELINE_PATH})",
    )
    expt_gate.add_argument(
        "--allow-extra-cells", action="store_true",
        help="treat manifest cells absent from the baseline as notes, "
             "not failures",
    )
    expt_gate.add_argument(
        "--verbose", action="store_true",
        help="print the full per-check verdict table",
    )
    _add_common_options(
        expt_gate, include_seed=False,
        json_help="print the verdicts as JSON",
    )
    expt_gate.set_defaults(handler=_cmd_expt_gate)

    expt_diff = expt_commands.add_parser(
        "diff", help="per-cell metric deltas between two manifests"
    )
    expt_diff.add_argument(
        "--manifest", metavar="FILE",
        default=f"{EXPT_RESULTS_ROOT}/smoke/matrix.json",
        help="results manifest "
             f"(default: {EXPT_RESULTS_ROOT}/smoke/matrix.json)",
    )
    expt_diff.add_argument(
        "--baseline", default=EXPT_BASELINE_PATH, metavar="FILE",
        help=f"manifest to diff against (default: {EXPT_BASELINE_PATH})",
    )
    _add_common_options(
        expt_diff, include_seed=False,
        json_help="print the deltas as JSON",
    )
    expt_diff.set_defaults(handler=_cmd_expt_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
