"""The ``repro-stream`` command line.

Streams one or more client sessions over a scene and prints per-session
serving metrics — cold vs. warm cache hit rates, binning reuse, and
simulated / wall throughput.  Installed as the ``repro-stream`` console
script; also runnable without installation:

    PYTHONPATH=src python -m repro.stream --scene bicycle \\
        --trajectory orbit --frames 16 --sessions 2 --workers 0

The ``fleet`` subcommand serves *generated* open-loop traffic over a
multi-node fleet instead of a hand-built session list:

    PYTHONPATH=src python -m repro.stream fleet --nodes 2 \\
        --mix mixed --rate 40 --duration 0.5 --detail 0.5

It prints per-node serving totals plus the fleet summary (throughput,
queue depth, migrations, autoscale events); ``--max-nodes`` above
``--nodes`` enables threshold autoscaling.

With ``--target-fps`` every session runs under deadline-aware quality
control (:mod:`repro.stream.qos`): ``--qos adaptive`` (default) lets
the per-session controller walk the detail ladder, ``--qos fixed``
only tracks deadline hits/misses at the requested detail; the table
then also reports each session's deadline-miss rate and mean delivered
detail.

``--render-mode approx`` serves with the contribution-aware
approximate backend (optionally tuned with ``--tolerance``), and
``--shards N`` enables intra-frame tile sharding: a static N-way split
without QoS, or the controller's escalation ceiling under
``--target-fps`` with adaptive QoS.

``--content-cache`` enables the tiered content-addressed render cache
(:mod:`repro.stream.content_cache`): co-located viewers whose poses
fall in the same quantization cell (``--pose-quant``, scene units; 0
dedups only bit-identical poses) are served one shared render product,
and the summary gains a per-tier hit-rate/traffic line.  Both the main
command and the ``fleet`` subcommand accept the pair.

Each session gets its own trajectory: session ``i`` uses seed
``seed + i`` (head-jitter) or phase offset ``i`` (orbit), so concurrent
clients view the scene from distinct, deterministic paths.

Invalid arguments — an unknown scene, a non-positive ``--detail`` or
``--target-fps`` — exit with status 2 and a one-line ``error:``
message, never a traceback.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from dataclasses import replace

from repro.core.reuse_cache import POLICIES
from repro.errors import ValidationError
from repro.harness import format_table
from repro.render.approx import APPROX_TOLERANCE_ENV_VAR
from repro.render.backends import get_backend
from repro.scenes.catalog import CATALOG
from repro.stream.content_cache import ContentCacheConfig, economics_to_dict
from repro.stream.digest import WorkloadModelTable
from repro.stream.fleet import ROUTERS, EdgeFleet
from repro.stream.pipeline import PIPELINES, streaming_config
from repro.stream.qos import QoSPolicy
from repro.stream.scheduler import PLACEMENTS
from repro.stream.server import StreamServer, StreamSession
from repro.stream.traffic import MIXES, PROFILES, RateProfile, TrafficGenerator
from repro.stream.trajectory import TRAJECTORY_KINDS as TRAJECTORIES, CameraTrajectory

QOS_MODES = ("adaptive", "fixed")

RENDER_MODES = ("exact", "approx")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    """The frame-pipeline argument pair, shared by both serve commands."""
    parser.add_argument(
        "--pipeline",
        default="exact",
        choices=PIPELINES,
        help="frame pipeline: 'exact' renders every frame; 'digest' "
        "advances sessions from calibrated workload models "
        "(default: exact)",
    )
    parser.add_argument(
        "--models",
        metavar="PATH",
        default=None,
        help="workload-model table JSON (see the 'calibrate' "
        "subcommand); with --pipeline digest and no --models, a table "
        "is calibrated in-process before serving",
    )


def _validate_pipeline_args(args: argparse.Namespace) -> None:
    if args.models is not None and args.pipeline != "digest":
        raise ValidationError("--models requires --pipeline digest")


def _load_models(path: str) -> WorkloadModelTable:
    """Load a workload-model table from JSON.

    Failures are argument-shaped — a missing/unreadable file or
    malformed JSON is the user mistyping ``--models``, not a server
    bug — so both routes surface as :class:`ValidationError` (one-line
    ``error:`` message, exit 2), never a bare traceback.
    ``from_json`` already maps ``json.JSONDecodeError`` to
    :class:`ValidationError`; the I/O side is mapped here.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read --models '{path}': {exc}") from exc
    return WorkloadModelTable.from_json(text)


def _add_content_cache_args(parser: argparse.ArgumentParser) -> None:
    """The content-cache argument pair, shared by both commands."""
    parser.add_argument(
        "--content-cache",
        action="store_true",
        help="enable the tiered content-addressed render cache "
        "(whole-frame dedup across co-located viewers)",
    )
    parser.add_argument(
        "--pose-quant",
        type=float,
        default=0.0,
        metavar="Q",
        help="camera-eye quantization cell size in scene units; viewers "
        "inside one cell share rendered frames (0 = exact poses only; "
        "requires --content-cache)",
    )


def _validate_content_cache_args(args: argparse.Namespace) -> None:
    if args.pose_quant < 0:
        raise ValidationError("--pose-quant cannot be negative")
    if args.pose_quant > 0 and not args.content_cache:
        raise ValidationError("--pose-quant requires --content-cache")


def _content_config(args: argparse.Namespace) -> ContentCacheConfig | None:
    if not args.content_cache:
        return None
    return ContentCacheConfig(pose_quant=args.pose_quant)


def _print_content_economics(totals: dict) -> None:
    parts = []
    for level, econ in economics_to_dict(totals).items():
        parts.append(
            f"{level} {econ['hits']}/{econ['accesses']} "
            f"({econ['hit_rate']:.0%})"
        )
    line = ", ".join(parts) if parts else "no lookups"
    print(f"content cache hits by tier: {line}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream",
        description="Stream frame sequences over catalog scenes "
        "with cross-frame reuse.",
    )
    parser.add_argument(
        "--scene",
        default="bicycle",
        help="catalog scene (default: bicycle)",
    )
    parser.add_argument(
        "--trajectory",
        default="orbit",
        choices=TRAJECTORIES,
        help="camera path archetype (default: orbit)",
    )
    parser.add_argument(
        "--frames", type=int, default=16, help="frames per session (default: 16)"
    )
    parser.add_argument(
        "--sessions", type=int, default=1, help="concurrent sessions (default: 1)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes; 0 = in-process (default: 0)",
    )
    parser.add_argument(
        "--placement",
        default="load",
        choices=PLACEMENTS,
        help="session->worker policy: load-aware or round-robin "
        "(default: load)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: serve at most N sessions concurrently, "
        "queueing the rest (default: unlimited)",
    )
    parser.add_argument(
        "--detail", type=float, default=1.0, help="scene detail multiplier"
    )
    parser.add_argument(
        "--target-fps",
        type=float,
        default=None,
        metavar="FPS",
        help="per-frame deadline as a refresh rate (e.g. 72); enables "
        "QoS tracking (default: no deadline)",
    )
    parser.add_argument(
        "--qos",
        default="adaptive",
        choices=QOS_MODES,
        help="with --target-fps: 'adaptive' closes the loop on detail, "
        "'fixed' only records deadline hits/misses (default: adaptive)",
    )
    parser.add_argument(
        "--backend",
        default="vectorized",
        help="render backend (default: vectorized)",
    )
    parser.add_argument(
        "--render-mode",
        default="exact",
        choices=RENDER_MODES,
        help="'exact' renders with --backend; 'approx' renders with the "
        "contribution-aware approximate backend (measured-quality, see "
        "BENCH_approx.json) (default: exact)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="T",
        help="approx-mode quality tolerance in [0, 1]; only valid with "
        "--render-mode approx (default: the backend's built-in default)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="intra-frame tile shards: with --target-fps and adaptive QoS "
        "this is the escalation ceiling (sessions shard only after their "
        "quality band is exhausted); otherwise every frame renders with "
        "N parallel tile engines (default: 1)",
    )
    parser.add_argument(
        "--cache-policy",
        default="reuse_distance",
        choices=sorted(POLICIES),
        help="reuse-cache policy (default: reuse_distance)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed for jittered paths"
    )
    _add_pipeline_args(parser)
    _add_content_cache_args(parser)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full per-frame report as JSON ('-' for stdout)",
    )
    return parser


def validate_args(args: argparse.Namespace) -> None:
    """Reject invalid argument values with :class:`ValidationError`."""
    if args.scene not in CATALOG:
        raise ValidationError(
            f"unknown scene '{args.scene}'; choose from "
            + ", ".join(sorted(CATALOG))
        )
    if args.frames <= 0:
        raise ValidationError("--frames must be positive")
    if args.sessions <= 0:
        raise ValidationError("--sessions must be positive")
    if args.workers < 0:
        raise ValidationError("--workers cannot be negative")
    if args.max_inflight is not None and args.max_inflight < 1:
        raise ValidationError("--max-inflight must be at least 1")
    if args.detail <= 0:
        raise ValidationError("--detail must be positive")
    if args.target_fps is not None and args.target_fps <= 0:
        raise ValidationError("--target-fps must be positive")
    if args.seed < 0:
        raise ValidationError("--seed cannot be negative")
    # Resolve the backend eagerly: an unknown name is an argument
    # mistake (one-line error, exit 2), not a mid-serve traceback.
    get_backend(args.backend)
    if args.shards < 1:
        raise ValidationError("--shards must be at least 1")
    if args.tolerance is not None:
        if args.render_mode != "approx":
            raise ValidationError(
                "--tolerance is only valid with --render-mode approx"
            )
        if not 0.0 <= args.tolerance <= 1.0:
            raise ValidationError("--tolerance must be in [0, 1]")
    _validate_pipeline_args(args)
    _validate_content_cache_args(args)


def make_sessions(args: argparse.Namespace) -> list[StreamSession]:
    """Deterministic per-client sessions from the CLI arguments."""
    spec = CATALOG[args.scene]
    backend = "approx" if args.render_mode == "approx" else args.backend
    adaptive = args.target_fps is not None and args.qos == "adaptive"
    config = streaming_config(
        backend=backend, cache_policy=args.cache_policy
    )
    if args.shards > 1 and not adaptive:
        # No controller to escalate: every frame shards statically.
        config = replace(config, shards=args.shards)
    qos = None
    if args.target_fps is not None:
        qos = (
            QoSPolicy.fixed()
            if args.qos == "fixed"
            else QoSPolicy(max_shards=args.shards)
        )
    sessions = []
    for i in range(args.sessions):
        trajectory = CameraTrajectory.for_scene(
            spec,
            kind=args.trajectory,
            n_frames=args.frames,
            seed=args.seed + i,
            detail=args.detail,
            phase_deg=i * 360.0 / args.sessions,
        )
        sessions.append(
            StreamSession(
                session_id=f"{args.scene}-{args.trajectory}-{i}",
                scene=args.scene,
                trajectory=trajectory,
                detail=args.detail,
                config=config,
                target_fps=args.target_fps,
                qos=qos,
                pipeline=args.pipeline,
            )
        )
    return sessions


def _run(args: argparse.Namespace, sessions: list[StreamSession]) -> int:
    models = None
    if args.pipeline == "digest":
        if args.models is not None:
            models = _load_models(args.models)
        else:
            # Self-calibration: one exact render of the requested
            # workload, then every session digests from it.
            models = WorkloadModelTable.calibrate(
                [args.scene],
                details=(args.detail,),
                trajectories=(args.trajectory,),
                n_frames=min(args.frames, 8),
                config=sessions[0].config,
                seed=args.seed,
            )
        print(
            f"digest pipeline: {len(models)} workload model(s) "
            + ("loaded" if args.models is not None else "calibrated")
        )
    with StreamServer(
        workers=args.workers,
        placement=args.placement,
        max_inflight=args.max_inflight,
        content_cache=_content_config(args),
        models=models,
    ) as server:
        server.warm_up()
        results, summary = server.serve_timed(sessions)
        content_totals = server.content_totals

    with_qos = args.target_fps is not None
    headers = [
        "session",
        "worker",
        "frames",
        "cold hit",
        "warm hit",
        "bin reuse",
        "sim FPS",
        "wall FPS",
    ]
    if with_qos:
        headers += ["miss rate", "mean detail"]
    rows = []
    for r in results:
        rep = r.report
        row = [
            r.session_id,
            r.worker,
            rep.n_frames,
            rep.cold_hit_rate,
            rep.warm_hit_rate,
            rep.binning_reuse,
            rep.mean_sim_fps,
            rep.wall_fps,
        ]
        if with_qos:
            row += [rep.deadline_miss_rate(), rep.mean_detail]
        rows.append(row)
    print(format_table(headers, rows))
    print(
        f"\nserved {summary.total_frames} frames over "
        f"{summary.workers} worker(s), '{args.placement}' placement: "
        f"{summary.sim_frames_per_sec:.1f} simulated frames/sec "
        f"(aggregate), {summary.wall_frames_per_sec:.2f} wall frames/sec"
    )
    if with_qos:
        misses = sum(
            1
            for r in results
            for f in r.report.frames
            if f.qos is not None and not f.qos.met
        )
        print(
            f"QoS ({args.qos}, {args.target_fps:g} Hz): "
            f"{misses}/{summary.total_frames} deadline misses"
        )
    if args.content_cache:
        _print_content_economics(content_totals)

    if args.json is not None:
        payload = {
            "scene": args.scene,
            "trajectory": args.trajectory,
            "pipeline": args.pipeline,
            "workers": summary.workers,
            "placement": args.placement,
            "target_fps": args.target_fps,
            "qos": args.qos if with_qos else None,
            "sim_frames_per_sec": summary.sim_frames_per_sec,
            "wall_frames_per_sec": summary.wall_frames_per_sec,
            **(
                {
                    "content_cache": economics_to_dict(content_totals),
                    "pose_quant": args.pose_quant,
                }
                if args.content_cache
                else {}
            ),
            "sessions": [r.report.to_dict() for r in results],
        }
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    return 0


# ----------------------------------------------------------------------
# The `fleet` subcommand: generated traffic over a multi-node fleet
# ----------------------------------------------------------------------
def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream fleet",
        description="Serve generated open-loop traffic over a fleet of "
        "stream-server nodes.",
    )
    parser.add_argument(
        "--nodes", type=int, default=2, help="initial fleet nodes (default: 2)"
    )
    parser.add_argument(
        "--node-workers",
        type=int,
        default=1,
        help="workers per node (default: 1)",
    )
    parser.add_argument(
        "--node-capacity",
        type=int,
        default=4,
        help="max concurrent sessions per node (default: 4)",
    )
    parser.add_argument(
        "--router",
        default="least",
        choices=ROUTERS,
        help="node selection: least-loaded or scene affinity "
        "(default: least)",
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="autoscaling ceiling; above --nodes enables queue-driven "
        "scale-up (default: --nodes, autoscaling off)",
    )
    parser.add_argument(
        "--min-nodes",
        type=int,
        default=None,
        metavar="N",
        help="autoscaling floor for idle-node drain (default: --nodes)",
    )
    parser.add_argument(
        "--no-migration",
        action="store_true",
        help="disable cross-node checkpoint-replay rebalancing",
    )
    parser.add_argument(
        "--mix",
        default="mixed",
        choices=sorted(MIXES),
        help="traffic archetype mix (default: mixed)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=40.0,
        help="peak arrivals per simulated second (default: 40)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=0.5,
        help="arrival window in simulated seconds (default: 0.5)",
    )
    parser.add_argument(
        "--profile",
        default="constant",
        choices=PROFILES,
        help="arrival-rate shape (default: constant)",
    )
    parser.add_argument(
        "--detail",
        type=float,
        default=1.0,
        help="global detail multiplier on the generated sessions",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="traffic generator seed"
    )
    parser.add_argument(
        "--compact",
        action="store_true",
        help="generate compact sessions (one-pose trajectories, frame "
        "budgets on the session) — required at 10^5+ sessions; needs "
        "--pipeline digest and no --content-cache",
    )
    _add_pipeline_args(parser)
    _add_content_cache_args(parser)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the fleet report as JSON ('-' for stdout)",
    )
    return parser


def validate_fleet_args(args: argparse.Namespace) -> None:
    """Reject invalid fleet arguments with :class:`ValidationError`."""
    if args.nodes < 1:
        raise ValidationError("--nodes must be at least 1")
    if args.node_workers < 1:
        raise ValidationError("--node-workers must be at least 1")
    if args.node_capacity < 1:
        raise ValidationError("--node-capacity must be at least 1")
    if args.rate <= 0:
        raise ValidationError("--rate must be positive")
    if args.duration <= 0:
        raise ValidationError("--duration must be positive")
    if args.detail <= 0:
        raise ValidationError("--detail must be positive")
    if args.max_nodes is not None and args.max_nodes < args.nodes:
        raise ValidationError("--max-nodes cannot be below --nodes")
    if args.min_nodes is not None and not 1 <= args.min_nodes <= args.nodes:
        raise ValidationError("--min-nodes must be in [1, --nodes]")
    if args.seed < 0:
        raise ValidationError("--seed cannot be negative")
    _validate_pipeline_args(args)
    if args.compact and args.pipeline != "digest":
        raise ValidationError("--compact requires --pipeline digest")
    if args.compact and args.content_cache:
        raise ValidationError(
            "--compact drops per-frame poses and cannot feed "
            "--content-cache"
        )
    _validate_content_cache_args(args)


def _fleet_models(args: argparse.Namespace) -> WorkloadModelTable | None:
    """The digest model table for a fleet serve (load or calibrate).

    Self-calibration covers every (scene, detail, trajectory class)
    the chosen mix can emit, at the CLI's global detail multiplier.
    """
    if args.pipeline != "digest":
        return None
    if args.models is not None:
        return _load_models(args.models)
    archetypes = MIXES[args.mix]
    scenes = sorted({a.scene for a in archetypes})
    details = sorted({a.detail * args.detail for a in archetypes})
    trajectories = sorted({a.trajectory for a in archetypes})
    return WorkloadModelTable.calibrate(
        scenes,
        details=details,
        trajectories=trajectories,
        n_frames=8,
        config=streaming_config(),
        seed=args.seed,
    )


def _run_fleet(args: argparse.Namespace) -> int:
    models = _fleet_models(args)
    if models is not None:
        print(
            f"digest pipeline: {len(models)} workload model(s) "
            + ("loaded" if args.models is not None else "calibrated")
        )
    generator = TrafficGenerator(
        mix=args.mix,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        profile=RateProfile(kind=args.profile),
        detail=args.detail,
        pipeline=args.pipeline,
        compact=args.compact,
    )
    arrivals = generator.generate()
    with EdgeFleet(
        nodes=args.nodes,
        node_workers=args.node_workers,
        router=args.router,
        node_capacity=args.node_capacity,
        min_nodes=args.min_nodes,
        max_nodes=args.max_nodes,
        migration=not args.no_migration,
        content_cache=_content_config(args),
        models=models,
    ) as fleet:
        result = fleet.serve(arrivals)

    rows = []
    for node_id, summary in sorted(result.node_summaries.items()):
        rows.append(
            [
                node_id,
                summary.sessions,
                summary.total_frames,
                summary.sim_makespan_seconds,
                summary.migrations,
                summary.recoveries,
            ]
        )
    print(
        format_table(
            ["node", "sessions", "frames", "busy s", "moves", "recoveries"],
            rows,
        )
    )
    summary = result.summary
    print(
        f"\nfleet served {summary.sessions} generated sessions "
        f"({args.mix} mix, {args.rate:g}/s x {args.duration:g}s, "
        f"seed {args.seed}): {summary.total_frames} frames, "
        f"{summary.sim_frames_per_sec:.1f} simulated frames/sec over "
        f"{result.peak_nodes} node(s), peak {result.peak_active} "
        f"concurrent session(s) ('{args.pipeline}' pipeline)"
    )
    print(
        f"router '{args.router}': max queue depth "
        f"{result.max_queue_depth}, mean admission delay "
        f"{result.mean_admission_delay * 1e3:.2f} ms (simulated), "
        f"{len(result.migrations)} cross-node migration(s), "
        f"{len(result.spawns)} spawn(s), {len(result.drains)} drain(s)"
    )
    if args.content_cache:
        _print_content_economics(result.content)
        print(
            f"bundle intern: {result.bundle_intern_hits} hit(s), "
            f"{result.bundle_intern_misses} build(s)"
        )

    if args.json is not None:
        payload = {
            "mix": args.mix,
            "rate": args.rate,
            "duration": args.duration,
            "seed": args.seed,
            "router": args.router,
            "pipeline": args.pipeline,
            "nodes": args.nodes,
            "peak_nodes": result.peak_nodes,
            "peak_active": result.peak_active,
            "sessions": summary.sessions,
            "total_frames": summary.total_frames,
            "sim_frames_per_sec": summary.sim_frames_per_sec,
            "sim_makespan_seconds": summary.sim_makespan_seconds,
            "max_queue_depth": result.max_queue_depth,
            "mean_admission_delay": result.mean_admission_delay,
            "migrations": len(result.migrations),
            **(
                {
                    "content_cache": economics_to_dict(result.content),
                    "pose_quant": args.pose_quant,
                    "bundle_intern_hits": result.bundle_intern_hits,
                    "bundle_intern_misses": result.bundle_intern_misses,
                }
                if args.content_cache
                else {}
            ),
            "autoscale_events": [
                {
                    "action": e.action,
                    "node": e.node,
                    "tick": e.tick,
                    "sim_time": e.sim_time,
                    "queue_depth": e.queue_depth,
                    "reaction_ticks": e.reaction_ticks,
                }
                for e in result.autoscale_events
            ],
            "node_summaries": {
                str(node_id): {
                    "sessions": s.sessions,
                    "total_frames": s.total_frames,
                    "sim_makespan_seconds": s.sim_makespan_seconds,
                    "migrations": s.migrations,
                    "recoveries": s.recoveries,
                }
                for node_id, s in sorted(result.node_summaries.items())
            },
        }
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    return 0


# ----------------------------------------------------------------------
# The `serve` subcommand: the asyncio gateway over a live server
# ----------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream serve",
        description="Run the asyncio serving gateway: clients connect "
        "over TCP, open sessions with a JSON hello, and stream frame "
        "metadata with checkpoint-backed reconnects "
        "(see docs/streaming.md, 'Serving gateway').",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default: 127.0.0.1 — loopback only)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port; 0 binds an ephemeral port and prints it "
        "(default: 0)",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve GET /healthz and /stats on this HTTP port "
        "(0 = ephemeral; default: no HTTP shim)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes; 0 = in-process (default: 0)",
    )
    parser.add_argument(
        "--placement",
        default="load",
        choices=PLACEMENTS,
        help="session->worker policy (default: load)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: serve at most N sessions concurrently "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--queue-frames",
        type=int,
        default=8,
        metavar="N",
        help="per-connection send-queue bound; a client this many "
        "frames behind pauses its own session until it catches up "
        "(default: 8)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on shutdown, wait this long for connected sessions to "
        "finish before force-detaching stalled clients (their sessions "
        "are checkpointed like a disconnect; default: 30)",
    )
    parser.add_argument(
        "--exit-after-sessions",
        type=int,
        default=None,
        metavar="N",
        help="drain and exit once N sessions have finished and every "
        "client has disconnected (CI smoke; default: serve until "
        "SIGINT/SIGTERM)",
    )
    _add_pipeline_args(parser)
    _add_content_cache_args(parser)
    return parser


def validate_serve_args(args: argparse.Namespace) -> None:
    """Reject invalid serve arguments with :class:`ValidationError`."""
    if not 0 <= args.port <= 65535:
        raise ValidationError("--port must be in [0, 65535]")
    if args.http_port is not None and not 0 <= args.http_port <= 65535:
        raise ValidationError("--http-port must be in [0, 65535]")
    if args.workers < 0:
        raise ValidationError("--workers cannot be negative")
    if args.max_inflight is not None and args.max_inflight < 1:
        raise ValidationError("--max-inflight must be at least 1")
    if args.queue_frames < 2:
        raise ValidationError("--queue-frames must be at least 2")
    if args.drain_timeout <= 0:
        raise ValidationError("--drain-timeout must be positive")
    if args.exit_after_sessions is not None and args.exit_after_sessions < 1:
        raise ValidationError("--exit-after-sessions must be at least 1")
    if args.pipeline == "digest" and args.models is None:
        # Clients name their scenes at connect time, so there is no
        # workload to self-calibrate against up front.
        raise ValidationError(
            "serve --pipeline digest needs --models (see the "
            "'calibrate' subcommand)"
        )
    _validate_pipeline_args(args)
    _validate_content_cache_args(args)


async def _serve_gateway(args: argparse.Namespace, server) -> int:
    import signal

    # Local import: the asyncio gateway stays out of the non-serving
    # CLI paths entirely.
    from repro.stream.gateway import StreamGateway

    gateway = StreamGateway(
        server,
        host=args.host,
        port=args.port,
        send_queue_frames=args.queue_frames,
        pipeline=args.pipeline,
    )
    await gateway.start()
    # Flushed one-liner so scripts (and the CI smoke) can parse the
    # ephemeral port.
    print(f"listening on {gateway.host}:{gateway.port}", flush=True)
    if args.http_port is not None:
        http_port = await gateway.start_http(args.http_port)
        print(f"http on {gateway.host}:{http_port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal handlers (e.g. Windows)
    try:
        if args.exit_after_sessions is not None:
            while not stop.is_set():
                live = gateway.stats()
                if (
                    live["sessions_done"] >= args.exit_after_sessions
                    and live["sessions_connected"] == 0
                ):
                    break
                await asyncio.sleep(0.05)
        else:  # pragma: no cover - interactive mode, exercised manually
            await stop.wait()
    finally:
        # Bounded drain: a SIGINT must stop the process even when a
        # connected client has stopped reading (its session is parked
        # like a disconnect once the deadline passes).
        results = await gateway.stop(drain_timeout=args.drain_timeout)
    reconnects = sum(1 for s in gateway.connection_stats if s.resumed)
    print(
        f"served {len(results)} session(s), "
        f"{sum(r.report.n_frames for r in results)} frame(s) over "
        f"{len(gateway.connection_stats)} connection(s) "
        f"({reconnects} reconnect(s))"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    models = _load_models(args.models) if args.models is not None else None
    server = StreamServer(
        workers=args.workers,
        placement=args.placement,
        max_inflight=args.max_inflight,
        content_cache=_content_config(args),
        models=models,
    )
    try:
        return asyncio.run(_serve_gateway(args, server))
    finally:
        server.close()


# ----------------------------------------------------------------------
# The `calibrate` subcommand: build a workload-model table for digest
# ----------------------------------------------------------------------
def build_calibrate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream calibrate",
        description="Calibrate digest-pipeline workload models by "
        "running the exact pipeline, and write the table as JSON.",
    )
    parser.add_argument(
        "--scenes",
        nargs="+",
        default=["bicycle"],
        metavar="SCENE",
        help="catalog scenes to calibrate (default: bicycle)",
    )
    parser.add_argument(
        "--details",
        nargs="+",
        type=float,
        default=[1.0],
        metavar="D",
        help="detail rungs to calibrate per scene (default: 1.0)",
    )
    parser.add_argument(
        "--trajectories",
        nargs="+",
        default=["orbit"],
        choices=TRAJECTORIES,
        metavar="KIND",
        help="trajectory classes to calibrate (default: orbit)",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=8,
        help="calibration frames per model (default: 8)",
    )
    parser.add_argument(
        "--backend",
        default="vectorized",
        help="render backend for the calibration runs (default: vectorized)",
    )
    parser.add_argument(
        "--cache-policy",
        default="reuse_distance",
        choices=sorted(POLICIES),
        help="reuse-cache policy (default: reuse_distance)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="calibration trajectory seed"
    )
    parser.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        metavar="J",
        help="deterministic per-frame latency jitter fraction in [0, 1) "
        "applied by digest streams replaying these models (default: 0)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="-",
        help="where to write the model-table JSON (default: stdout)",
    )
    return parser


def validate_calibrate_args(args: argparse.Namespace) -> None:
    """Reject invalid calibration arguments with :class:`ValidationError`."""
    for scene in args.scenes:
        if scene not in CATALOG:
            raise ValidationError(
                f"unknown scene '{scene}'; choose from "
                + ", ".join(sorted(CATALOG))
            )
    if any(d <= 0 for d in args.details):
        raise ValidationError("--details must all be positive")
    if args.frames <= 0:
        raise ValidationError("--frames must be positive")
    if args.seed < 0:
        raise ValidationError("--seed cannot be negative")
    if not 0.0 <= args.jitter < 1.0:
        raise ValidationError("--jitter must be in [0, 1)")
    get_backend(args.backend)


def _run_calibrate(args: argparse.Namespace) -> int:
    config = streaming_config(
        backend=args.backend, cache_policy=args.cache_policy
    )
    table = WorkloadModelTable.calibrate(
        args.scenes,
        details=tuple(args.details),
        trajectories=tuple(args.trajectories),
        n_frames=args.frames,
        config=config,
        seed=args.seed,
        jitter=args.jitter,
    )
    text = table.to_json()
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(
            f"calibrated {len(table)} workload model(s) over "
            f"{len(args.scenes)} scene(s) x {len(args.details)} detail "
            f"rung(s) x {len(args.trajectories)} trajectory class(es) "
            f"-> {args.out}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    # Argument-shaped failures exit like argparse does: one line on
    # stderr and status 2, never a traceback.  That covers validation
    # AND every ValidationError raised while setting a run up — a
    # missing or malformed --models file surfaces here, not as a
    # FileNotFoundError/JSONDecodeError traceback.  Non-ValidationError
    # failures during a serve are server bugs and propagate.
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _dispatch(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(argv: list[str]) -> int:
    # Manual subcommand dispatch keeps the original flat argument set
    # (and every existing invocation) working unchanged.
    if argv and argv[0] == "calibrate":
        calibrate_args = build_calibrate_parser().parse_args(argv[1:])
        validate_calibrate_args(calibrate_args)
        return _run_calibrate(calibrate_args)
    if argv and argv[0] == "fleet":
        fleet_args = build_fleet_parser().parse_args(argv[1:])
        validate_fleet_args(fleet_args)
        return _run_fleet(fleet_args)
    if argv and argv[0] == "serve":
        serve_args = build_serve_parser().parse_args(argv[1:])
        validate_serve_args(serve_args)
        return _run_serve(serve_args)
    args = build_parser().parse_args(argv)
    validate_args(args)
    sessions = make_sessions(args)
    if args.tolerance is not None:
        # Environment, not a process-global override: worker processes
        # inherit the environment, so approx renders use the same
        # tolerance on every worker.
        os.environ[APPROX_TOLERANCE_ENV_VAR] = str(args.tolerance)
    return _run(args, sessions)


if __name__ == "__main__":
    raise SystemExit(main())
