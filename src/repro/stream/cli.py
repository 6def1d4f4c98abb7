"""The ``repro-stream`` command line: four commands, one flag surface.

    PYTHONPATH=src python -m repro.stream --scene bicycle --sessions 2
    PYTHONPATH=src python -m repro.stream fleet --nodes 2 --mix mixed
    PYTHONPATH=src python -m repro.stream serve --port 7061
    PYTHONPATH=src python -m repro.stream calibrate --scenes bicycle

A flag two or three commands share is defined once, in a group of
:func:`_shared_flags` (an argparse parent).  Every value is checked
once, against :data:`RULES` and :data:`CROSS_RULES`; the fields a
gateway ``hello`` also carries use the rules beside
:class:`~repro.stream.server.StreamSession`.  Invalid arguments exit
with status 2 and a one-line ``error:`` message, never a traceback.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import signal
import sys
from dataclasses import asdict

from repro.core.reuse_cache import POLICIES
from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream.content_cache import ContentCacheConfig, economics_to_dict
from repro.stream.digest import WorkloadModelTable
from repro.stream.fleet import ROUTERS, EdgeFleet
from repro.stream.pipeline import PIPELINES, streaming_config
from repro.stream.qos import QOS_MODES, QoSPolicy
from repro.stream.scheduler import PLACEMENTS
from repro.stream.server import SESSION_FIELD_RULES, StreamServer, StreamSession
from repro.stream.traffic import MIXES, PROFILES, RateProfile, TrafficGenerator
from repro.stream.trajectory import TRAJECTORY_KINDS as TRAJECTORIES, CameraTrajectory
from repro.tables import format_table


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def _shared_flags(*groups: str) -> list[argparse.ArgumentParser]:
    """The named groups of the flags several commands share, as argparse
    parents.  Built fresh for every parser: a child's ``set_defaults``
    rewrites its parents' actions (``calibrate`` sets ``--frames`` 8)."""
    parsers = {
        group: argparse.ArgumentParser(add_help=False)
        for group in ("server", "pipeline", "report", "seed", "render")
    }
    # server: one stream server's shape (main command, serve).
    parsers["server"].add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes; 0 = in-process (default: 0)",
    )
    parsers["server"].add_argument(
        "--placement",
        default="load",
        choices=PLACEMENTS,
        help="session->worker policy: load-aware or round-robin "
        "(default: load)",
    )
    parsers["server"].add_argument(
        "--max-inflight",
        type=int,
        metavar="N",
        help="admission control: serve at most N sessions concurrently, "
        "queueing the rest (default: unlimited)",
    )
    # pipeline: frame pipeline and content cache (main, fleet, serve).
    parsers["pipeline"].add_argument(
        "--pipeline",
        default="exact",
        choices=PIPELINES,
        help="frame pipeline: 'exact' renders every frame; 'digest' "
        "advances sessions from calibrated workload models "
        "(default: exact)",
    )
    parsers["pipeline"].add_argument(
        "--models",
        metavar="PATH",
        help="workload-model table JSON (see the 'calibrate' "
        "subcommand); with --pipeline digest and no --models, a table "
        "is calibrated in-process before serving",
    )
    parsers["pipeline"].add_argument(
        "--content-cache",
        action="store_true",
        help="enable the tiered content-addressed render cache "
        "(whole-frame dedup across co-located viewers)",
    )
    parsers["pipeline"].add_argument(
        "--pose-quant",
        type=float,
        default=0.0,
        metavar="Q",
        help="camera-eye quantization cell size in scene units; viewers "
        "inside one cell share rendered frames (0 = exact poses only; "
        "requires --content-cache)",
    )
    # report: scene detail and the JSON report (main, fleet).
    parsers["report"].add_argument(
        "--detail", type=float, default=1.0, help="scene detail multiplier"
    )
    parsers["report"].add_argument(
        "--json",
        metavar="PATH",
        help="also write the full report as JSON ('-' for stdout)",
    )
    # seed: the base seed (main, fleet, calibrate).
    parsers["seed"].add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for jittered paths and generated traffic",
    )
    # render: what an exact render runs (main, calibrate).
    parsers["render"].add_argument(
        "--frames",
        type=int,
        default=16,
        help="frames per session or calibration model "
        "(default: %(default)s)",
    )
    parsers["render"].add_argument(
        "--cache-policy",
        default="reuse_distance",
        choices=sorted(POLICIES),
        help="reuse-cache policy (default: reuse_distance)",
    )
    return [parsers[group] for group in groups]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream",
        description="Stream frame sequences over catalog scenes "
        "with cross-frame reuse.",
        parents=_shared_flags("server", "pipeline", "report", "seed", "render"),
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
        "--sessions", type=int, default=1, help="concurrent sessions (default: 1)"
    )
    parser.add_argument(
        "--target-fps",
        type=float,
        metavar="FPS",
        help="per-frame deadline as a refresh rate (e.g. 72); enables "
        "QoS tracking (default: no deadline)",
    )
    parser.add_argument(
        "--qos",
        default="adaptive",
        choices=sorted(QOS_MODES),
        help="with --target-fps: 'adaptive' closes the loop on detail, "
        "'fixed' only records deadline hits/misses (default: adaptive)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="ceiling on a session's parallel tile engines; above 1 it "
        "needs --target-fps with --qos adaptive, and a session adds "
        "engines only after its quality band is exhausted (default: 1)",
    )
    return parser


def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream fleet",
        description="Serve generated open-loop traffic over a fleet of "
        "stream-server nodes.",
        parents=_shared_flags("pipeline", "report", "seed"),
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
        help="node selection: 'least' (fewest sessions, then least "
        "remaining cost), 'affinity' (a node already serving the scene "
        "first) or 'active' (session count only) (default: least)",
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        metavar="N",
        help="autoscaling ceiling; above --nodes enables queue-driven "
        "scale-up (default: --nodes, autoscaling off)",
    )
    parser.add_argument(
        "--min-nodes",
        type=int,
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
        "--compact",
        action="store_true",
        help="generate compact sessions (one-pose trajectories, frame "
        "budgets on the session); needs --pipeline digest and no "
        "--content-cache",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream serve",
        description="Run the asyncio serving gateway: clients connect "
        "over TCP, open sessions with a JSON hello, and stream frame "
        "metadata with checkpoint-backed reconnects "
        "(see docs/streaming.md, 'Serving gateway').",
        parents=_shared_flags("server", "pipeline"),
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
        metavar="PORT",
        help="also serve GET /healthz and /stats on this HTTP port "
        "(0 = ephemeral; default: no HTTP shim)",
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
        metavar="N",
        help="drain and exit once N sessions have finished and every "
        "client has disconnected (used by "
        "tests/stream/test_cli.py::test_exit_after_sessions_serves_one_client; "
        "default: serve until SIGINT/SIGTERM)",
    )
    return parser


def build_calibrate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream calibrate",
        description="Calibrate digest-pipeline workload models by "
        "running the exact pipeline, and write the table as JSON.",
        parents=_shared_flags("seed", "render"),
    )
    parser.set_defaults(frames=8)
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


# ----------------------------------------------------------------------
# Validation: one rule table for every command
# ----------------------------------------------------------------------
#: Per-flag rules: (dest, predicate, message), checked in every command
#: whose namespace has ``dest``; unset flags (``None``) are skipped and
#: lists are checked item by item.  ``{label}`` is the flag.  Every
#: float must also be finite: NaN passes every comparison below.
RULES = (
    ("scene", *SESSION_FIELD_RULES["scene"]),
    ("scenes", *SESSION_FIELD_RULES["scene"]),
    ("frames", *SESSION_FIELD_RULES["frames"]),
    ("sessions", lambda n: n >= 1, "{label} must be positive"),
    ("workers", lambda n: n >= 0, "{label} cannot be negative"),
    ("max_inflight", lambda n: n >= 1, "{label} must be at least 1"),
    ("detail", *SESSION_FIELD_RULES["detail"]),
    ("details", *SESSION_FIELD_RULES["detail"]),
    ("target_fps", *SESSION_FIELD_RULES["target_fps"]),
    ("seed", *SESSION_FIELD_RULES["seed"]),
    ("shards", lambda n: n >= 1, "{label} must be at least 1"),
    ("pose_quant", lambda q: q >= 0, "{label} cannot be negative"),
    ("nodes", lambda n: n >= 1, "{label} must be at least 1"),
    ("node_workers", lambda n: n >= 1, "{label} must be at least 1"),
    ("node_capacity", lambda n: n >= 1, "{label} must be at least 1"),
    ("rate", lambda rate: rate > 0, "{label} must be positive"),
    ("duration", lambda seconds: seconds > 0, "{label} must be positive"),
    ("port", lambda port: 0 <= port <= 65535, "{label} must be in [0, 65535]"),
    ("http_port", lambda port: 0 <= port <= 65535, "{label} must be in [0, 65535]"),
    ("queue_frames", lambda n: n >= 2, "{label} must be at least 2"),
    ("drain_timeout", lambda seconds: seconds > 0, "{label} must be positive"),
    ("exit_after_sessions", lambda n: n >= 1, "{label} must be at least 1"),
    ("jitter", lambda j: 0.0 <= j < 1.0, "{label} must be in [0, 1)"),
)

_SERVING, _FLEET = (None, "fleet", "serve"), ("fleet",)

#: Rules across flags: message -> (commands, violated(args)); the
#: ``None`` command is the main one.
CROSS_RULES = {
    "--models requires --pipeline digest": (
        _SERVING, lambda a: a.models is not None and a.pipeline != "digest"
    ),
    # Only an adaptive controller escalates past one tile engine.
    "--shards above 1 requires --target-fps with --qos adaptive": (
        (None,),
        lambda a: a.shards > 1 and (a.target_fps is None or a.qos != "adaptive"),
    ),
    "--pose-quant requires --content-cache": (
        _SERVING, lambda a: a.pose_quant > 0 and not a.content_cache
    ),
    "--max-nodes cannot be below --nodes": (
        _FLEET, lambda a: a.max_nodes is not None and a.max_nodes < a.nodes
    ),
    "--min-nodes must be in [1, --nodes]": (
        _FLEET, lambda a: a.min_nodes is not None and not 1 <= a.min_nodes <= a.nodes
    ),
    "--compact requires --pipeline digest": (
        _FLEET, lambda a: a.compact and a.pipeline != "digest"
    ),
    "--compact drops per-frame poses and cannot feed --content-cache": (
        _FLEET, lambda a: a.compact and a.content_cache
    ),
    # Clients name their scenes at connect time, so there is no
    # workload to self-calibrate against up front.
    "serve --pipeline digest needs --models (see the 'calibrate' subcommand)": (
        ("serve",), lambda a: a.pipeline == "digest" and a.models is None
    ),
}


def validate(args: argparse.Namespace, command: str | None = None) -> None:
    """Reject ``command``'s invalid arguments with :class:`ValidationError`."""
    for dest, valid, message in RULES:
        values = getattr(args, dest, None)
        for value in values if isinstance(values, list) else [values]:
            flag = "--" + dest.replace("_", "-")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{flag} must be finite")
            if value is not None and not valid(value):
                raise ValidationError(message.format(label=flag, value=value))
    for message, (commands, violated) in CROSS_RULES.items():
        if command in commands and violated(args):
            raise ValidationError(message)


# ----------------------------------------------------------------------
# Helpers shared by the commands
# ----------------------------------------------------------------------
def _load_models(path: str) -> WorkloadModelTable:
    """Load a workload-model table; an unreadable file is a ValidationError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read --models '{path}': {exc}") from exc
    return WorkloadModelTable.from_json(text)


def _digest_models(args, scenes, **calibration) -> WorkloadModelTable | None:
    """The digest pipeline's model table: ``--models``, else calibrated
    in-process over ``scenes``; ``None`` for the exact pipeline."""
    if args.pipeline != "digest":
        return None
    if args.models is not None:
        models, source = _load_models(args.models), "loaded"
    else:
        models = WorkloadModelTable.calibrate(scenes, seed=args.seed, **calibration)
        source = "calibrated"
    print(f"digest pipeline: {len(models)} workload model(s) {source}")
    return models


def _content_config(args: argparse.Namespace) -> ContentCacheConfig | None:
    if not args.content_cache:
        return None
    return ContentCacheConfig(pose_quant=args.pose_quant)


def _stream_server(args, models) -> StreamServer:
    return StreamServer(
        workers=args.workers,
        placement=args.placement,
        max_inflight=args.max_inflight,
        content_cache=_content_config(args),
        models=models,
    )


def _print_content_economics(totals: dict) -> None:
    parts = [
        f"{level} {econ['hits']}/{econ['accesses']} ({econ['hit_rate']:.0%})"
        for level, econ in economics_to_dict(totals).items()
    ]
    print(f"content cache hits by tier: {', '.join(parts) or 'no lookups'}")


def _content_fields(args, totals: dict, **extra) -> dict:
    """The JSON report's content-cache fields; none when it is off."""
    if not args.content_cache:
        return {}
    economics = economics_to_dict(totals)
    return {"content_cache": economics, "pose_quant": args.pose_quant, **extra}


def _write(path: str, text: str) -> None:
    """Print ``text`` when ``path`` is ``-``, else write it to ``path``."""
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# ----------------------------------------------------------------------
# The main command: hand-built sessions on one server
# ----------------------------------------------------------------------
def make_sessions(args: argparse.Namespace) -> list[StreamSession]:
    """Deterministic per-client sessions from the CLI arguments."""
    config = streaming_config(cache_policy=args.cache_policy)
    qos = None
    if args.target_fps is not None:
        adaptive = args.qos == "adaptive"
        qos = QoSPolicy(max_shards=args.shards) if adaptive else QoSPolicy.fixed()
    return [
        StreamSession(
            session_id=f"{args.scene}-{args.trajectory}-{i}",
            scene=args.scene,
            trajectory=CameraTrajectory.for_scene(
                CATALOG[args.scene],
                kind=args.trajectory,
                n_frames=args.frames,
                seed=args.seed + i,
                detail=args.detail,
                phase_deg=i * 360.0 / args.sessions,
            ),
            detail=args.detail,
            config=config,
            target_fps=args.target_fps,
            qos=qos,
            pipeline=args.pipeline,
        )
        for i in range(args.sessions)
    ]


def _run(args: argparse.Namespace) -> int:
    sessions = make_sessions(args)
    # Self-calibration: one exact render of the requested workload,
    # then every session digests from it.
    models = _digest_models(
        args,
        [args.scene],
        details=(args.detail,),
        trajectories=(args.trajectory,),
        n_frames=min(args.frames, 8),
        config=sessions[0].config,
    )
    with _stream_server(args, models) as server:
        server.warm_up()
        results, summary = server.serve_timed(sessions)
        content_totals = server.content_totals

    with_qos = args.target_fps is not None
    columns = {
        "session": lambda r: r.session_id,
        "worker": lambda r: r.worker,
        "frames": lambda r: r.report.n_frames,
        "cold hit": lambda r: r.report.cold_hit_rate,
        "warm hit": lambda r: r.report.warm_hit_rate,
        "bin reuse": lambda r: r.report.binning_reuse,
        "sim FPS": lambda r: r.report.mean_sim_fps,
        "wall FPS": lambda r: r.report.wall_fps,
    }
    if with_qos:
        columns["miss rate"] = lambda r: r.report.deadline_miss_rate()
        columns["mean detail"] = lambda r: r.report.mean_detail
    rows = [[column(r) for column in columns.values()] for r in results]
    print(format_table(list(columns), rows))
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
            **_content_fields(args, content_totals),
            "sessions": [r.report.to_dict() for r in results],
        }
        _write(args.json, json.dumps(payload, indent=2))
    return 0


# ----------------------------------------------------------------------
# The `fleet` subcommand: generated traffic over a multi-node fleet
# ----------------------------------------------------------------------
#: Fleet table column -> per-node summary field (its JSON key).
_NODE_COLUMNS = {
    "sessions": "sessions",
    "frames": "total_frames",
    "busy s": "sim_makespan_seconds",
    "moves": "migrations",
    "recoveries": "recoveries",
}


def _run_fleet(args: argparse.Namespace) -> int:
    # Self-calibration covers every (scene, detail, trajectory class)
    # the mix can emit, at the CLI's global detail multiplier.
    archetypes = MIXES[args.mix]
    models = _digest_models(
        args,
        sorted({a.scene for a in archetypes}),
        details=sorted({a.detail * args.detail for a in archetypes}),
        trajectories=sorted({a.trajectory for a in archetypes}),
        n_frames=8,
        config=streaming_config(),
    )
    arrivals = TrafficGenerator(
        mix=args.mix,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        profile=RateProfile(kind=args.profile),
        detail=args.detail,
        pipeline=args.pipeline,
        compact=args.compact,
    ).generate()
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

    nodes = {
        node_id: {field: getattr(s, field) for field in _NODE_COLUMNS.values()}
        for node_id, s in sorted(result.node_summaries.items())
    }
    rows = [[node_id, *fields.values()] for node_id, fields in nodes.items()]
    print(format_table(["node", *_NODE_COLUMNS], rows))
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
            **_content_fields(
                args,
                result.content,
                bundle_intern_hits=result.bundle_intern_hits,
                bundle_intern_misses=result.bundle_intern_misses,
            ),
            "autoscale_events": [asdict(e) for e in result.autoscale_events],
            "node_summaries": {
                str(node_id): fields for node_id, fields in nodes.items()
            },
        }
        _write(args.json, json.dumps(payload, indent=2))
    return 0


# ----------------------------------------------------------------------
# The `serve` subcommand: the asyncio gateway over a live server
# ----------------------------------------------------------------------
async def _serve_gateway(args: argparse.Namespace, server) -> int:
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
    # Flushed one-liner so scripts (and
    # tests/stream/test_cli.py::test_exit_after_sessions_serves_one_client)
    # can parse the ephemeral port.
    print(f"listening on {gateway.host}:{gateway.port}", flush=True)
    if args.http_port is not None:
        http_port = await gateway.start_http(args.http_port)
        print(f"http on {gateway.host}:{http_port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        # No signal handlers on some platforms or off the main thread.
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
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
    server = _stream_server(args, models)
    try:
        return asyncio.run(_serve_gateway(args, server))
    finally:
        server.close()


# ----------------------------------------------------------------------
# The `calibrate` subcommand: build a workload-model table for digest
# ----------------------------------------------------------------------
def _run_calibrate(args: argparse.Namespace) -> int:
    table = WorkloadModelTable.calibrate(
        args.scenes,
        details=tuple(args.details),
        trajectories=tuple(args.trajectories),
        n_frames=args.frames,
        config=streaming_config(cache_policy=args.cache_policy),
        seed=args.seed,
        jitter=args.jitter,
    )
    _write(args.out, table.to_json())
    if args.out != "-":
        print(
            f"calibrated {len(table)} workload model(s) over "
            f"{len(args.scenes)} scene(s) x {len(args.details)} detail "
            f"rung(s) x {len(args.trajectories)} trajectory class(es) "
            f"-> {args.out}"
        )
    return 0


#: Subcommand -> (parser builder, runner); ``None`` is the main command.
COMMANDS = {
    None: (build_parser, _run),
    "fleet": (build_fleet_parser, _run_fleet),
    "serve": (build_serve_parser, _run_serve),
    "calibrate": (build_calibrate_parser, _run_calibrate),
}


def main(argv: list[str] | None = None) -> int:
    # Argument-shaped failures (validation, and any ValidationError
    # while setting a run up, such as an unreadable --models file) exit
    # like argparse: one line on stderr, status 2, never a traceback.
    # Other failures during a serve are server bugs and propagate.
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    build, run = COMMANDS[command]
    try:
        args = build().parse_args(argv if command is None else argv[1:])
        validate(args, command)
        return run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
