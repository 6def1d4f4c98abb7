"""Frame-sequence streaming: trajectories, warm pipelines, serving.

The paper's target is a *stream* of head-tracked frames, not isolated
images.  This package layers a serving subsystem on top of the
single-frame renderer:

* :mod:`repro.stream.trajectory` — deterministic camera paths (orbit,
  dolly, head jitter, frozen) built on :mod:`repro.gaussians.camera`;
* :mod:`repro.stream.binning` — warm-started tile binning that carries
  (tile, Gaussian) instances across frames and regenerates only the
  Gaussians whose tile footprint moved;
* :mod:`repro.stream.pipeline` — the :class:`FramePipeline` base
  class and :class:`FrameStream`, the *exact* per-session pipeline that
  renders a trajectory over any catalog scene while persisting binning
  state and the temporal reuse-cache mode of
  :class:`repro.core.reuse_cache.TemporalReuseSimulator`;
* :mod:`repro.stream.digest` — the *digest* pipeline:
  :class:`DigestFrameStream` advances sessions from calibrated
  :class:`WorkloadModel` tables instead of rendering pixels, keeping
  sim-seconds, cache, QoS and checkpoint semantics while serving
  10^5+ concurrent sessions;
* :mod:`repro.stream.reporting` — the shared serving reports
  (:class:`SessionResult`, :class:`ServeSummary`, :class:`TickResult`)
  both pipelines and both serving layers emit through;
* :mod:`repro.stream.qos` — deadline-aware adaptive quality control:
  per-session frame deadlines (target FPS) and a closed-loop AIMD
  controller that walks the detail ladder from observed frame
  latencies;
* :mod:`repro.stream.scheduler` — session placement (round-robin and
  load-aware, with ``(scene, detail)``-keyed latency estimates),
  admission control with backpressure, and skew-triggered
  rebalancing;
* :mod:`repro.stream.checkpoint` — lightweight session snapshots
  (trajectory cursor + temporal-cache resident set) powering worker
  crash recovery and migrations;
* :mod:`repro.stream.content_cache` — the fleet-wide
  content-addressed render cache: session → worker → node → fleet
  tiers keyed by (scene, quantized pose, detail, render mode), with
  whole-frame dedup across co-located viewers, cost-aware eviction
  and shared scene-bundle interning;
* :mod:`repro.stream.server` — :class:`StreamServer`, multiplexing N
  client sessions over a ``concurrent.futures`` worker pool with one
  :class:`repro.core.gbu.GBUDevice` per worker, request batching of
  same-scene sessions, checkpoint-replay fault tolerance, and the
  incremental ``begin``/``submit``/``step``/``finish`` protocol the
  fleet layer drives;
* :mod:`repro.stream.traffic` — seeded open-loop synthetic traffic:
  Poisson arrivals over named archetype mixes with diurnal/ramp rate
  profiles and per-session target-FPS sampling;
* :mod:`repro.stream.fleet` — :class:`EdgeFleet`, N server nodes
  behind a global router with fleet admission control, least-loaded/
  affinity node selection, checkpoint-based cross-node migration, and
  threshold-driven autoscaling;
* :mod:`repro.stream.gateway` — :class:`StreamGateway`, the asyncio
  wire boundary: length-prefixed JSON over loopback/TCP fronting a
  server or fleet, with checkpoint-backed reconnects, bounded
  per-connection send queues (slow clients pause their own stream),
  and an HTTP shim for probes;
* :mod:`repro.stream.cli` — the ``repro-stream`` command line
  (also ``python -m repro.stream``), including the ``fleet`` and
  ``serve`` subcommands.
"""

from repro.stream.binning import BinningStats, WarmBinner
from repro.stream.checkpoint import (
    SessionCheckpoint,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.stream.gateway import (
    GatewayClient,
    StreamGateway,
    encode_message,
    read_message,
    session_from_payload,
)
from repro.stream.content_cache import (
    TIER_LEVELS,
    BundleIntern,
    CachedFrame,
    CacheTier,
    ContentCacheConfig,
    SessionContentView,
    canonical_camera,
    economics_to_dict,
    frame_content_key,
    merge_economics,
)
from repro.stream.digest import (
    DigestFrameStream,
    TraceAgreement,
    WorkloadModel,
    WorkloadModelTable,
    assert_trace_agreement,
    trace_agreement,
)
from repro.stream.fleet import (
    ROUTERS,
    AutoscaleEvent,
    EdgeFleet,
    FleetResult,
    NodeMigration,
)
from repro.stream.pipeline import (
    PIPELINES,
    FramePipeline,
    FrameRecord,
    FrameStream,
    StreamReport,
    streaming_config,
)
from repro.stream.reporting import (
    ConnectionStats,
    ServeSummary,
    SessionResult,
    TickResult,
    frame_evidence,
    report_evidence,
)
from repro.stream.qos import (
    FrameDeadline,
    QoSControllerState,
    QoSPolicy,
    QoSRecord,
    QualityController,
)
from repro.stream.scheduler import (
    PLACEMENTS,
    LoadAwareScheduler,
    Migration,
    RoundRobinScheduler,
    StreamScheduler,
    make_scheduler,
    static_frame_estimate,
)
from repro.stream.server import StreamServer, StreamSession
from repro.stream.traffic import (
    MIXES,
    PROFILES,
    RateProfile,
    SessionArchetype,
    SessionArrival,
    TrafficGenerator,
)
from repro.stream.trajectory import CameraTrajectory

__all__ = [
    "BinningStats",
    "WarmBinner",
    "ROUTERS",
    "AutoscaleEvent",
    "EdgeFleet",
    "FleetResult",
    "NodeMigration",
    "MIXES",
    "PROFILES",
    "RateProfile",
    "SessionArchetype",
    "SessionArrival",
    "TrafficGenerator",
    "SessionCheckpoint",
    "capture_checkpoint",
    "restore_checkpoint",
    "GatewayClient",
    "StreamGateway",
    "encode_message",
    "read_message",
    "session_from_payload",
    "TIER_LEVELS",
    "BundleIntern",
    "CachedFrame",
    "CacheTier",
    "ContentCacheConfig",
    "SessionContentView",
    "canonical_camera",
    "economics_to_dict",
    "frame_content_key",
    "merge_economics",
    "PIPELINES",
    "FramePipeline",
    "FrameRecord",
    "FrameStream",
    "StreamReport",
    "streaming_config",
    "DigestFrameStream",
    "TraceAgreement",
    "WorkloadModel",
    "WorkloadModelTable",
    "assert_trace_agreement",
    "trace_agreement",
    "FrameDeadline",
    "QoSControllerState",
    "QoSPolicy",
    "QoSRecord",
    "QualityController",
    "PLACEMENTS",
    "LoadAwareScheduler",
    "Migration",
    "RoundRobinScheduler",
    "StreamScheduler",
    "make_scheduler",
    "static_frame_estimate",
    "ConnectionStats",
    "ServeSummary",
    "SessionResult",
    "StreamServer",
    "StreamSession",
    "TickResult",
    "frame_evidence",
    "report_evidence",
    "CameraTrajectory",
]
