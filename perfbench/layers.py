"""Which public functions the traced run wraps, and the per-layer metrics.

:func:`install` names a span for each attribute it wraps.  The
per-layer metrics are computed from the spans' self times: a metric
ending in ``_self_ms`` is mean self time per call, any other ``_ms``
metric is mean duration per call (children included; for leaf spans the
two are equal).  ``trace.share.<span>`` is a span's summed self time as
a share of the timed wall time; the shares plus
``trace.unattributed_share`` add up to 1.
"""

from __future__ import annotations

import repro.core.gbu as gbu
import repro.stream.gateway as gateway
import repro.stream.pipeline as pipeline
import repro.stream.server as server
from repro.core.gbu import GBUDevice
from repro.core.reuse_cache import TemporalReuseSimulator
from repro.stream import (
    CameraTrajectory,
    DigestFrameStream,
    EdgeFleet,
    FrameStream,
    StreamGateway,
    StreamServer,
    TickResult,
    WarmBinner,
)

import tracing

def _observe_step(tracer: tracing.Tracer):
    def observe(tick) -> None:
        tracer.counts["server_steps"] += 1
        tracer.counts["server_frames"] += len(tick.frames)
        if not tick.frames:
            tracer.counts["server_empty_steps"] += 1

    return observe


def install(tracer: tracing.Tracer) -> None:
    """Wrap every traced layer function (undo with ``uninstall``)."""
    wrap = tracing.install
    # Render stack (exact pipeline).
    wrap(tracer, pipeline, "project", "gaussians.projection.project")
    wrap(tracer, WarmBinner, "build", "stream.binning.build")
    wrap(tracer, gbu, "render_irss", "core.irss.blend")
    wrap(tracer, gbu, "simulate_tile_engine", "core.tile_engine.model")
    wrap(tracer, TemporalReuseSimulator, "observe_frame", "core.reuse_cache.observe")
    wrap(tracer, GBUDevice, "render", "core.gbu.render")
    wrap(tracer, FrameStream, "render_next", "stream.pipeline.frame")
    # Digest pipeline, checkpoints, server, fleet.
    wrap(tracer, DigestFrameStream, "render_next", "stream.digest.frame")
    wrap(
        tracer, server, "capture_checkpoint", "stream.checkpoint.capture",
        session_arg=0,
    )
    wrap(tracer, server, "restore_checkpoint", "stream.checkpoint.restore")
    wrap(
        tracer, StreamServer, "step", "stream.server.step",
        observe=_observe_step(tracer),
    )
    for method in ("submit", "inject_session", "extract_session"):
        wrap(tracer, StreamServer, method, f"stream.server.{method}", session_arg=1)
    wrap(tracer, StreamServer, "finish", "stream.server.finish")
    wrap(tracer, TickResult, "merged", "stream.reporting.merge", static=True)
    wrap(tracer, EdgeFleet, "step", "stream.fleet.step")
    for method in ("inject_session", "extract_session"):
        wrap(tracer, EdgeFleet, method, f"stream.fleet.{method}", session_arg=1)
    for method in ("begin", "finish"):
        wrap(tracer, EdgeFleet, method, f"stream.fleet.{method}")
    # Wire boundary.  Client tasks call the same codec; that time is
    # the load generator's and is billed to bench.client.
    wrap(tracer, gateway, "encode_message", "stream.gateway.encode", client_side=True)
    wrap(
        tracer, gateway, "read_message", "stream.gateway.decode",
        asynchronous=True, client_side=True,
    )
    wrap(tracer, gateway, "session_from_payload", "stream.gateway.admit")
    wrap(tracer, gateway, "frame_evidence", "stream.reporting.evidence")
    wrap(tracer, gateway, "report_evidence", "stream.reporting.evidence")
    wrap(
        tracer, CameraTrajectory, "for_scene", "stream.trajectory.build",
        static=True,
    )


#: Event-loop task spans, by the task coroutine's qualified name.
TASK_NAMES = {
    StreamGateway._pump_loop.__qualname__: "stream.gateway.pump",
    StreamGateway._writer_loop.__qualname__: "stream.gateway.writer",
    StreamGateway._handle_connection.__qualname__: "stream.gateway.connection",
    "GatewayChurn._client_loop": tracing.CLIENT,
}
DEFAULT_TASK = "asyncio.task"

#: Every span name the traced run can record (the share metrics).
SPAN_NAMES = (
    "gaussians.projection.project",
    "stream.binning.build",
    "core.irss.blend",
    "core.tile_engine.model",
    "core.reuse_cache.observe",
    "core.gbu.render",
    "stream.pipeline.frame",
    "stream.digest.frame",
    "stream.checkpoint.capture",
    "stream.checkpoint.restore",
    "stream.server.step",
    "stream.server.submit",
    "stream.server.inject_session",
    "stream.server.extract_session",
    "stream.server.finish",
    "stream.reporting.merge",
    "stream.reporting.evidence",
    "stream.fleet.step",
    "stream.fleet.begin",
    "stream.fleet.inject_session",
    "stream.fleet.extract_session",
    "stream.fleet.finish",
    "stream.gateway.encode",
    "stream.gateway.decode",
    "stream.gateway.admit",
    "stream.trajectory.build",
    "stream.gateway.pump",
    "stream.gateway.writer",
    "stream.gateway.connection",
    DEFAULT_TASK,
    "asyncio.loop",
    tracing.CLIENT,
    tracing.GC,
)

#: Timing metrics: metric name -> (span name, self time only).
TIMED = {
    "gaussians.projection.project_ms": ("gaussians.projection.project", False),
    "stream.binning.build_ms": ("stream.binning.build", False),
    "core.irss.blend_ms": ("core.irss.blend", False),
    "core.tile_engine.model_ms": ("core.tile_engine.model", False),
    "core.reuse_cache.observe_ms": ("core.reuse_cache.observe", False),
    "core.gbu.render_self_ms": ("core.gbu.render", True),
    "stream.pipeline.frame_self_ms": ("stream.pipeline.frame", True),
    "stream.checkpoint.capture_ms": ("stream.checkpoint.capture", False),
    "stream.checkpoint.restore_ms": ("stream.checkpoint.restore", False),
    "stream.gateway.decode_ms": ("stream.gateway.decode", False),
    "stream.gateway.encode_ms": ("stream.gateway.encode", False),
    "stream.gateway.admit_ms": ("stream.gateway.admit", False),
    "stream.trajectory.build_ms": ("stream.trajectory.build", False),
    "stream.server.step_self_ms": ("stream.server.step", True),
    "stream.digest.frame_ms": ("stream.digest.frame", False),
    "stream.fleet.step_self_ms": ("stream.fleet.step", True),
    "stream.reporting.merge_ms": ("stream.reporting.merge", False),
}
