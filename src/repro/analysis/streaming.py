"""Streaming study: cross-frame reuse and serving-layer scheduling.

Quantifies what the frame-sequence layer (:mod:`repro.stream`) buys on
top of single-frame rendering: for one representative scene per
application class (or any requested subset), a head-jitter trajectory
is streamed and the study reports

* the cold (single-frame) vs. warm (cross-frame) reuse-cache hit rate,
* the fraction of (tile, Gaussian) binning instances served from the
  previous frame,
* the simulated frame rate of the stream, and
* the scene's motion magnitude (0 for static scenes), which explains
  why reuse differs across application classes.

The scheduling half (:func:`compare_placements`) serves a *skewed*
session mix — heavy long streams interleaved with light short ones, the
arrival order chosen so round-robin stacks the heavy sessions on one
worker — under every placement policy and reports makespan plus
per-frame latency percentiles.  ``tests/stream/test_scheduler.py``
asserts its makespan floor.

The QoS half (:func:`compare_qos`) serves a mixed heavy/light load
against a per-frame deadline in both quality modes — ``fixed`` (the
requested detail, misses be damned) and ``adaptive`` (the closed-loop
controller of :mod:`repro.stream.qos`) — and reports deadline-miss
rates and delivered detail.  ``tests/stream/test_qos.py`` asserts
its miss-rate and detail floors.

The fleet half (:func:`fleet_scaling_study`) serves one *generated*
open-loop Poisson traffic trace (:mod:`repro.stream.traffic`) on
fleets of increasing node count (:mod:`repro.stream.fleet`) and
reports per-count serving throughput, queue behaviour and cross-node
migrations — the multi-node scaling picture whose floors
``tests/stream/test_fleet.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG, AppType, SceneSpec, build_scene
from repro.stream.fleet import EdgeFleet
from repro.stream.pipeline import FrameStream, StreamReport
from repro.stream.qos import QOS_MODES, QoSPolicy
from repro.stream.scheduler import PLACEMENTS
from repro.stream.server import StreamServer, StreamSession
from repro.stream.traffic import TrafficGenerator
from repro.stream.trajectory import CameraTrajectory

#: One representative scene per application class (catalog order).
DEFAULT_SCENES = ("bicycle", "flame_steak", "female_4")


@dataclass(frozen=True)
class StreamStudyPoint:
    """One scene's streaming outcome."""

    scene: str
    app_type: AppType
    trajectory: str
    n_frames: int
    cold_hit_rate: float
    warm_hit_rate: float
    binning_reuse: float
    mean_sim_fps: float
    motion: float

    @property
    def hit_rate_gain(self) -> float:
        """Warm-over-cold hit-rate improvement (absolute)."""
        return self.warm_hit_rate - self.cold_hit_rate


def scene_motion(spec: SceneSpec, bundle, n_frames: int) -> float:
    """Mean per-frame Gaussian motion along the stream (world units)."""
    if spec.app_type is not AppType.DYNAMIC or bundle.temporal_model is None:
        return 0.0
    step = 1.0 / bundle.n_eval_frames
    return bundle.temporal_model.mean_displacement(0.0, step)


def stream_scene(
    name: str,
    kind: str = "head_jitter",
    n_frames: int = 16,
    detail: float = 1.0,
    seed: int = 0,
) -> tuple[StreamStudyPoint, StreamReport]:
    """Stream one scene and summarize its cross-frame reuse."""
    spec = CATALOG[name]
    trajectory = CameraTrajectory.for_scene(
        spec, kind=kind, n_frames=n_frames, seed=seed, detail=detail
    )
    bundle = build_scene(spec, detail=detail)
    stream = FrameStream(spec, trajectory, detail=detail, bundle=bundle)
    report = stream.run()
    point = StreamStudyPoint(
        scene=name,
        app_type=spec.app_type,
        trajectory=kind,
        n_frames=report.n_frames,
        cold_hit_rate=report.cold_hit_rate,
        warm_hit_rate=report.warm_hit_rate,
        binning_reuse=report.binning_reuse,
        mean_sim_fps=report.mean_sim_fps,
        motion=scene_motion(spec, bundle, n_frames),
    )
    return point, report


def stream_reuse_study(
    scenes: tuple[str, ...] = DEFAULT_SCENES,
    kind: str = "head_jitter",
    n_frames: int = 16,
    detail: float = 1.0,
) -> list[StreamStudyPoint]:
    """The per-application-class streaming table."""
    return [
        stream_scene(name, kind=kind, n_frames=n_frames, detail=detail)[0]
        for name in scenes
    ]


# ----------------------------------------------------------------------
# Scheduling study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlacementPoint:
    """One placement policy's outcome on a session mix.

    ``p50/p95_frame_seconds`` are percentiles of each frame's own
    render latency (placement-invariant by construction — recorded as
    the workload profile); ``p50/p95_completion_seconds`` are
    percentiles of each frame's *simulated completion time* — the
    rendering worker's cumulative busy seconds when the frame finished
    — which includes queueing behind co-scheduled sessions and is what
    placement actually moves.
    """

    placement: str
    workers: int
    sessions: int
    total_frames: int
    sim_makespan_seconds: float
    p50_frame_seconds: float
    p95_frame_seconds: float
    p50_completion_seconds: float
    p95_completion_seconds: float
    migrations: int


@dataclass(frozen=True)
class PlacementComparison:
    """Every placement policy served the same mix on the same pool."""

    workers: int
    points: dict[str, PlacementPoint]

    @property
    def speedup(self) -> float:
        """Round-robin makespan over load-aware makespan (>1: load wins)."""
        load = self.points["load"].sim_makespan_seconds
        if load <= 0:
            return 0.0
        return self.points["rr"].sim_makespan_seconds / load


def skewed_session_mix(
    heavy_scene: str = "bicycle",
    light_scene: str = "female_4",
    heavy_frames: int = 12,
    light_frames: int = 4,
    pairs: int = 2,
    detail: float = 1.0,
) -> list[StreamSession]:
    """A session mix that punishes arrival-order placement.

    Heavy (large scene, long stream) and light (small scene, short
    stream) sessions alternate in arrival order, so with ``pairs``
    equal to the worker count, round-robin stacks every heavy session
    on the even workers while load-aware placement spreads them.
    """
    sessions = []
    for i in range(pairs):
        for scene, frames, tag in (
            (heavy_scene, heavy_frames, "heavy"),
            (light_scene, light_frames, "light"),
        ):
            spec = CATALOG[scene]
            sessions.append(
                StreamSession(
                    session_id=f"{tag}-{i}",
                    scene=scene,
                    trajectory=CameraTrajectory.for_scene(
                        spec,
                        kind="orbit",
                        n_frames=frames,
                        detail=detail,
                        phase_deg=i * 360.0 / max(pairs, 1),
                    ),
                    detail=detail,
                )
            )
    return sessions


# ----------------------------------------------------------------------
# Quality-of-service study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QoSPoint:
    """One quality mode's outcome on a session mix under a deadline.

    ``mean_scale`` is the mean delivered detail relative to each
    session's requested (nominal) detail — 1.0 means full requested
    quality; the quality floor ``tests/stream/test_qos.py`` asserts is
    on this number, so it reads the same at any nominal detail.
    """

    mode: str
    target_fps: float
    workers: int
    sessions: int
    total_frames: int
    deadline_misses: int
    miss_rate: float
    mean_detail: float
    mean_scale: float
    sim_makespan_seconds: float


@dataclass(frozen=True)
class QoSComparison:
    """Both quality modes served the same mix on the same pool."""

    workers: int
    target_fps: float
    points: dict[str, QoSPoint]

    @property
    def miss_reduction(self) -> float:
        """Fixed-over-adaptive deadline-miss-rate ratio (>1: QoS wins).

        Infinite when the adaptive mode misses nothing while fixed
        does; 1.0 when neither mode misses.
        """
        missing = [m for m in QOS_MODES if m not in self.points]
        if missing:
            raise ValidationError(
                "miss_reduction needs both quality modes; comparison "
                f"lacks {', '.join(missing)}"
            )
        fixed = self.points["fixed"].miss_rate
        adaptive = self.points["adaptive"].miss_rate
        if adaptive <= 0:
            return float("inf") if fixed > 0 else 1.0
        return fixed / adaptive


def qos_session_mix(
    heavy_scene: str = "bicycle",
    light_scene: str = "female_4",
    heavy: int = 2,
    light: int = 2,
    n_frames: int = 16,
    detail: float = 1.0,
) -> list[StreamSession]:
    """A mixed heavy/light load for the QoS study.

    Heavy sessions (large outdoor scene) blow a 72 Hz frame budget at
    full detail; light ones (avatar scene) meet it with room to spare
    — so fixed-detail serving misses on the heavy half while the
    adaptive controller trades their detail for deadline compliance
    and leaves the light half untouched.
    """
    sessions = []
    for tag, scene, count in (
        ("heavy", heavy_scene, heavy),
        ("light", light_scene, light),
    ):
        spec = CATALOG[scene]
        for i in range(count):
            sessions.append(
                StreamSession(
                    session_id=f"{tag}-{i}",
                    scene=scene,
                    trajectory=CameraTrajectory.for_scene(
                        spec,
                        kind="orbit",
                        n_frames=n_frames,
                        detail=detail,
                        phase_deg=i * 360.0 / max(count, 1),
                    ),
                    detail=detail,
                )
            )
    return sessions


def compare_qos(
    sessions: list[StreamSession] | None = None,
    workers: int = 2,
    target_fps: float = 72.0,
    detail: float = 1.0,
    policy: QoSPolicy | None = None,
    modes: tuple[str, ...] = QOS_MODES,
) -> QoSComparison:
    """Serve one mix under a deadline in every quality mode.

    Every mode serves *the same* session descriptors (re-tagged with
    the mode's QoS policy) on the same deterministic in-process pool at
    equal worker count, so miss-rate differences are attributable to
    quality control alone.
    """
    if sessions is None:
        sessions = qos_session_mix(detail=detail)
    nominal = {s.session_id: s.detail for s in sessions}
    points = {}
    for mode in modes:
        if mode not in QOS_MODES:
            raise ValidationError(f"unknown QoS mode '{mode}'")
        mode_policy = QoSPolicy.fixed() if mode == "fixed" else policy
        tagged = [
            replace(s, target_fps=target_fps, qos=mode_policy)
            for s in sessions
        ]
        with StreamServer(workers=workers, local=True) as server:
            results, summary = server.serve_timed(tagged)
        frames = [f for r in results for f in r.report.frames]
        scales = [
            f.detail / nominal[r.session_id]
            for r in results
            for f in r.report.frames
        ]
        misses = sum(1 for f in frames if f.qos is not None and not f.qos.met)
        points[mode] = QoSPoint(
            mode=mode,
            target_fps=target_fps,
            workers=summary.workers,
            sessions=summary.sessions,
            total_frames=summary.total_frames,
            deadline_misses=misses,
            miss_rate=misses / len(frames) if frames else 0.0,
            mean_detail=float(np.mean([f.detail for f in frames])) if frames else 0.0,
            mean_scale=float(np.mean(scales)) if scales else 0.0,
            sim_makespan_seconds=summary.sim_makespan_seconds,
        )
    return QoSComparison(workers=workers, target_fps=target_fps, points=points)


# ----------------------------------------------------------------------
# Fleet scaling study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetScalingPoint:
    """One fleet size's outcome on a generated traffic trace."""

    nodes: int
    sessions: int
    total_frames: int
    sim_makespan_seconds: float
    sim_frames_per_sec: float
    migrations: int
    max_queue_depth: int
    mean_admission_delay: float
    ticks: int


@dataclass(frozen=True)
class FleetScalingComparison:
    """Every fleet size served the identical generated arrival trace.

    ``scaling`` is the simulated serving-throughput ratio between the
    largest and the smallest fleet — the number whose floor
    ``tests/stream/test_fleet.py`` asserts.
    """

    mix: str
    rate: float
    duration: float
    seed: int
    points: dict[int, FleetScalingPoint]

    @property
    def scaling(self) -> float:
        lo, hi = min(self.points), max(self.points)
        base = self.points[lo].sim_frames_per_sec
        if base <= 0:
            return 0.0
        return self.points[hi].sim_frames_per_sec / base

    @property
    def scaling_span(self) -> tuple[int, int]:
        return (min(self.points), max(self.points))


def fleet_scaling_study(
    node_counts: tuple[int, ...] = (1, 2, 4),
    mix: str = "heavy",
    rate: float = 60.0,
    duration: float = 0.25,
    detail: float = 1.0,
    seed: int = 3,
    node_capacity: int = 4,
    node_workers: int = 1,
    migration: bool = True,
) -> FleetScalingComparison:
    """Serve one generated Poisson trace on fleets of each size.

    The trace is regenerated from the same seed per fleet size, so
    every fleet sees bitwise-identical arrivals; throughput differences
    are attributable to the node count (plus routing/migration), not
    the workload.  The rate deliberately saturates a single node so
    scaling reflects added capacity rather than idle machines.
    """
    if not node_counts:
        raise ValidationError("fleet study needs at least one node count")
    points = {}
    for nodes in node_counts:
        arrivals = TrafficGenerator(
            mix=mix, rate=rate, duration=duration, seed=seed, detail=detail
        ).generate()
        with EdgeFleet(
            nodes=nodes,
            node_workers=node_workers,
            node_capacity=node_capacity,
            migration=migration,
        ) as fleet:
            result = fleet.serve(arrivals)
        summary = result.summary
        points[nodes] = FleetScalingPoint(
            nodes=nodes,
            sessions=summary.sessions,
            total_frames=summary.total_frames,
            sim_makespan_seconds=summary.sim_makespan_seconds,
            sim_frames_per_sec=summary.sim_frames_per_sec,
            migrations=len(result.migrations),
            max_queue_depth=result.max_queue_depth,
            mean_admission_delay=result.mean_admission_delay,
            ticks=result.ticks,
        )
    return FleetScalingComparison(
        mix=mix, rate=rate, duration=duration, seed=seed, points=points
    )


def compare_placements(
    sessions: list[StreamSession] | None = None,
    workers: int = 2,
    detail: float = 1.0,
    placements: tuple[str, ...] = PLACEMENTS,
    max_inflight: int | None = None,
) -> PlacementComparison:
    """Serve one mix under every placement policy (deterministic).

    Uses the server's in-process ``local`` mode: the simulated makespan
    — total paper-scale busy seconds of the busiest worker — depends
    only on placement, not on host parallelism, so no process pool is
    needed to compare policies.
    """
    if sessions is None:
        sessions = skewed_session_mix(pairs=workers, detail=detail)
    points = {}
    for placement in placements:
        with StreamServer(
            workers=workers,
            placement=placement,
            local=True,
            max_inflight=max_inflight,
        ) as server:
            results, summary = server.serve_timed(sessions)
        completions = [c for r in results for c in r.report.completions]
        latencies = [
            f.sim_seconds for r in results for f in r.report.frames
        ]
        points[placement] = PlacementPoint(
            placement=placement,
            workers=summary.workers,
            sessions=summary.sessions,
            total_frames=summary.total_frames,
            sim_makespan_seconds=summary.sim_makespan_seconds,
            p50_frame_seconds=float(np.percentile(latencies, 50)),
            p95_frame_seconds=float(np.percentile(latencies, 95)),
            p50_completion_seconds=float(np.percentile(completions, 50)),
            p95_completion_seconds=float(np.percentile(completions, 95)),
            migrations=summary.migrations,
        )
    return PlacementComparison(workers=workers, points=points)
