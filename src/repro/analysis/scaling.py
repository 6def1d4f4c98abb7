"""Scaling studies: rendering resolution (Fig. 16) and camera distance
(Sec. VI-F's first extreme case).

Both experiments hold the scene and the calibrated device models fixed
and vary exactly one knob, so the resulting curves are pure model
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gbu import GBUDevice
from repro.core.irss import render_irss
from repro.core.pipeline import SYNC_SECONDS, PipelinedFrame
from repro.errors import ValidationError
from repro.gaussians import build_render_lists, project, render_reference
from repro.gpu import FrameWorkload, GPUTimingModel, ScaleFactors
from repro.scenes import build_scene
from repro.scenes.catalog import CATALOG, SceneSpec

# Fig. 16's three resolutions, as fractions of the catalog resolution
# (paper: 676x507, 1352x1014, 2704x2028 — 0.5x, 1x, 2x linear).
RESOLUTION_FACTORS = (0.5, 1.0, 2.0)


@dataclass
class ScalingPoint:
    """One bar pair of Fig. 16 (or one distance point of Sec. VI-F)."""

    scene: str
    factor: float
    width: int
    height: int
    baseline_fps: float
    gbu_fps: float

    @property
    def speedup(self) -> float:
        return self.gbu_fps / self.baseline_fps


def _evaluate_at_camera(spec: SceneSpec, bundle, camera) -> tuple[float, float]:
    """(baseline_fps, gbu_fps) for a scene under a modified camera."""
    cloud, extra = bundle.frame_cloud(0)
    projected = project(cloud, camera)
    lists = build_render_lists(projected)
    reference = render_reference(projected, lists)
    irss = render_irss(projected, lists)
    scales = ScaleFactors.for_scene(spec)
    workload = FrameWorkload.from_renders(
        reference, irss, lists, len(projected), extra, scales
    )
    gpu_model = GPUTimingModel()
    baseline = gpu_model.frame_pfs(workload)

    device = GBUDevice()
    report = device.render(projected, scales=scales)
    gpu_s = gpu_model.step1_seconds(workload) + gpu_model.step2_seconds(
        workload, keys=workload.n_gaussians, depth_sort_only=True
    )
    pipe = PipelinedFrame(gpu_s, report.step3_seconds, SYNC_SECONDS)
    return 1.0 / baseline.total_s, pipe.fps


def resolution_sweep(
    spec_or_name: SceneSpec | str,
    factors: tuple[float, ...] = RESOLUTION_FACTORS,
) -> list[ScalingPoint]:
    """Fig. 16: baseline vs GBU FPS across rendering resolutions.

    The camera is rescaled (same field of view, more pixels); the
    Gaussian model is unchanged, so higher resolutions mean more
    fragments per Gaussian — exactly the regime where the paper shows
    GBU's advantage growing.
    """
    spec = CATALOG[spec_or_name] if isinstance(spec_or_name, str) else spec_or_name
    bundle = build_scene(spec)
    points = []
    for factor in factors:
        if factor <= 0:
            raise ValidationError("resolution factor must be positive")
        width = max(int(round(spec.width * factor / 16)) * 16, 32)
        height = max(int(round(spec.height * factor / 16)) * 16, 32)
        camera = bundle.camera.with_resolution(width, height)
        base_fps, gbu_fps = _evaluate_at_camera(spec, bundle, camera)
        points.append(
            ScalingPoint(
                scene=spec.name,
                factor=factor,
                width=width,
                height=height,
                baseline_fps=base_fps,
                gbu_fps=gbu_fps,
            )
        )
    return points


def camera_distance_sweep(
    spec_or_name: SceneSpec | str,
    factors: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> list[ScalingPoint]:
    """Sec. VI-F: dolly the camera away from the scene.

    Distant cameras shrink every footprint, eroding IRSS's compute
    sharing (fewer fragments per row); the paper measures the static
    end-to-end speedup dropping from 10.8x to 4.7x at 4x distance.
    """
    spec = CATALOG[spec_or_name] if isinstance(spec_or_name, str) else spec_or_name
    bundle = build_scene(spec)
    points = []
    for factor in factors:
        camera = bundle.camera.dollied(factor)
        base_fps, gbu_fps = _evaluate_at_camera(spec, bundle, camera)
        points.append(
            ScalingPoint(
                scene=spec.name,
                factor=factor,
                width=camera.width,
                height=camera.height,
                baseline_fps=base_fps,
                gbu_fps=gbu_fps,
            )
        )
    return points
