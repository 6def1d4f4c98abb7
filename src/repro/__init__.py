"""repro — a Python reproduction of "Gaussian Blending Unit: An Edge
GPU Plug-in for Real-Time Gaussian-Based Rendering in AR/VR"
(HPCA 2025).

The package contains the complete system stack:

* :mod:`repro.gaussians` — the 3D Gaussian Splatting substrate
  (representation, projection, tiling, sorting, reference rasterizer);
* :mod:`repro.core` — the paper's contribution: the IRSS dataflow and
  the GBU hardware model (tile engine, reuse cache, D&B engine,
  pipelines, standalone accelerator);
* :mod:`repro.gpu` — the calibrated edge-GPU timing model (the Jetson
  Orin NX stand-in);
* :mod:`repro.dynamics` — 4D Gaussians and animatable avatars;
* :mod:`repro.scenes` — the synthetic evaluation-scene catalog;
* :mod:`repro.metrics` — image quality, performance and energy;
* :mod:`repro.analysis` / :mod:`repro.harness` — the per-figure /
  per-table experiment drivers.

Quickstart::

    import numpy as np
    from repro import (
        Camera, GaussianCloud, GBUDevice, project, render_reference
    )
    from repro.core.irss import render_irss

    rng = np.random.default_rng(0)
    cloud = GaussianCloud.random(500, rng)
    camera = Camera.look_at(eye=[0, 0.3, -3], target=[0, 0, 0])
    projected = project(cloud, camera)
    reference = render_reference(projected)       # PFS baseline
    irss = render_irss(projected)                 # same image, IRSS
    report = GBUDevice().render(projected)        # GBU hardware model
"""

from repro.config import DEFAULT_SETTINGS, RenderSettings
from repro.core.gbu import GBUConfig, GBUDevice, GBUReport
from repro.core.irss import render_irss
from repro.core.standalone import GBUStandalone
from repro.core.transform import compute_transforms
from repro.gaussians import (
    Camera,
    GaussianCloud,
    Projected2D,
    RenderLists,
    TileGrid,
    build_render_lists,
    project,
    render_reference,
)
from repro.gpu import GPUTimingModel, ORIN_NX
from repro.scenes import build_scene, scene_names

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SETTINGS",
    "RenderSettings",
    "GBUConfig",
    "GBUDevice",
    "GBUReport",
    "GBUStandalone",
    "render_irss",
    "compute_transforms",
    "Camera",
    "GaussianCloud",
    "Projected2D",
    "RenderLists",
    "TileGrid",
    "build_render_lists",
    "project",
    "render_reference",
    "GPUTimingModel",
    "ORIN_NX",
    "build_scene",
    "scene_names",
    "__version__",
]
