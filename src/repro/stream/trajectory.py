"""Deterministic camera trajectories for frame-sequence streaming.

A :class:`CameraTrajectory` is a finite, precomputed sequence of
:class:`repro.gaussians.camera.Camera` poses — the client-side input
to a stream session.  Three motion archetypes cover the AR/VR viewing
patterns the paper targets, plus a degenerate one for testing:

* ``orbit`` — a circular pan around the scene (the catalog's
  evaluation-camera placement swept over an arc);
* ``dolly`` — motion along the eye-target ray (the Sec. VI-F
  camera-distance stress, animated);
* ``head_jitter`` — a seeded random walk around a base pose modeling
  head-tracked micro-motion, the workload where cross-frame reuse
  pays off most;
* ``frozen`` — the same pose every frame (upper bound for reuse;
  used by the monotonicity tests).

All generators are deterministic: the same arguments (and seed, for
``head_jitter``) produce bitwise-identical camera sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.gaussians.camera import Camera, orbit_cameras
from repro.scenes.catalog import SceneSpec

#: The kinds :meth:`CameraTrajectory.for_scene` builds.
TRAJECTORY_KINDS = ("orbit", "dolly", "head_jitter", "frozen")


@dataclass(frozen=True)
class CameraTrajectory:
    """A finite camera path: ``kind`` plus the precomputed poses."""

    kind: str
    cameras: tuple[Camera, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.cameras:
            raise ValidationError("trajectory needs at least one camera")

    def __len__(self) -> int:
        return len(self.cameras)

    def __iter__(self):
        return iter(self.cameras)

    @property
    def n_frames(self) -> int:
        return len(self.cameras)

    def camera_at(self, frame: int) -> Camera:
        """The pose for frame ``frame`` (wrapping past the end)."""
        return self.cameras[frame % len(self.cameras)]

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @staticmethod
    def orbit(
        n_frames: int,
        radius: float = 3.0,
        height: float = 0.5,
        target: np.ndarray = (0.0, 0.0, 0.0),
        width: int = 256,
        height_px: int = 256,
        fov_y_deg: float = 50.0,
        arc_deg: float = 360.0,
        phase_deg: float = 0.0,
    ) -> "CameraTrajectory":
        """Sweep ``arc_deg`` of a circular orbit in ``n_frames`` steps.

        A full 360-degree arc delegates to
        :func:`repro.gaussians.camera.orbit_cameras` (closed loop, no
        duplicated endpoint); partial arcs place the frames evenly
        across ``[phase, phase + arc]``.
        """
        if n_frames <= 0:
            raise ValidationError("trajectory needs at least one frame")
        phase = np.deg2rad(phase_deg)
        if abs(arc_deg - 360.0) < 1e-9:
            cams = orbit_cameras(
                n_frames,
                radius,
                height=height,
                target=target,
                width=width,
                height_px=height_px,
                fov_y_deg=fov_y_deg,
                phase=phase,
            )
            return CameraTrajectory(kind="orbit", cameras=tuple(cams))
        target = np.asarray(target, dtype=np.float64)
        arc = np.deg2rad(arc_deg)
        cams = []
        for k in range(n_frames):
            t = k / max(n_frames - 1, 1)
            angle = phase + arc * t
            eye = target + np.array(
                [radius * np.cos(angle), height, radius * np.sin(angle)]
            )
            cams.append(
                Camera.look_at(
                    eye,
                    target,
                    width=width,
                    height=height_px,
                    fov_y_deg=fov_y_deg,
                )
            )
        return CameraTrajectory(kind="orbit", cameras=tuple(cams))

    @staticmethod
    def dolly(
        base: Camera,
        n_frames: int,
        factor_range: tuple[float, float] = (1.0, 1.8),
        target: np.ndarray = (0.0, 0.0, 0.0),
    ) -> "CameraTrajectory":
        """Move the camera along the eye-target ray.

        Frame ``k`` uses :meth:`Camera.dollied` with a factor
        interpolated geometrically across ``factor_range`` (constant
        relative step per frame, matching how perceived scale changes).
        """
        if n_frames <= 0:
            raise ValidationError("trajectory needs at least one frame")
        lo, hi = factor_range
        if lo <= 0 or hi <= 0:
            raise ValidationError("dolly factors must be positive")
        factors = np.geomspace(lo, hi, n_frames)
        target = np.asarray(target, dtype=np.float64)
        cams = tuple(base.dollied(float(f), target=target) for f in factors)
        return CameraTrajectory(kind="dolly", cameras=cams)

    @staticmethod
    def head_jitter(
        base: Camera,
        n_frames: int,
        seed: int = 0,
        amplitude: float = 0.02,
        target: np.ndarray = (0.0, 0.0, 0.0),
        smoothing: float = 0.7,
    ) -> "CameraTrajectory":
        """Seeded head-tracked micro-motion around a base pose.

        The eye follows a smoothed (AR(1)) random walk of scale
        ``amplitude`` world units around the base eye position, always
        re-aimed at ``target`` — the small-baseline pose churn of a
        seated AR/VR user.  Deterministic for a fixed seed.
        """
        if n_frames <= 0:
            raise ValidationError("trajectory needs at least one frame")
        if amplitude < 0:
            raise ValidationError("jitter amplitude cannot be negative")
        if not 0.0 <= smoothing < 1.0:
            raise ValidationError("smoothing must be in [0, 1)")
        rng = np.random.default_rng(seed)
        target = np.asarray(target, dtype=np.float64)
        eye0 = base.position
        offset = np.zeros(3)
        cams = []
        for _ in range(n_frames):
            offset = smoothing * offset + amplitude * rng.standard_normal(3)
            cams.append(
                Camera.look_at(
                    eye0 + offset,
                    target,
                    width=base.width,
                    height=base.height,
                    fov_y_deg=float(
                        2.0 * np.rad2deg(np.arctan(0.5 * base.height / base.fy))
                    ),
                )
            )
        return CameraTrajectory(kind="head_jitter", cameras=tuple(cams))

    @staticmethod
    def frozen(base: Camera, n_frames: int) -> "CameraTrajectory":
        """The same pose repeated ``n_frames`` times."""
        if n_frames <= 0:
            raise ValidationError("trajectory needs at least one frame")
        return CameraTrajectory(kind="frozen", cameras=(base,) * n_frames)

    @staticmethod
    def for_scene(
        spec: SceneSpec,
        kind: str = "orbit",
        n_frames: int = 16,
        seed: int = 0,
        detail: float = 1.0,
        phase_deg: float = 0.0,
    ) -> "CameraTrajectory":
        """A trajectory matching a catalog scene's evaluation camera.

        Uses the scene's orbit radius/height/FOV and its detail-scaled
        evaluation resolution (:meth:`SceneSpec.eval_resolution`, the
        same formula :func:`repro.scenes.build_scene` uses) so
        streamed frames are comparable with the single-frame
        experiments on the same scene.
        """
        width, height = spec.eval_resolution(detail)
        base = Camera.look_at(
            eye=spec.eval_eye(),
            target=[0.0, 0.0, 0.0],
            width=width,
            height=height,
            fov_y_deg=spec.camera_fov,
        )
        if kind == "orbit":
            return CameraTrajectory.orbit(
                n_frames,
                radius=spec.camera_radius,
                height=spec.camera_height,
                width=width,
                height_px=height,
                fov_y_deg=spec.camera_fov,
                phase_deg=phase_deg,
            )
        if kind == "dolly":
            return CameraTrajectory.dolly(base, n_frames)
        if kind == "head_jitter":
            return CameraTrajectory.head_jitter(base, n_frames, seed=seed)
        if kind == "frozen":
            return CameraTrajectory.frozen(base, n_frames)
        raise ValidationError(
            f"unknown trajectory kind '{kind}'; "
            f"choose from {', '.join(TRAJECTORY_KINDS)}"
        )
