"""Pinhole camera model used by Rendering Step 1.

A camera stores intrinsics (focal lengths and principal point in
pixels) and extrinsics (the world-to-camera rigid transform ``W`` of
Eq. 3).  Helpers construct cameras via look-at geometry and generate
orbit paths used by the workload catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ValidationError


@dataclass(frozen=True)
class Camera:
    """Pinhole camera.

    Attributes
    ----------
    width, height:
        Image resolution in pixels.
    fx, fy:
        Focal lengths in pixels.
    cx, cy:
        Principal point in pixels.
    rotation:
        (3, 3) world-to-camera rotation (the rotational part of ``W``).
    translation:
        (3,) world-to-camera translation; a world point ``p`` maps to
        camera space as ``rotation @ p + translation``.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValidationError(f"rotation must be (3, 3), got {rot.shape}")
        if trans.shape != (3,):
            raise ValidationError(f"translation must be (3,), got {trans.shape}")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError("focal lengths must be positive")
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-8):
            raise ValidationError("rotation must be orthonormal")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.width, self.height)

    def to_camera_space(self, points: np.ndarray) -> np.ndarray:
        """Apply the viewing transform ``W`` to (N, 3) world points."""
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation

    def view_directions(self, points: np.ndarray) -> np.ndarray:
        """Unit directions from the camera center to world points."""
        diff = np.asarray(points, dtype=np.float64) - self.position
        norms = np.linalg.norm(diff, axis=1, keepdims=True)
        norms = np.where(norms < 1e-12, 1.0, norms)
        return diff / norms

    # ------------------------------------------------------------------
    # Constructors and variations
    # ------------------------------------------------------------------
    @staticmethod
    def look_at(
        eye: np.ndarray,
        target: np.ndarray,
        up: np.ndarray = (0.0, 1.0, 0.0),
        width: int = 256,
        height: int = 256,
        fov_y_deg: float = 50.0,
    ) -> "Camera":
        """Build a camera at ``eye`` looking toward ``target``.

        The camera convention is +z forward, +x right, +y down (image
        coordinates grow right and down), matching standard computer
        vision extrinsics.
        """
        eye = np.asarray(eye, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        up = np.asarray(up, dtype=np.float64)
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm < 1e-12:
            raise ValidationError("eye and target coincide")
        forward = forward / norm
        right = np.cross(forward, up)
        norm = np.linalg.norm(right)
        if norm < 1e-9:
            raise ValidationError("up vector is parallel to the view direction")
        right = right / norm
        down = np.cross(forward, right)
        rotation = np.stack([right, down, forward], axis=0)
        translation = -rotation @ eye
        fy = 0.5 * height / np.tan(np.deg2rad(fov_y_deg) / 2.0)
        return Camera(
            width=width,
            height=height,
            fx=fy,
            fy=fy,
            cx=width / 2.0,
            cy=height / 2.0,
            rotation=rotation,
            translation=translation,
        )

    def with_resolution(self, width: int, height: int) -> "Camera":
        """Rescale the camera to a new resolution, keeping field of view.

        Used by the resolution-scaling experiment (Fig. 16): focal
        lengths and principal point scale with the image size.
        """
        sx = width / self.width
        sy = height / self.height
        return replace(
            self,
            width=width,
            height=height,
            fx=self.fx * sx,
            fy=self.fy * sy,
            cx=self.cx * sx,
            cy=self.cy * sy,
        )

    def dollied(self, factor: float, target: np.ndarray | None = None) -> "Camera":
        """Move the camera away from (factor > 1) or toward a target.

        Used by the camera-distance experiment (Sec. VI-F): the eye
        moves along the eye-target ray to ``factor`` times its distance.
        """
        if factor <= 0:
            raise ValidationError("dolly factor must be positive")
        target = np.zeros(3) if target is None else np.asarray(target, dtype=np.float64)
        eye = self.position
        new_eye = target + factor * (eye - target)
        translation = -self.rotation @ new_eye
        return replace(self, translation=translation)


def orbit_cameras(
    n: int,
    radius: float,
    height: float = 0.5,
    target: np.ndarray = (0.0, 0.0, 0.0),
    width: int = 256,
    height_px: int = 256,
    fov_y_deg: float = 50.0,
    phase: float = 0.0,
) -> list[Camera]:
    """Generate ``n`` cameras on a circular orbit around ``target``."""
    if n <= 0:
        raise ValidationError("orbit needs at least one camera")
    return [
        orbit_camera(k, n, radius, height, target, width, height_px, fov_y_deg, phase)
        for k in range(n)
    ]


def orbit_camera(
    k: int,
    n: int,
    radius: float,
    height: float = 0.5,
    target: np.ndarray = (0.0, 0.0, 0.0),
    width: int = 256,
    height_px: int = 256,
    fov_y_deg: float = 50.0,
    phase: float = 0.0,
) -> Camera:
    """Camera ``k`` of :func:`orbit_cameras` ``(n, ...)``, built alone."""
    target = np.asarray(target, dtype=np.float64)
    angle = phase + 2.0 * np.pi * k / n
    eye = target + np.array([radius * np.cos(angle), height, radius * np.sin(angle)])
    return Camera.look_at(
        eye, target, width=width, height=height_px, fov_y_deg=fov_y_deg
    )
