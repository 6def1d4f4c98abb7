"""Deterministic camera trajectories for frame-sequence streaming.

A :class:`CameraTrajectory` is a finite sequence of
:class:`repro.gaussians.camera.Camera` poses — the client-side input
to a stream session.  A generated trajectory stores only its kind, its
length and the generator's parameters, and builds pose ``k`` when
:meth:`CameraTrajectory.camera_at` asks for it: construction, memory
and pickled size are O(1) in the frame count, so admitting a session
costs the same whatever frame budget its client asks for.  Four motion
archetypes cover the AR/VR viewing patterns the paper targets, plus a
degenerate one for testing:

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
``head_jitter``) produce bitwise-identical camera sequences, in any
order the poses are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.gaussians.camera import Camera, orbit_camera
from repro.scenes.catalog import SceneSpec

#: The kinds :meth:`CameraTrajectory.for_scene` builds.
TRAJECTORY_KINDS = ("orbit", "dolly", "head_jitter", "frozen")


@dataclass(frozen=True)
class CameraTrajectory:
    """A finite camera path whose poses are built on demand.

    A generator stores ``kind``, ``n_frames`` and its ``params``;
    :meth:`camera_at` builds pose ``k`` from them, bit-identical to
    building the whole path up front.  Frame 0, which every pipeline
    (re)build reads, is built at most once per object.  An explicit
    path passes ``cameras`` instead (``n_frames`` follows from it).

    ``head_jitter`` keeps a cursor on its random walk, so frames read
    in order cost O(1) each and an earlier frame replays the walk from
    its seed.  The cursor advances in place: threads must not share a
    trajectory.
    """

    kind: str
    cameras: tuple[Camera, ...] = ()
    n_frames: int = 0
    params: tuple = ()
    # Memos: not part of the value (equality, hashing, repr).
    _first: Camera | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _walk: _JitterWalk | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.cameras:
            object.__setattr__(self, "n_frames", len(self.cameras))
        elif self.n_frames <= 0:
            raise ValidationError("trajectory needs at least one camera")
        elif self.kind not in _POSES:
            raise ValidationError(f"unknown trajectory kind '{self.kind}'")

    def __len__(self) -> int:
        return self.n_frames

    def __iter__(self):
        return (self.camera_at(k) for k in range(self.n_frames))

    def camera_at(self, frame: int) -> Camera:
        """The pose for frame ``frame`` (wrapping past the end)."""
        k = frame % self.n_frames
        if self.cameras:
            return self.cameras[k]
        if k:
            return _POSES[self.kind](self, k)
        if self._first is None:
            object.__setattr__(self, "_first", _POSES[self.kind](self, 0))
        return self._first

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

        A full 360-degree arc is the path of
        :func:`repro.gaussians.camera.orbit_cameras` (closed loop, no
        duplicated endpoint); partial arcs place the frames evenly
        across ``[phase, phase + arc]``.
        """
        if n_frames <= 0:
            raise ValidationError("trajectory needs at least one frame")
        return CameraTrajectory(
            kind="orbit",
            n_frames=n_frames,
            params=(
                radius, height, _point(target), width, height_px, fov_y_deg,
                arc_deg, phase_deg,
            ),
        )

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
        return CameraTrajectory(
            kind="dolly", n_frames=n_frames, params=(base, lo, hi, _point(target))
        )

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
        return CameraTrajectory(
            kind="head_jitter",
            n_frames=n_frames,
            params=(base, seed, amplitude, _point(target), smoothing),
        )

    @staticmethod
    def frozen(base: Camera, n_frames: int) -> "CameraTrajectory":
        """The same pose repeated ``n_frames`` times."""
        if n_frames <= 0:
            raise ValidationError("trajectory needs at least one frame")
        return CameraTrajectory(kind="frozen", n_frames=n_frames, params=(base,))

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
        if kind not in TRAJECTORY_KINDS:
            raise ValidationError(
                f"unknown trajectory kind '{kind}'; "
                f"choose from {', '.join(TRAJECTORY_KINDS)}"
            )
        width, height = spec.eval_resolution(detail)
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
        base = Camera.look_at(
            eye=spec.eval_eye(),
            target=[0.0, 0.0, 0.0],
            width=width,
            height=height,
            fov_y_deg=spec.camera_fov,
        )
        if kind == "dolly":
            return CameraTrajectory.dolly(base, n_frames)
        if kind == "head_jitter":
            return CameraTrajectory.head_jitter(base, n_frames, seed=seed)
        return CameraTrajectory.frozen(base, n_frames)


# ----------------------------------------------------------------------
# Pose k of each generator
# ----------------------------------------------------------------------
def _point(target) -> tuple[float, ...]:
    """A 3-vector as a hashable tuple that converts back bit-exactly."""
    return tuple(np.asarray(target, dtype=np.float64).tolist())


def _orbit_pose(traj: CameraTrajectory, k: int) -> Camera:
    radius, height, target, width, height_px, fov_y_deg, arc_deg, phase_deg = (
        traj.params
    )
    phase = np.deg2rad(phase_deg)
    if abs(arc_deg - 360.0) < 1e-9:
        return orbit_camera(
            k, traj.n_frames, radius, height, target, width, height_px, fov_y_deg, phase
        )
    target = np.asarray(target, dtype=np.float64)
    arc = np.deg2rad(arc_deg)
    t = k / max(traj.n_frames - 1, 1)
    angle = phase + arc * t
    eye = target + np.array([radius * np.cos(angle), height, radius * np.sin(angle)])
    return Camera.look_at(
        eye, target, width=width, height=height_px, fov_y_deg=fov_y_deg
    )


def _dolly_pose(traj: CameraTrajectory, k: int) -> Camera:
    base, lo, hi, target = traj.params
    return base.dollied(_geomspace_at(lo, hi, traj.n_frames, k), target=target)


def _geomspace_at(lo: float, hi: float, n: int, k: int) -> float:
    """``float(np.geomspace(lo, hi, n)[k])`` for positive ``lo``/``hi``,
    without building the array.

    The same float64 operations in the same order as numpy's
    ``geomspace`` -> ``logspace`` -> ``linspace``: exact endpoints,
    ``10 ** (log_lo + k * step)`` between them (``k / div * delta``
    when the step underflows to zero), and the power taken by the same
    array ufunc loop.
    """
    if k == 0:
        return float(lo)
    if k == n - 1:
        return float(hi)
    log_lo = np.log10(np.asarray(lo, dtype=np.float64))
    log_hi = np.log10(np.asarray(hi, dtype=np.float64))
    div = n - 1
    delta = log_hi - log_lo
    step = delta / div
    y = k / div * delta if step == 0 else float(k) * step
    return float(np.power(10.0, np.array([y + log_lo]))[0])


class _JitterWalk:
    """Cursor on a seeded AR(1) walk: ``offset`` is the walk after
    frame ``frame``, ``rng`` the generator's state at that point."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.frame = -1
        self.offset = np.zeros(3)

    def offset_at(self, k: int, smoothing: float, amplitude: float) -> np.ndarray:
        while self.frame < k:
            noise = self.rng.standard_normal(3)
            self.offset = smoothing * self.offset + amplitude * noise
            self.frame += 1
        return self.offset


def _jitter_pose(traj: CameraTrajectory, k: int) -> Camera:
    base, seed, amplitude, target, smoothing = traj.params
    walk = traj._walk
    if walk is None or walk.frame > k:
        walk = _JitterWalk(seed)
        object.__setattr__(traj, "_walk", walk)
    offset = walk.offset_at(k, smoothing, amplitude)
    return Camera.look_at(
        base.position + offset,
        np.asarray(target, dtype=np.float64),
        width=base.width,
        height=base.height,
        fov_y_deg=float(2.0 * np.rad2deg(np.arctan(0.5 * base.height / base.fy))),
    )


def _frozen_pose(traj: CameraTrajectory, k: int) -> Camera:
    return traj.params[0]


_POSES = {
    "orbit": _orbit_pose,
    "dolly": _dolly_pose,
    "head_jitter": _jitter_pose,
    "frozen": _frozen_pose,
}
