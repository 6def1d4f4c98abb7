"""Camera trajectories: determinism, shapes, validation, and on-demand
poses byte-identical to the eager generators they replaced."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.gaussians.camera import Camera, orbit_cameras
from repro.scenes.catalog import CATALOG
from repro.stream import CameraTrajectory
from repro.stream.trajectory import _geomspace_at


@pytest.fixture()
def base_camera():
    return Camera.look_at(
        eye=[2.0, 0.5, -1.5], target=[0, 0, 0], width=96, height=64
    )


def _same_camera(a: Camera, b: Camera) -> bool:
    return (
        a.width == b.width
        and a.height == b.height
        and np.array_equal(a.rotation, b.rotation)
        and np.array_equal(a.translation, b.translation)
        and (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
    )


def test_head_jitter_is_seed_deterministic(base_camera):
    a = CameraTrajectory.head_jitter(base_camera, 8, seed=5)
    b = CameraTrajectory.head_jitter(base_camera, 8, seed=5)
    c = CameraTrajectory.head_jitter(base_camera, 8, seed=6)
    assert all(_same_camera(x, y) for x, y in zip(a, b))
    assert not all(_same_camera(x, y) for x, y in zip(a, c))


def test_orbit_full_circle_layers_on_orbit_cameras():
    traj = CameraTrajectory.orbit(6, radius=2.5, height=0.4, width=80, height_px=60)
    direct = orbit_cameras(6, 2.5, height=0.4, width=80, height_px=60)
    assert len(traj) == 6
    assert all(_same_camera(x, y) for x, y in zip(traj, direct))


def test_partial_arc_spans_requested_angles():
    traj = CameraTrajectory.orbit(5, radius=2.0, arc_deg=90.0)
    # Eye positions sweep a quarter circle: end points 90 degrees apart.
    p0 = traj.camera_at(0).position
    p4 = traj.camera_at(4).position
    cos = np.dot(p0[[0, 2]], p4[[0, 2]]) / (
        np.linalg.norm(p0[[0, 2]]) * np.linalg.norm(p4[[0, 2]])
    )
    assert cos == pytest.approx(0.0, abs=1e-9)


def test_dolly_moves_along_eye_target_ray(base_camera):
    traj = CameraTrajectory.dolly(base_camera, 4, factor_range=(1.0, 2.0))
    d0 = np.linalg.norm(traj.camera_at(0).position)
    d3 = np.linalg.norm(traj.camera_at(3).position)
    assert d3 == pytest.approx(2.0 * d0)


def test_frozen_repeats_and_wraps(base_camera):
    traj = CameraTrajectory.frozen(base_camera, 3)
    assert len(traj) == 3
    assert _same_camera(traj.camera_at(0), traj.camera_at(7))


def test_for_scene_kinds_and_resolution():
    spec = CATALOG["bonsai"]
    for kind in ("orbit", "dolly", "head_jitter", "frozen"):
        traj = CameraTrajectory.for_scene(spec, kind, n_frames=4, detail=0.25)
        assert traj.kind == kind
        assert traj.n_frames == 4
        cam = traj.camera_at(0)
        assert cam.width < spec.width  # detail-scaled


def test_explicit_path_wraps(base_camera):
    other = base_camera.dollied(2.0)
    traj = CameraTrajectory(kind="recorded", cameras=(base_camera, other))
    assert traj.n_frames == len(traj) == 2
    assert traj.camera_at(3) is other
    assert list(traj) == [base_camera, other]


def test_validation(base_camera):
    with pytest.raises(ValidationError):
        CameraTrajectory.orbit(0)
    for generator in (
        CameraTrajectory.dolly,
        CameraTrajectory.head_jitter,
        CameraTrajectory.frozen,
    ):
        with pytest.raises(ValidationError):
            generator(base_camera, 0)
    with pytest.raises(ValidationError):
        CameraTrajectory(kind="spiral", n_frames=3)
    with pytest.raises(ValidationError):
        CameraTrajectory.dolly(base_camera, 3, factor_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        CameraTrajectory.head_jitter(base_camera, 3, amplitude=-0.1)
    with pytest.raises(ValidationError):
        CameraTrajectory.head_jitter(base_camera, 3, smoothing=1.0)
    with pytest.raises(ValidationError):
        CameraTrajectory.for_scene(CATALOG["bonsai"], "spiral")
    with pytest.raises(ValidationError):
        CameraTrajectory(kind="empty", cameras=())


# ----------------------------------------------------------------------
# On-demand poses against the eager generators
# ----------------------------------------------------------------------
# The oracle: the generators as they were when every pose was built up
# front.  ``camera_at(k)`` must reproduce pose ``k`` byte for byte, in
# any access order, past the end, and after a pickle round trip.
def _eager_orbit(
    n_frames,
    radius=3.0,
    height=0.5,
    target=(0.0, 0.0, 0.0),
    width=256,
    height_px=256,
    fov_y_deg=50.0,
    arc_deg=360.0,
    phase_deg=0.0,
):
    phase = np.deg2rad(phase_deg)
    target = np.asarray(target, dtype=np.float64)
    if abs(arc_deg - 360.0) < 1e-9:
        cams = []
        for k in range(n_frames):
            angle = phase + 2.0 * np.pi * k / n_frames
            eye = target + np.array(
                [radius * np.cos(angle), height, radius * np.sin(angle)]
            )
            cams.append(
                Camera.look_at(
                    eye, target, width=width, height=height_px, fov_y_deg=fov_y_deg
                )
            )
        return cams
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
                eye, target, width=width, height=height_px, fov_y_deg=fov_y_deg
            )
        )
    return cams


def _eager_dolly(base, n_frames, factor_range=(1.0, 1.8), target=(0.0, 0.0, 0.0)):
    lo, hi = factor_range
    factors = np.geomspace(lo, hi, n_frames)
    target = np.asarray(target, dtype=np.float64)
    return [base.dollied(float(f), target=target) for f in factors]


def _eager_head_jitter(
    base, n_frames, seed=0, amplitude=0.02, target=(0.0, 0.0, 0.0), smoothing=0.7
):
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
    return cams


def _bytes(camera: Camera) -> bytes:
    return b"".join(
        [
            np.asarray([camera.width, camera.height], dtype=np.int64).tobytes(),
            np.asarray(
                [camera.fx, camera.fy, camera.cx, camera.cy], dtype=np.float64
            ).tobytes(),
            camera.rotation.tobytes(),
            camera.translation.tobytes(),
        ]
    )


def _assert_matches_eager(trajectory, eager, data):
    """Random-access order, wrap-around, sequential iteration and a
    pickle round trip (before and after reading) all give ``eager``."""
    n = len(eager)
    assert trajectory.n_frames == len(trajectory) == n
    fresh = pickle.loads(pickle.dumps(trajectory))
    order = data.draw(st.permutations(range(n)), label="order")
    wraps = data.draw(st.lists(st.integers(n, 4 * n), max_size=6), label="wraps")
    for k in [*order, *wraps]:
        assert _bytes(trajectory.camera_at(k)) == _bytes(eager[k % n]), k
    for clone in (fresh, pickle.loads(pickle.dumps(trajectory))):
        assert [_bytes(c) for c in clone] == [_bytes(c) for c in eager]


_BASE = Camera.look_at(eye=[2.0, 0.5, -1.5], target=[0, 0, 0], width=96, height=64)
_frames = st.integers(min_value=1, max_value=24)
_angles = st.floats(min_value=-720.0, max_value=720.0)


@pytest.mark.property
class TestOnDemandPoses:
    @settings(max_examples=60, deadline=None)
    @given(
        n=_frames,
        phase=_angles,
        arc=st.one_of(st.just(360.0), st.floats(min_value=1.0, max_value=720.0)),
        radius=st.floats(min_value=0.5, max_value=8.0),
        height=st.floats(min_value=-2.0, max_value=2.0),
        data=st.data(),
    )
    def test_orbit(self, n, phase, arc, radius, height, data):
        kwargs = dict(
            radius=radius,
            height=height,
            width=80,
            height_px=60,
            arc_deg=arc,
            phase_deg=phase,
        )
        _assert_matches_eager(
            CameraTrajectory.orbit(n, **kwargs), _eager_orbit(n, **kwargs), data
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        lo=st.floats(min_value=0.05, max_value=20.0),
        hi=st.floats(min_value=0.05, max_value=20.0),
        constant=st.booleans(),
        data=st.data(),
    )
    def test_dolly(self, n, lo, hi, constant, data):
        factors = (lo, lo) if constant else (lo, hi)
        _assert_matches_eager(
            CameraTrajectory.dolly(_BASE, n, factor_range=factors),
            _eager_dolly(_BASE, n, factor_range=factors),
            data,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=_frames,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        amplitude=st.floats(min_value=0.0, max_value=0.3),
        smoothing=st.floats(min_value=0.0, max_value=0.99),
        data=st.data(),
    )
    def test_head_jitter(self, n, seed, amplitude, smoothing, data):
        kwargs = dict(seed=seed, amplitude=amplitude, smoothing=smoothing)
        _assert_matches_eager(
            CameraTrajectory.head_jitter(_BASE, n, **kwargs),
            _eager_head_jitter(_BASE, n, **kwargs),
            data,
        )

    @settings(max_examples=20, deadline=None)
    @given(n=_frames, data=st.data())
    def test_frozen(self, n, data):
        _assert_matches_eager(CameraTrajectory.frozen(_BASE, n), [_BASE] * n, data)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10**5),
        lo=st.floats(min_value=1e-3, max_value=1e3),
        hi=st.floats(min_value=1e-3, max_value=1e3),
        data=st.data(),
    )
    def test_geomspace_element(self, n, lo, hi, data):
        k = data.draw(st.integers(min_value=0, max_value=n - 1), label="k")
        want = np.geomspace(lo, hi, n)[k]
        assert np.float64(_geomspace_at(lo, hi, n, k)).tobytes() == want.tobytes()


def test_huge_trajectory_is_constant_size(monkeypatch):
    """A 10^9-frame path costs what a 10-frame one does, and frame 0
    is built once per object however often it is read or wrapped to;
    the memo is no part of equality, hashing or repr."""
    calls = []
    look_at = Camera.look_at

    def spy(*args, **kwargs):
        calls.append(1)
        return look_at(*args, **kwargs)

    monkeypatch.setattr(Camera, "look_at", staticmethod(spy))
    spec = CATALOG["bicycle"]
    huge = CameraTrajectory.for_scene(spec, "orbit", n_frames=10**9, phase_deg=7.0)
    small = CameraTrajectory.for_scene(spec, "orbit", n_frames=10, phase_deg=7.0)
    assert calls == []
    assert len(pickle.dumps(huge)) <= len(pickle.dumps(small)) + 8
    twin = CameraTrajectory.for_scene(spec, "orbit", n_frames=10**9, phase_deg=7.0)
    first = huge.camera_at(0)
    assert huge.camera_at(10**9) is first and huge.camera_at(0) is first
    assert len(calls) == 1
    assert huge == twin and hash(huge) == hash(twin) and repr(huge) == repr(twin)
