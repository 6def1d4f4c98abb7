"""Property-based invariants of the content-addressed render cache.

Two families, per the correctness contract in
:mod:`repro.stream.content_cache`:

* **Key stability** — for arbitrary lattice cells and pitches, any two
  eye positions inside one cell canonicalize to the *identical* camera
  and share one content address, while eyes in different cells never
  collide.  This is the dedup equivalence class: get it wrong in one
  direction and viewers see someone else's frame, in the other and
  dedup never fires.

* **Exact-pipeline byte identity** — for arbitrary trajectories, a
  dedup-served frame hashes byte-identical
  (SHA-256 over shape, dtype and buffer — the golden suite's hash) to
  a fresh render of the same frame, with bit-equal simulated timing.
  The cache must be a pure wall-clock optimization.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.camera import Camera
from repro.scenes.catalog import CATALOG
from repro.stream import (
    CameraTrajectory,
    ContentCacheConfig,
    FrameStream,
    SessionContentView,
    canonical_camera,
    frame_content_key,
    streaming_config,
)
from repro.stream.content_cache import make_tier_chain, pose_cell, render_mode_key

pytestmark = pytest.mark.property

DETAIL = 0.25

_cells = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
)
# Offsets stay off the cell faces so float rounding cannot push an eye
# into a neighbour — the faces themselves are measure-zero ties the
# quantizer may assign to either side.
_offsets = st.tuples(
    st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95)
)
_pitches = st.floats(0.1, 2.0)


def _eye_camera(cell, offset, pitch):
    eye = (np.asarray(cell, dtype=np.float64) + np.asarray(offset)) * pitch
    return Camera.look_at(eye, np.zeros(3), width=64, height=48)


def _key(camera, pitch):
    mode = render_mode_key(True, 1, False, False)
    return frame_content_key(CATALOG["bicycle"], camera, 0, DETAIL, mode, pitch)


@given(cell=_cells, off_a=_offsets, off_b=_offsets, pitch=_pitches)
@settings(max_examples=200, deadline=None)
def test_same_cell_means_same_canonical_pose_and_key(cell, off_a, off_b, pitch):
    """Sub-cell jitter is invisible: any two eyes in one lattice cell
    share the canonical camera (bit for bit) and the content address."""
    cam_a = _eye_camera(cell, off_a, pitch)
    cam_b = _eye_camera(cell, off_b, pitch)
    assert pose_cell(cam_a, pitch) == pose_cell(cam_b, pitch) == cell
    canon_a = canonical_camera(cam_a, pitch)
    canon_b = canonical_camera(cam_b, pitch)
    assert np.array_equal(canon_a.rotation, canon_b.rotation)
    assert np.array_equal(canon_a.translation, canon_b.translation)
    assert np.allclose(canon_a.rotation @ canon_a.rotation.T, np.eye(3))
    assert _key(cam_a, pitch) == _key(cam_b, pitch)


@given(cell_a=_cells, cell_b=_cells, offset=_offsets, pitch=_pitches)
@settings(max_examples=200, deadline=None)
def test_distinct_cells_never_collide(cell_a, cell_b, offset, pitch):
    cam_a = _eye_camera(cell_a, offset, pitch)
    cam_b = _eye_camera(cell_b, offset, pitch)
    if cell_a == cell_b:
        assert _key(cam_a, pitch) == _key(cam_b, pitch)
    else:
        assert _key(cam_a, pitch) != _key(cam_b, pitch)


def _image_hash(image) -> str:
    digest = hashlib.sha256()
    digest.update(str(image.shape).encode())
    digest.update(str(image.dtype).encode())
    digest.update(image.tobytes())
    return digest.hexdigest()


@given(
    kind=st.sampled_from(["orbit", "head_jitter"]),
    seed=st.integers(0, 7),
)
@settings(max_examples=8, deadline=None)
def test_exact_backend_dedup_is_byte_identical(kind, seed):
    """A frame served from the cache hashes identical to a fresh
    render of the same frame on the exact pipeline, with bit-equal
    simulated latency."""
    spec = CATALOG["female_4"]
    trajectory = CameraTrajectory.for_scene(
        spec, kind, n_frames=2, seed=seed, detail=DETAIL
    )
    cache_cfg = ContentCacheConfig()
    worker = make_tier_chain(cache_cfg, ("worker",))

    def stream(view):
        return FrameStream(
            "female_4",
            trajectory,
            config=streaming_config(),
            detail=DETAIL,
            keep_images=True,
            content=view,
        )

    renderer = stream(
        SessionContentView(cache_cfg, make_tier_chain(cache_cfg, ("session",), worker))
    )
    follower = stream(
        SessionContentView(cache_cfg, make_tier_chain(cache_cfg, ("session",), worker))
    )
    fresh = FrameStream(
        "female_4",
        trajectory,
        config=streaming_config(),
        detail=DETAIL,
        keep_images=True,
    )
    for _ in range(len(trajectory)):
        rendered = renderer.render_next()
        served = follower.render_next()
        baseline = fresh.render_next()
        assert rendered.served_from is None
        assert served.served_from == "worker"
        assert (
            _image_hash(served.image)
            == _image_hash(rendered.image)
            == _image_hash(baseline.image)
        )
        assert served.sim_seconds == baseline.sim_seconds
        assert served.cache.cumulative_hit_rate == baseline.cache.cumulative_hit_rate
