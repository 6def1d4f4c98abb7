"""Checkpoints: cache state export/import, stream capture/replay."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.reuse_cache import TemporalReuseSimulator
from repro.errors import ValidationError
from repro.scenes import build_scene
from repro.scenes.catalog import CATALOG
from repro.stream import (
    CameraTrajectory,
    FrameStream,
    capture_checkpoint,
    restore_checkpoint,
)

DETAIL = 0.25


def _frame_traces(n_frames=4, n_gaussians=40, seed=3):
    """Synthetic per-frame (trace, tile) pairs with cross-frame overlap."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        trace = rng.integers(0, n_gaussians, size=120)
        tiles = np.sort(rng.integers(0, 16, size=120))
        frames.append((trace, tiles))
    return frames


@pytest.mark.parametrize("policy", ["reuse_distance", "lru", "fifo"])
def test_cache_state_roundtrip_continues_identically(policy):
    frames = _frame_traces()
    full = TemporalReuseSimulator(16, policy=policy)
    full_samples = [full.observe_frame(t, x) for t, x in frames]

    head = TemporalReuseSimulator(16, policy=policy)
    for trace, tiles in frames[:2]:
        head.observe_frame(trace, tiles)
    tail = TemporalReuseSimulator(16, policy=policy)
    tail.import_state(head.export_state())
    tail_samples = [tail.observe_frame(t, x) for t, x in frames[2:]]

    assert tail.frames_observed == full.frames_observed
    for expect, got in zip(full_samples[2:], tail_samples):
        assert got.frame == expect.frame
        assert got.report == expect.report
        assert got.carried_hits == expect.carried_hits
        assert got.cumulative_accesses == expect.cumulative_accesses
        assert got.cumulative_hits == expect.cumulative_hits
    assert tail.cumulative_hit_rate == full.cumulative_hit_rate


def test_cache_state_import_validates_compatibility():
    sim = TemporalReuseSimulator(8, policy="lru")
    state = sim.export_state()
    with pytest.raises(ValidationError):
        TemporalReuseSimulator(8, policy="fifo").import_state(state)
    with pytest.raises(ValidationError):
        TemporalReuseSimulator(4, policy="lru").import_state(state)
    with pytest.raises(ValidationError):
        TemporalReuseSimulator(8, bytes_per_line=64, policy="lru").import_state(
            state
        )
    bad = replace(state, resident_ids=(1, 1))
    with pytest.raises(ValidationError):
        TemporalReuseSimulator(8, policy="lru").import_state(bad)


def test_export_preserves_eviction_order():
    """LRU recency order must survive a round trip."""
    sim = TemporalReuseSimulator(3, policy="lru")
    trace = np.array([1, 2, 3, 1])  # recency order after frame: 2, 3, 1
    sim.observe_frame(trace, np.zeros_like(trace))
    clone = TemporalReuseSimulator(3, policy="lru")
    clone.import_state(sim.export_state())
    # One new id must evict 2 (least recent), keeping 3 and 1 resident.
    sample = clone.observe_frame(
        np.array([9, 3, 1]), np.zeros(3, dtype=np.int64)
    )
    assert sample.report.hits == 2


def _key_fields(records):
    return [
        (
            r.frame,
            r.sim_seconds,
            r.hit_rate,
            r.cache.cumulative_hit_rate,
            r.cache.carried_hit_rate,
        )
        for r in records
    ]


def test_stream_checkpoint_replay_is_byte_identical():
    spec = CATALOG["bicycle"]
    bundle = build_scene(spec, detail=DETAIL)
    traj = CameraTrajectory.for_scene(
        spec, "orbit", n_frames=6, detail=DETAIL
    )

    uninterrupted = FrameStream(
        spec, traj, detail=DETAIL, keep_images=True, bundle=bundle
    )
    full = [uninterrupted.render_next() for _ in range(6)]

    original = FrameStream(
        spec, traj, detail=DETAIL, keep_images=True, bundle=bundle
    )
    for _ in range(3):
        original.render_next()
    ckpt = capture_checkpoint("client", original, detail=DETAIL)
    assert ckpt.next_frame == 3
    assert ckpt.scene == "bicycle"
    assert ckpt.resident_lines > 0

    recovered = FrameStream(
        spec, traj, detail=DETAIL, keep_images=True, bundle=bundle
    )
    restore_checkpoint(recovered, ckpt)
    tail = [recovered.render_next() for _ in range(3)]

    assert _key_fields(tail) == _key_fields(full[3:])
    for expect, got in zip(full[3:], tail):
        assert np.array_equal(expect.image, got.image)


def test_restore_rejects_wrong_scene():
    spec = CATALOG["bicycle"]
    traj = CameraTrajectory.for_scene(spec, "frozen", n_frames=2, detail=DETAIL)
    stream = FrameStream(spec, traj, detail=DETAIL)
    stream.render_next()
    ckpt = capture_checkpoint("client", stream, detail=DETAIL)

    other_spec = CATALOG["bonsai"]
    other = FrameStream(
        other_spec,
        CameraTrajectory.for_scene(other_spec, "frozen", n_frames=2, detail=DETAIL),
        detail=DETAIL,
    )
    with pytest.raises(ValidationError):
        restore_checkpoint(other, ckpt)


def test_restore_rejects_wrong_nominal_detail():
    spec = CATALOG["bicycle"]
    traj = CameraTrajectory.for_scene(spec, "frozen", n_frames=2, detail=DETAIL)
    stream = FrameStream(spec, traj, detail=DETAIL)
    stream.render_next()
    ckpt = capture_checkpoint("client", stream)
    assert ckpt.detail == DETAIL

    other = FrameStream(spec, traj, detail=0.5)
    with pytest.raises(ValidationError, match="detail"):
        restore_checkpoint(other, ckpt)


def test_seek_rejects_negative_frames():
    spec = CATALOG["bonsai"]
    traj = CameraTrajectory.for_scene(spec, "frozen", n_frames=2, detail=DETAIL)
    stream = FrameStream(spec, traj, detail=DETAIL)
    with pytest.raises(ValidationError):
        stream.seek(-1)
