"""Golden end-to-end serving regression: an exact committed snapshot.

A 2-session x 6-frame serve is snapshotted into
``tests/stream/golden_serve.json``: the ServeSummary scalars plus, per
frame, the simulated latency, cache counters, instance counts and a
SHA-256 of the rendered image bytes.  The serve must reproduce the
snapshot *exactly* — the serving pipeline is deterministic — so any
refactor that silently drifts images, latencies or cache behaviour
fails here first, with a per-field diff instead of a distant
downstream symptom.  The frames' pixels are also checked against the
scalar oracle loops, scene by scene, in
``tests/render/test_backend_parity.py`` (``test_serving_frame_fp16``).

When a change *intentionally* alters serving output, regenerate with:

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python \\
        tests/stream/test_golden_regression.py

and commit the updated fixture alongside the change that explains it.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.scenes.catalog import CATALOG
from repro.stream import (
    CameraTrajectory,
    ContentCacheConfig,
    StreamServer,
    StreamSession,
    economics_to_dict,
    streaming_config,
)

pytestmark = pytest.mark.golden

FIXTURE = Path(__file__).parent / "golden_serve.json"

DETAIL = 0.25
N_FRAMES = 6


def _sessions() -> list[StreamSession]:
    config = streaming_config()
    heavy, light = CATALOG["bicycle"], CATALOG["female_4"]
    return [
        StreamSession(
            "golden-orbit",
            "bicycle",
            CameraTrajectory.for_scene(
                heavy, "orbit", n_frames=N_FRAMES, detail=DETAIL
            ),
            detail=DETAIL,
            keep_images=True,
            config=config,
        ),
        StreamSession(
            "golden-jitter",
            "female_4",
            CameraTrajectory.for_scene(
                light, "head_jitter", n_frames=N_FRAMES, seed=5, detail=DETAIL
            ),
            detail=DETAIL,
            keep_images=True,
            config=config,
        ),
    ]


def _image_hash(image) -> str:
    digest = hashlib.sha256()
    digest.update(str(image.shape).encode())
    digest.update(str(image.dtype).encode())
    digest.update(image.tobytes())
    return digest.hexdigest()


def _snapshot() -> dict:
    """Serve the golden scenario and flatten it to JSON-safe values."""
    with StreamServer(workers=0) as server:
        results, summary = server.serve_timed(_sessions())
    return {
        "summary": {
            "workers": summary.workers,
            "sessions": summary.sessions,
            "total_frames": summary.total_frames,
            "sim_makespan_seconds": summary.sim_makespan_seconds,
            "recoveries": summary.recoveries,
            "migrations": summary.migrations,
        },
        "sessions": {
            r.session_id: [
                {
                    "frame": f.frame,
                    "n_visible": f.n_visible,
                    "n_instances": f.n_instances,
                    "sim_seconds": f.sim_seconds,
                    "hit_rate": f.hit_rate,
                    "cumulative_hit_rate": f.cache.cumulative_hit_rate,
                    "carried_hit_rate": f.cache.carried_hit_rate,
                    "binning_reuse": f.binning.reuse_fraction,
                    "detail": f.detail,
                    "image_sha256": _image_hash(f.image),
                }
                for f in r.report.frames
            ]
            for r in results
        },
    }


def _content_sessions() -> list[StreamSession]:
    """Two viewers on the identical orbit — the dedup-path scenario."""
    config = streaming_config()
    spec = CATALOG["bicycle"]
    trajectory = CameraTrajectory.for_scene(
        spec, "orbit", n_frames=N_FRAMES, detail=DETAIL
    )
    return [
        StreamSession(
            f"golden-viewer-{tag}",
            "bicycle",
            trajectory,
            detail=DETAIL,
            keep_images=True,
            config=config,
        )
        for tag in ("a", "b")
    ]


def _content_snapshot() -> dict:
    """Serve two co-located viewers through the content cache and pin
    the dedup path: which tier served every frame, the exact per-tier
    hit/miss/byte counters, and the served images' hashes (which must
    equal the renderer's)."""
    with StreamServer(workers=0, content_cache=ContentCacheConfig()) as server:
        results = server.serve(_content_sessions())
        economics = economics_to_dict(server.content_totals)
    return {
        "economics": economics,
        "sessions": {
            r.session_id: [
                {
                    "frame": f.frame,
                    "served_from": f.served_from,
                    "sim_seconds": f.sim_seconds,
                    "hit_rate": f.hit_rate,
                    "cumulative_hit_rate": f.cache.cumulative_hit_rate,
                    "image_sha256": _image_hash(f.image),
                }
                for f in r.report.frames
            ]
            for r in results
        },
    }


def test_serve_matches_golden_snapshot():
    assert FIXTURE.exists(), (
        f"golden fixture {FIXTURE} is missing; regenerate it with "
        "REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python "
        "tests/stream/test_golden_regression.py"
    )
    golden = json.loads(FIXTURE.read_text())
    snapshot = _snapshot()
    assert snapshot["summary"] == golden["summary"], (
        "serve summary drifted from the golden snapshot; "
        "if intentional, regenerate the fixture (see module docstring)"
    )
    assert set(snapshot["sessions"]) == set(golden["sessions"])
    for session_id, frames in snapshot["sessions"].items():
        for mine, ref in zip(frames, golden["sessions"][session_id]):
            assert mine == ref, (
                f"{session_id} frame {mine['frame']} drifted "
                f"from the golden snapshot: {mine} != {ref}"
            )


def test_content_dedup_matches_golden_snapshot():
    """The dedup serve is pinned end to end: tier provenance, per-tier
    economics counters, timing and image hashes must all replay the
    committed snapshot exactly."""
    golden = json.loads(FIXTURE.read_text())
    assert "content" in golden, (
        f"golden fixture {FIXTURE} predates the content-cache section; "
        "regenerate it (see module docstring)"
    )
    snapshot = _content_snapshot()
    assert snapshot["economics"] == golden["content"]["economics"], (
        "content-cache economics drifted from the golden "
        "snapshot; if intentional, regenerate the fixture"
    )
    assert set(snapshot["sessions"]) == set(golden["content"]["sessions"])
    for session_id, frames in snapshot["sessions"].items():
        for mine, ref in zip(frames, golden["content"]["sessions"][session_id]):
            assert mine == ref, (
                f"{session_id} frame {mine['frame']} drifted "
                f"from the golden content snapshot: {mine} != {ref}"
            )
    # The dedup-served viewer must re-emit the renderer's exact bytes.
    viewer_a, viewer_b = (
        snapshot["sessions"][f"golden-viewer-{tag}"] for tag in ("a", "b")
    )
    for fa, fb in zip(viewer_a, viewer_b):
        assert fb["served_from"] == "worker"
        assert fa["image_sha256"] == fb["image_sha256"]


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    snapshot = _snapshot()
    snapshot["content"] = _content_snapshot()
    FIXTURE.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {FIXTURE} ({snapshot['summary']['total_frames']} frames)")


if __name__ == "__main__":  # pragma: no cover
    if os.environ.get("REPRO_GOLDEN_REGEN") != "1":
        raise SystemExit(
            "set REPRO_GOLDEN_REGEN=1 to confirm fixture regeneration"
        )
    _regenerate()
