"""Content-addressed render cache: tier mechanics, key derivation,
canonical poses, cross-session dedup byte-identity, per-tier economics,
the chaos matrix (crash / migration at every frame x cache
temperature), and the fleet tier.

The load-bearing invariant throughout: the content cache changes host
wall-clock only, never simulated physics.  A dedup-served frame must
carry the same image, sim_seconds, temporal-cache counters, detail and
QoS verdict as a fresh render — so every serve here is compared
against a cache-less (or uninterrupted) baseline with the same
evidence tuple the crash-chaos suite uses.  ``served_from`` is
provenance, not physics: it may legitimately differ between a baseline
run and a crash-replayed run (replay re-hits surviving tiers), so it
is asserted only on deterministic single-process serves.
"""

import numpy as np
import pytest

from repro.core.reuse_cache import CacheEconomics, CacheReport
from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream import (
    TIER_LEVELS,
    BundleIntern,
    CachedFrame,
    CacheTier,
    CameraTrajectory,
    ContentCacheConfig,
    EdgeFleet,
    SessionContentView,
    StreamServer,
    StreamSession,
    canonical_camera,
    economics_to_dict,
    frame_content_key,
    merge_economics,
)
from repro.stream.content_cache import make_tier_chain, pose_cell, render_mode_key

DETAIL = 0.25
N_FRAMES = 6


# ----------------------------------------------------------------------
# Synthetic frames and tier-chain helpers
# ----------------------------------------------------------------------
def _frame(key, compute_seconds=1.0, nbytes=None):
    frame = CachedFrame(
        key=key,
        image=np.zeros((4, 4, 3), dtype=np.float32),
        trace=np.zeros(8, dtype=np.int64),
        tiles=np.zeros(8, dtype=np.int64),
        compute_seconds=compute_seconds,
        n_visible=1,
        n_instances=1,
        extra_flops=0.0,
    )
    if nbytes is not None:
        frame.nbytes = nbytes
    return frame


def test_config_validation():
    with pytest.raises(ValidationError):
        ContentCacheConfig(pose_quant=-0.1)
    with pytest.raises(ValidationError):
        ContentCacheConfig(worker_bytes=-1)
    cfg = ContentCacheConfig(session_bytes=1, worker_bytes=2, node_bytes=3,
                             fleet_bytes=4)
    assert [cfg.tier_bytes(level) for level in TIER_LEVELS] == [1, 2, 3, 4]


def test_tier_rejects_unknown_level():
    with pytest.raises(ValidationError):
        CacheTier("rack", 1024)


def test_tier_put_get_and_oversize_rejection():
    tier = CacheTier("worker", 100)
    assert tier.get("a") is None
    small = _frame("a", nbytes=40)
    tier.put(small)
    assert "a" in tier and len(tier) == 1 and tier.used_bytes == 40
    assert tier.get("a") is small
    # A frame larger than the whole tier is never stored.
    tier.put(_frame("big", nbytes=200))
    assert "big" not in tier and tier.used_bytes == 40
    # Re-inserting an existing key refreshes recency, not bytes.
    tier.put(_frame("a", nbytes=40))
    assert tier.used_bytes == 40 and len(tier) == 1


def test_eviction_is_greedy_dual_size():
    """Score = (1 + hits) * compute_seconds: cheap unpopular frames go
    first; ties break least-recently-used."""
    tier = CacheTier("node", 200)
    tier.put(_frame("cheap", compute_seconds=1.0, nbytes=100))
    tier.put(_frame("costly", compute_seconds=10.0, nbytes=100))
    tier.put(_frame("new", compute_seconds=5.0, nbytes=100))
    assert tier.evictions == 1
    assert "cheap" not in tier and "costly" in tier and "new" in tier

    tier = CacheTier("node", 200)
    tier.put(_frame("a", compute_seconds=1.0, nbytes=100))
    tier.put(_frame("b", compute_seconds=2.0, nbytes=100))
    tier.get("a")  # a: score (1+1)*1 == 2 ties b's (1+0)*2 but is fresher
    tier.put(_frame("c", compute_seconds=5.0, nbytes=100))
    assert "b" not in tier and "a" in tier and "c" in tier
    tier.clear()
    assert len(tier) == 0 and tier.used_bytes == 0 and tier.evictions == 0


def test_make_tier_chain_links_innermost_to_parent():
    cfg = ContentCacheConfig()
    fleet = CacheTier("fleet", cfg.fleet_bytes)
    session = make_tier_chain(cfg, levels=("session", "worker", "node"),
                              parent=fleet)
    levels = []
    tier = session
    while tier is not None:
        levels.append(tier.level)
        tier = tier.parent
    assert levels == list(TIER_LEVELS)


def test_view_write_through_fill_down_and_economics():
    """A miss write-through populates every tier up the chain; a peer
    session's hit fills back down into its own lower tiers — and every
    access / hit / miss / byte is attributed to the session that
    incurred it."""
    cfg = ContentCacheConfig(pose_quant=0.0)
    node = make_tier_chain(cfg, levels=("node",))
    worker = make_tier_chain(cfg, levels=("worker",), parent=node)
    first = SessionContentView(cfg, make_tier_chain(cfg, ("session",), worker))
    second = SessionContentView(cfg, make_tier_chain(cfg, ("session",), worker))

    frame = _frame("shared", nbytes=50)
    assert first.lookup("shared") is None
    first.insert(frame)
    assert "shared" in first.tier and "shared" in worker and "shared" in node

    hit = second.lookup("shared")
    assert hit == (frame, "worker")
    assert "shared" in second.tier  # filled down
    assert second.lookup("shared") == (frame, "session")

    econ_first = first.drain()
    assert econ_first["session"] == CacheEconomics(1, 0, 1, 50.0, 50.0)
    assert econ_first["worker"] == CacheEconomics(1, 0, 1, 50.0, 50.0)
    assert econ_first["node"] == CacheEconomics(1, 0, 1, 50.0, 50.0)
    econ_second = second.drain()
    assert econ_second["session"] == CacheEconomics(2, 1, 1, 50.0, 100.0)
    assert econ_second["worker"] == CacheEconomics(1, 1, 0, 0.0, 50.0)
    assert "node" not in econ_second  # the walk stopped at the hit
    assert second.drain() == {}  # drain is destructive


def test_merge_and_serialize_economics():
    a = {"worker": CacheEconomics(2, 1, 1, 10.0, 20.0)}
    b = {"worker": CacheEconomics(1, 1, 0, 0.0, 10.0),
         "session": CacheEconomics(1, 0, 1, 5.0, 5.0)}
    merged = merge_economics(a, b)
    assert merged is a
    assert merged["worker"] == CacheEconomics(3, 2, 1, 10.0, 30.0)
    assert merged["worker"].hit_rate == pytest.approx(2 / 3)
    assert merged["worker"].traffic_reduction == pytest.approx(2 / 3)
    as_dict = economics_to_dict(merged)
    assert list(as_dict) == ["session", "worker"]  # tier order
    assert as_dict["worker"]["hits"] == 2


def test_cache_report_economics_unification():
    """CacheReport's ratios are served by the same CacheEconomics
    arithmetic the content cache reports — one shape, bit-identical."""
    report = CacheReport(accesses=10, hits=7, misses=3, capacity_lines=4,
                         bytes_per_line=64)
    econ = report.economics
    assert econ == CacheEconomics(10, 7, 3, 3 * 64, 10 * 64)
    assert report.hit_rate == econ.hit_rate
    assert report.traffic_reduction == econ.traffic_reduction
    assert CacheEconomics().hit_rate == 0.0
    assert CacheEconomics().traffic_reduction == 0.0
    d = econ.to_dict()
    assert d["accesses"] == 10 and d["hit_rate"] == econ.hit_rate


# ----------------------------------------------------------------------
# Canonical poses and content keys
# ----------------------------------------------------------------------
def _camera(eye):
    from repro.gaussians.camera import Camera

    return Camera.look_at(
        np.asarray(eye, dtype=np.float64), np.zeros(3), width=64, height=48
    )


def test_canonical_camera_exact_mode_is_identity():
    camera = _camera([1.0, 2.0, 3.0])
    assert canonical_camera(camera, 0.0) is camera


def test_canonical_camera_snaps_to_cell_center():
    q = 0.5
    camera = _camera([1.13, -0.96, 2.71])
    snapped = canonical_camera(camera, q)
    cell = np.floor(camera.position / q)
    assert np.allclose(snapped.position, (cell + 0.5) * q)
    # Rebuilt via look_at: still a valid orthonormal rotation.
    assert np.allclose(snapped.rotation @ snapped.rotation.T, np.eye(3))
    assert (snapped.width, snapped.height) == (camera.width, camera.height)
    # Two eyes in the same cell canonicalize to the *identical* pose.
    twin = canonical_camera(_camera([1.02, -0.51, 2.99]), q)
    assert np.array_equal(snapped.rotation, twin.rotation)
    assert np.array_equal(snapped.translation, twin.translation)


def test_pose_cell_requires_quantization():
    with pytest.raises(ValidationError):
        pose_cell(_camera([0.0, 0.0, 1.0]), 0.0)
    assert pose_cell(_camera([1.2, -0.3, 0.4]), 0.5) == (2, -1, 0)


def test_frame_content_key_sensitivity():
    """The key must change with anything that changes pixels or cycles
    — and with nothing else."""
    spec = CATALOG["bicycle"]
    camera = _camera([1.0, 2.0, 3.0])
    mode = render_mode_key(True, 1, False, False)
    base = frame_content_key(spec, camera, 0, DETAIL, mode, 0.0)
    assert base == frame_content_key(spec, camera, 0, DETAIL, mode, 0.0)
    assert base != frame_content_key(CATALOG["bonsai"], camera, 0, DETAIL,
                                     mode, 0.0)
    assert base != frame_content_key(spec, camera, 1, DETAIL, mode, 0.0)
    assert base != frame_content_key(spec, camera, 0, 0.5, mode, 0.0)
    for other_mode in [
        render_mode_key(False, 1, False, False),
        render_mode_key(True, 4, False, False),
        render_mode_key(True, 1, True, False),
        render_mode_key(True, 1, False, True),
    ]:
        assert base != frame_content_key(spec, camera, 0, DETAIL, other_mode,
                                         0.0)
    # Exact mode: any eye movement changes the key.
    assert base != frame_content_key(spec, _camera([1.0, 2.0, 3.0001]), 0,
                                     DETAIL, mode, 0.0)
    # Quantized mode: same cell, same key; different cell, new key.
    q = 0.5
    in_cell = frame_content_key(spec, _camera([1.13, 2.13, 3.13]), 0, DETAIL,
                                mode, q)
    assert in_cell == frame_content_key(spec, _camera([1.24, 2.01, 3.18]), 0,
                                        DETAIL, mode, q)
    assert in_cell != frame_content_key(spec, _camera([1.63, 2.13, 3.13]), 0,
                                        DETAIL, mode, q)


def test_bundle_intern_shares_one_build():
    intern = BundleIntern()
    first = intern.build(CATALOG["female_4"], detail=DETAIL)
    again = intern.build("female_4", detail=DETAIL)
    assert again is first
    assert (intern.hits, intern.misses) == (1, 1)
    other = intern.build("female_4", detail=0.5)
    assert other is not first and intern.misses == 2
    intern.clear()
    assert intern.build("female_4", detail=DETAIL) is not first


# ----------------------------------------------------------------------
# Serving-path dedup: byte identity, economics, transparency
# ----------------------------------------------------------------------
def _viewers(n_frames=N_FRAMES, count=2):
    """Co-located viewers on the identical orbit — the dedup case."""
    spec = CATALOG["bicycle"]
    traj = CameraTrajectory.for_scene(spec, "orbit", n_frames=n_frames,
                                      detail=DETAIL)
    return [
        StreamSession(f"viewer-{tag}", "bicycle", traj, detail=DETAIL,
                      keep_images=True)
        for tag in "abcd"[:count]
    ]


def _evidence(report):
    """What dedup must preserve bit-for-bit (binning stats excluded:
    a served frame reports a synthetic full-reuse BinningStats)."""
    return [
        (
            f.frame,
            f.sim_seconds,
            f.hit_rate,
            f.cache.cumulative_hit_rate,
            f.cache.carried_hit_rate,
            f.detail,
            None if f.qos is None else (f.qos.met, f.qos.margin_seconds),
        )
        for f in report.frames
    ]


@pytest.fixture(scope="module")
def twin_baseline():
    """The twin serve without any content cache."""
    with StreamServer(workers=0) as server:
        return server.serve(_viewers())


def test_dedup_serves_identical_frames_and_counts_them(twin_baseline):
    """The second viewer is served from the worker tier: identical
    image, identical simulated timing, and the per-tier counters say
    exactly where every frame came from."""
    with StreamServer(workers=0, content_cache=ContentCacheConfig()) as server:
        results = server.serve(_viewers())
        totals = dict(server.content_totals)
    viewer_a, viewer_b = results
    assert [f.served_from for f in viewer_a.report.frames] == [None] * N_FRAMES
    assert [f.served_from for f in viewer_b.report.frames] == ["worker"] * N_FRAMES
    for fa, fb in zip(viewer_a.report.frames, viewer_b.report.frames):
        assert np.array_equal(fa.image, fb.image)
        assert fa.sim_seconds == fb.sim_seconds

    # The cache is invisible to simulated physics: both viewers match
    # the cache-less baseline exactly.
    for ref, got in zip(twin_baseline, results):
        assert _evidence(ref.report) == _evidence(got.report)
        for fr, fg in zip(ref.report.frames, got.report.frames):
            assert np.array_equal(fr.image, fg.image)

    # Exact economics: viewer-a misses everywhere (6 frames x 3 tiers),
    # viewer-b misses its session tier and hits the shared worker tier,
    # so the node tier never sees its lookups.
    assert {k: (v.accesses, v.hits, v.misses) for k, v in totals.items()} == {
        "session": (12, 0, 12),
        "worker": (12, 6, 6),
        "node": (6, 0, 6),
    }
    assert totals["worker"].hit_rate == 0.5
    assert 0.0 < totals["worker"].miss_bytes < totals["worker"].total_bytes
    assert totals["node"].hit_rate == 0.0


@pytest.mark.parametrize("viewers", [1, 2, 4])
def test_identical_viewers_render_each_frame_once(viewers, exact_renders):
    """The dedup floor, counted instead of timed: V viewers on one
    8-frame orbit make V*8 worker-tier lookups with (V-1)*8 hits, and
    the exact pipeline renders 8 frames with the cache on against V*8
    with it off."""
    renders = {}
    for cached in (False, True):
        exact_renders.clear()
        content = ContentCacheConfig() if cached else None
        with StreamServer(workers=0, content_cache=content) as server:
            server.serve(_viewers(n_frames=8, count=viewers))
            totals = dict(server.content_totals)
        renders[cached] = len(exact_renders)
    worker = totals["worker"]  # the cache-on serve ran last
    assert (worker.accesses, worker.hits) == (viewers * 8, (viewers - 1) * 8)
    assert renders == {False: viewers * 8, True: 8}


def test_tick_results_carry_economics_that_sum_to_totals():
    sessions = _viewers(n_frames=3)
    with StreamServer(workers=0, content_cache=ContentCacheConfig()) as server:
        server.begin(sessions)
        folded = {}
        saw_tick_economics = False
        while server.n_active:
            tick = server.step()
            if tick.content:
                saw_tick_economics = True
            merge_economics(folded, tick.content)
        server.finish()
        assert saw_tick_economics
        assert folded == server.content_totals


def test_served_from_appears_only_on_dedup_frames_in_to_dict():
    with StreamServer(workers=0, content_cache=ContentCacheConfig()) as server:
        viewer_a, viewer_b = server.serve(_viewers(n_frames=2))
    for frame_dict in viewer_a.report.to_dict()["frames"]:
        assert "served_from" not in frame_dict
    for frame_dict in viewer_b.report.to_dict()["frames"]:
        assert frame_dict["served_from"] == "worker"


def test_pose_quantization_dedups_within_a_session():
    """With a lattice pitch wider than the whole orbit, every frame of
    a static scene shares one content address: frame 0 renders, the
    rest are served from the session tier with frame 0's image."""
    quant = 1e6
    session = _viewers(n_frames=4)[0]
    # Predict the dedup pattern from the lattice itself: a frame is
    # served from cache iff its eye's cell was already rendered.
    seen: dict[tuple, int] = {}
    expected = []
    for k in range(4):
        cell = pose_cell(session.trajectory.camera_at(k), quant)
        expected.append("session" if cell in seen else None)
        seen.setdefault(cell, k)
    assert "session" in expected  # the orbit revisits at least one cell

    cfg = ContentCacheConfig(pose_quant=quant)
    with StreamServer(workers=0, content_cache=cfg) as server:
        (result,) = server.serve([session])
        totals = dict(server.content_totals)
    frames = result.report.frames
    assert [f.served_from for f in frames] == expected
    for k, frame in enumerate(frames):
        cell = pose_cell(session.trajectory.camera_at(k), quant)
        assert np.array_equal(frame.image, frames[seen[cell]].image)
    hits = sum(1 for tag in expected if tag == "session")
    assert (totals["session"].accesses, totals["session"].hits) == (4, hits)


def test_subprocess_workers_dedup_within_their_tier():
    """Process-pool workers carry session+worker tiers on their side of
    the boundary (no shared node tier), and still match the in-process
    serve byte for byte."""
    sessions = _viewers(n_frames=3)
    with StreamServer(workers=0, content_cache=ContentCacheConfig()) as server:
        baseline = server.serve(sessions)
    with StreamServer(workers=1, content_cache=ContentCacheConfig()) as server:
        remote = server.serve(sessions)
        totals = dict(server.content_totals)
    for ref, got in zip(baseline, remote):
        assert _evidence(ref.report) == _evidence(got.report)
    assert totals["worker"].hits == 3
    assert "node" not in totals  # the chain ends at the process boundary


# ----------------------------------------------------------------------
# Chaos matrix: crash / migration at every frame x cache temperature
# ----------------------------------------------------------------------
CHAOS_FRAMES = 4
TEMPERATURES = ("warm", "cold", "mid_eviction")


def _content_cfg(temperature: str) -> ContentCacheConfig:
    if temperature == "warm":
        return ContentCacheConfig()
    if temperature == "cold":
        # Zero-capacity tiers: every put is rejected, every lookup
        # misses — the serve must not care.
        return ContentCacheConfig(session_bytes=0, worker_bytes=0,
                                  node_bytes=0, fleet_bytes=0)
    # Room for roughly two frames per tier: inserts evict mid-serve.
    return ContentCacheConfig(session_bytes=600_000, worker_bytes=600_000,
                              node_bytes=600_000, fleet_bytes=600_000)


@pytest.fixture(scope="module")
def chaos_content_baselines():
    """Uninterrupted single-process twin serves, one per temperature."""
    out = {}
    for temperature in TEMPERATURES:
        with StreamServer(
            workers=0, content_cache=_content_cfg(temperature)
        ) as server:
            out[temperature] = server.serve(_viewers(CHAOS_FRAMES))
    return out


def test_cache_temperature_is_invisible_to_physics(chaos_content_baselines):
    """Warm, cold and thrashing caches all serve the same bytes as no
    cache at all — and the thrashing configuration really evicts."""
    with StreamServer(workers=0) as server:
        reference = {
            r.session_id: r.report
            for r in server.serve(_viewers(CHAOS_FRAMES))
        }
    for temperature in TEMPERATURES:
        for result in chaos_content_baselines[temperature]:
            ref = reference[result.session_id]
            assert _evidence(result.report) == _evidence(ref)
            for fr, fg in zip(ref.frames, result.report.frames):
                assert np.array_equal(fr.image, fg.image)
    with StreamServer(
        workers=0, content_cache=_content_cfg("mid_eviction")
    ) as server:
        server.serve(_viewers(CHAOS_FRAMES))
        assert server._node_tier.evictions > 0


@pytest.mark.chaos
@pytest.mark.parametrize("crash_tick", range(CHAOS_FRAMES))
@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_chaos_crash_replay_of_dedup_served_sessions(
    crash_tick, temperature, chaos_content_baselines
):
    """Kill every worker at every frame index of a dedup-served twin
    stream, at every cache temperature: recovery replays images, timing
    and cache counters byte for byte.  The crash loses worker and
    session tiers (the node tier survives), so replayed frames may be
    re-served from different tiers — the physics must not notice."""
    injector = lambda tick, w: tick == crash_tick  # noqa: E731 - all workers
    with StreamServer(
        workers=2,
        local=True,
        content_cache=_content_cfg(temperature),
        fault_injector=injector,
        max_respawns=4,
    ) as server:
        recovered = server.serve(_viewers(CHAOS_FRAMES))
        assert server.recoveries >= 1
    for before, after in zip(chaos_content_baselines[temperature], recovered):
        assert _evidence(before.report) == _evidence(after.report)
        assert before.report.detail_trace == after.report.detail_trace
        for fb, fa in zip(before.report.frames, after.report.frames):
            assert np.array_equal(fb.image, fa.image)


@pytest.mark.chaos
@pytest.mark.parametrize("migrate_tick", range(CHAOS_FRAMES))
@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_chaos_migration_of_dedup_served_session(
    migrate_tick, temperature, chaos_content_baselines
):
    """Extract the dedup-served viewer at every frame boundary and
    resume it on a second server whose tiers are stone cold: the
    combined stream must equal the uninterrupted baseline at every
    cache temperature."""
    cfg = _content_cfg(temperature)
    src = StreamServer(workers=0, content_cache=cfg)
    dst = StreamServer(workers=0, content_cache=cfg)
    try:
        src.begin(_viewers(CHAOS_FRAMES))
        for _ in range(migrate_tick):
            src.step()
        moved, checkpoint, report = src.extract_session("viewer-b")
        assert report.n_frames == migrate_tick
        dst.begin([])
        dst.inject_session(moved, checkpoint, report)
        while src.n_active:
            src.step()
        while dst.n_active:
            dst.step()
        results = {r.session_id: r for r in src.finish() + dst.finish()}
    finally:
        src.close()
        dst.close()
    for before in chaos_content_baselines[temperature]:
        after = results[before.session_id]
        assert _evidence(before.report) == _evidence(after.report)
        for fb, fa in zip(before.report.frames, after.report.frames):
            assert np.array_equal(fb.image, fa.image)


# ----------------------------------------------------------------------
# Fleet tier
# ----------------------------------------------------------------------
@pytest.mark.fleet
@pytest.mark.parametrize("viewers", [2, 4])
def test_fleet_tier_dedups_across_nodes(viewers):
    """Viewers split across two nodes by the least-loaded router: the
    second node's lookups miss session/worker/node and hit the fleet
    tier (the >= 1 fleet-hit floor), and the shared bundle intern
    builds the scene once."""
    sessions = _viewers(n_frames=8, count=viewers)
    with StreamServer(workers=0) as server:
        baseline = {r.session_id: r.report for r in server.serve(sessions)}
    with EdgeFleet(
        nodes=2,
        node_capacity=viewers // 2,
        router="least",
        migration=False,
        content_cache=ContentCacheConfig(),
    ) as fleet:
        result = fleet.serve_sessions(sessions)
    assert result.content["fleet"].hits >= 1
    assert result.content["fleet"].accesses > 0
    assert result.bundle_intern_hits >= 1
    assert result.bundle_intern_misses >= 1
    served_from = {
        f.served_from
        for r in result.results
        for f in r.report.frames
        if f.served_from is not None
    }
    assert "fleet" in served_from
    for r in result.results:
        assert _evidence(r.report) == _evidence(baseline[r.session_id])
        for fb, fa in zip(baseline[r.session_id].frames, r.report.frames):
            assert np.array_equal(fb.image, fa.image)
