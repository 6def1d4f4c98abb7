"""Scheduler: placement, admission control, estimation, rebalancing."""

import pytest

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream import (
    CameraTrajectory,
    LoadAwareScheduler,
    RoundRobinScheduler,
    StreamServer,
    StreamSession,
    make_scheduler,
    static_frame_estimate,
)
from repro.stream import scheduler as scheduler_module
from repro.stream.qos import detail_key

DETAIL = 0.25


def _session(session_id, scene, n_frames, seed=0):
    spec = CATALOG[scene]
    return StreamSession(
        session_id,
        scene,
        CameraTrajectory.for_scene(
            spec, "head_jitter", n_frames=n_frames, seed=seed, detail=DETAIL
        ),
        detail=DETAIL,
    )


def _skewed_mix():
    """Heavy/light interleaved so round-robin stacks the heavies."""
    return [
        _session("heavy-0", "bicycle", 12, seed=0),
        _session("light-0", "female_4", 4, seed=1),
        _session("heavy-1", "bicycle", 12, seed=2),
        _session("light-1", "female_4", 4, seed=3),
    ]


def test_static_estimate_orders_scenes_by_size():
    assert static_frame_estimate("bicycle") > static_frame_estimate("female_4")
    assert static_frame_estimate("bicycle", 0.5) < static_frame_estimate(
        "bicycle", 1.0
    )


def test_round_robin_stacks_heavies_load_aware_spreads_them():
    sessions = _skewed_mix()
    rr = RoundRobinScheduler(sessions, workers=2)
    assert rr.worker_of("heavy-0") == rr.worker_of("heavy-1") == 0
    load = LoadAwareScheduler(sessions, workers=2)
    assert load.worker_of("heavy-0") != load.worker_of("heavy-1")


def test_load_aware_estimated_makespan_beats_round_robin():
    sessions = _skewed_mix()
    rr = RoundRobinScheduler(sessions, workers=2)
    load = LoadAwareScheduler(sessions, workers=2)
    assert max(load.remaining_cost().values()) < max(
        rr.remaining_cost().values()
    )


def test_admission_control_queues_beyond_max_inflight():
    sessions = _skewed_mix()
    scheduler = LoadAwareScheduler(sessions, workers=2, max_inflight=2)
    assert scheduler.inflight == 2
    assert scheduler.n_queued == 2
    assignments = scheduler.tick_assignments()
    assert sum(len(v) for v in assignments.values()) == 2
    # Finishing one admitted session admits exactly one queued session.
    running = next(iter(assignments.values()))[0].session_id
    admitted = scheduler.mark_done(running)
    assert len(admitted) == 1
    assert scheduler.inflight == 2
    assert scheduler.n_queued == 1


def test_completion_drops_session_from_ticks():
    sessions = _skewed_mix()
    scheduler = RoundRobinScheduler(sessions, workers=2)
    scheduler.mark_done("heavy-0")
    ids = {
        s.session_id
        for batch in scheduler.tick_assignments().values()
        for s in batch
    }
    assert "heavy-0" not in ids
    assert len(ids) == 3


def test_observation_replaces_static_estimate():
    sessions = _skewed_mix()
    scheduler = LoadAwareScheduler(sessions, workers=2)
    scheduler.observe_frame("heavy-0", 0.125)
    assert scheduler.frame_estimate(sessions[0]) == 0.125
    # Unobserved scenes are calibrated into the observed unit system.
    light = scheduler.frame_estimate(sessions[1])
    proxy_ratio = static_frame_estimate("female_4", DETAIL) / (
        static_frame_estimate("bicycle", DETAIL)
    )
    assert light == pytest.approx(0.125 * proxy_ratio)


def test_estimates_are_keyed_by_scene_and_detail():
    """An adaptive session's low-detail frames must not poison the
    estimate used for a full-detail session of the same scene."""
    sessions = _skewed_mix()
    scheduler = LoadAwareScheduler(sessions, workers=2)
    # heavy-0 adapted down to detail 0.1 and got cheap frames...
    scheduler.observe_frame("heavy-0", 0.001, detail=0.1)
    # ...heavy-1 still renders at the nominal detail and is observed
    # expensive there.
    scheduler.observe_frame("heavy-1", 0.125, detail=DETAIL)
    cheap = scheduler.frame_estimate(sessions[0])  # follows its rung
    nominal = scheduler.frame_estimate(sessions[2])
    assert cheap == 0.001
    assert nominal == 0.125
    # Explicit detail lookups hit their own keys.
    assert scheduler.frame_estimate(sessions[0], detail=DETAIL) == 0.125
    assert scheduler.frame_estimate(sessions[2], detail=0.1) == 0.001


def test_nearest_detail_fallback_rescales_by_proxy_ratio():
    sessions = _skewed_mix()
    scheduler = LoadAwareScheduler(sessions, workers=2)
    scheduler.observe_frame("heavy-0", 0.1, detail=0.2)
    # 0.25 was never observed; the 0.2 observation is the nearest rung
    # and is rescaled by the static proxy ratio (linear in detail).
    est = scheduler.frame_estimate(sessions[0], detail=0.25)
    ratio = static_frame_estimate("bicycle", 0.25) / static_frame_estimate(
        "bicycle", 0.2
    )
    assert est == pytest.approx(0.1 * ratio)


def test_mixed_detail_placement_uses_per_detail_costs():
    """Two same-scene sessions at different details are not the same
    workload: remaining-cost placement must spread a heavy pair whose
    third member is cheap at its low rung."""
    spec = CATALOG["bicycle"]

    def session(session_id, detail, n_frames):
        return StreamSession(
            session_id,
            "bicycle",
            CameraTrajectory.for_scene(
                spec, "head_jitter", n_frames=n_frames, seed=1, detail=detail
            ),
            detail=detail,
        )

    sessions = [
        session("full-a", 1.0, 8),
        session("full-b", 1.0, 8),
        session("tiny", 0.1, 8),
    ]
    scheduler = LoadAwareScheduler(sessions, workers=2)
    # Per-detail proxies already separate the two full sessions.
    assert scheduler.worker_of("full-a") != scheduler.worker_of("full-b")
    # The tiny session rides with one full session, not on a third
    # imaginary worker: its per-rung cost is a fraction of a full one.
    assert scheduler.frame_estimate(sessions[2]) < scheduler.frame_estimate(
        sessions[0]
    )


def test_rebalance_fires_on_misestimated_load():
    sessions = [
        _session("light-0", "female_4", 4, seed=1),
        _session("heavy-0", "bicycle", 12, seed=0),
        _session("heavy-1", "bicycle", 12, seed=2),
    ]
    # Lie: the heavy scene is estimated cheap, so both heavies land on
    # the same worker behind the "expensive" light session.
    lying = lambda scene, detail: 1.0 if scene == "bicycle" else 1000.0  # noqa: E731
    scheduler = LoadAwareScheduler(
        sessions, workers=2, estimator=lying, rebalance_threshold=0.25
    )
    assert scheduler.worker_of("heavy-0") == scheduler.worker_of("heavy-1")
    src = scheduler.worker_of("heavy-0")
    # Reality arrives: heavy frames are 100x the lights.
    scheduler.observe_frame("heavy-0", 1.0)
    scheduler.observe_frame("light-0", 0.01)
    migrations = scheduler.rebalance()
    assert len(migrations) == 1
    assert migrations[0].src == src
    assert scheduler.worker_of(migrations[0].session_id) == migrations[0].dst
    assert scheduler.migrations == migrations


def test_rebalance_quiet_when_balanced():
    sessions = _skewed_mix()
    scheduler = LoadAwareScheduler(sessions, workers=2)
    assert scheduler.rebalance() == []


def test_validation_errors():
    sessions = _skewed_mix()
    with pytest.raises(ValidationError):
        make_scheduler("bogus", sessions, 2)
    with pytest.raises(ValidationError):
        make_scheduler("load", sessions, 2, max_inflight=0)
    with pytest.raises(ValidationError):
        LoadAwareScheduler(sessions, workers=2, rebalance_threshold=0.0)


@pytest.mark.parametrize(
    "heavy_frames, light_frames, detail, min_speedup",
    [
        (6, 2, DETAIL, 1.0),
        # The skewed-mix acceptance floor: load-aware placement beats
        # round-robin makespan by >= 1.3x (measured 1.74x).
        (12, 4, 0.5, 1.3),
    ],
    ids=["short", "long"],
)
def test_compare_placements_moves_completion_not_render_latency(
    heavy_frames, light_frames, detail, min_speedup
):
    """Placement shifts queueing (completion times), never frame cost."""
    from repro.analysis.streaming import compare_placements, skewed_session_mix

    mix = skewed_session_mix(
        heavy_frames=heavy_frames, light_frames=light_frames, pairs=2,
        detail=detail,
    )
    comparison = compare_placements(sessions=mix, workers=2, detail=detail)
    rr, load = comparison.points["rr"], comparison.points["load"]
    assert comparison.speedup > 1.0
    assert comparison.speedup >= min_speedup
    # Per-frame render latency is a property of the workload...
    assert rr.p50_frame_seconds == load.p50_frame_seconds
    # ...but the completion tail shrinks when the heavies are spread.
    assert load.p95_completion_seconds < rr.p95_completion_seconds


def test_factory_builds_both_policies():
    sessions = _skewed_mix()
    assert isinstance(make_scheduler("rr", sessions, 2), RoundRobinScheduler)
    assert isinstance(make_scheduler("load", sessions, 2), LoadAwareScheduler)


# ----------------------------------------------------------------------
# Per-frame bookkeeping: one detail key per plan and rung
# ----------------------------------------------------------------------
@pytest.fixture
def detail_keys(monkeypatch):
    """Details the scheduler computed a ``detail_key`` for."""
    calls = []

    def counting(detail):
        calls.append(detail)
        return detail_key(detail)

    monkeypatch.setattr(scheduler_module, "detail_key", counting)
    return calls


def test_fixed_detail_frames_key_each_plan_once(detail_keys):
    """10^3 frames per session at an unchanged detail under ``rr``: the
    only key a plan computes is the one it is registered with."""
    sessions = [
        StreamSession(
            session.session_id,
            session.scene,
            session.trajectory,
            n_frames=1000,
            detail=DETAIL,
        )
        for session in _skewed_mix()
    ]
    scheduler = make_scheduler("rr", sessions, workers=2)
    for _ in range(1000):
        for session in sessions:
            scheduler.observe_frame(session.session_id, 1e-3, detail=DETAIL)
    assert len(detail_keys) == len(sessions)


def test_rung_changes_key_a_plan_once_each(detail_keys):
    """A QoS-adaptive session keys once more per rung change, a return
    to an earlier rung included."""
    rungs = [DETAIL] * 10 + [0.1875] * 5 + [0.2] * 5 + [DETAIL] * 3
    scheduler = make_scheduler("rr", [_session("adaptive", "bicycle", 40)], 1)
    for detail in rungs:
        scheduler.observe_frame("adaptive", 1e-3, detail=detail)
    assert len(detail_keys) == 1 + 3


def _qos_mix():
    return [
        StreamSession(
            session.session_id,
            session.scene,
            session.trajectory,
            detail=DETAIL,
            target_fps=300.0,
        )
        for session in _skewed_mix()
    ]


def test_estimate_tables_match_the_per_frame_rule():
    """After a QoS-adaptive ``load`` serve, ``_proxy`` and ``_observed``
    hold, in order, what keying every frame would have built: each
    session's nominal detail at registration, then every frame's
    rendered detail, the first frame at a key setting its estimate."""
    sessions = _qos_mix()
    ticks = []
    with StreamServer(workers=2, local=True, placement="load") as server:
        server.begin(sessions)
        while server.n_active:
            ticks.append(server.step().frames)
        scheduler = server._scheduler
        proxy, observed = dict(scheduler._proxy), dict(scheduler._observed)
        server.finish()

    scenes = {s.session_id: s.scene for s in sessions}
    want_proxy, want_observed = {}, {}

    def proxy_for(scene, detail):
        want_proxy.setdefault(
            (scene, detail_key(detail)), static_frame_estimate(scene, detail)
        )

    for session in sessions:
        proxy_for(session.scene, session.detail)
    details = set()
    for frames in ticks:
        for session_id, record in frames:
            scene = scenes[session_id]
            proxy_for(scene, record.detail)
            want_observed.setdefault(
                (scene, detail_key(record.detail)), float(record.sim_seconds)
            )
            details.add(record.detail)
    assert len(details) > 2, "the controllers never changed rung"
    assert list(proxy.items()) == list(want_proxy.items())
    assert list(observed.items()) == list(want_observed.items())
