"""StreamServer: isolation, batching, scheduling,
admission control, worker-crash recovery, the incremental serving
protocol, and the chaos matrix (crash at every frame index x placement
x QoS mode)."""

from collections import deque

import numpy as np
import pytest

from repro.errors import SimulationError, ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream import (
    CameraTrajectory,
    FrameStream,
    RoundRobinScheduler,
    StreamServer,
    StreamSession,
)
from repro.stream.server import _WorkerState

DETAIL = 0.25


def _sessions(n_frames=4, keep_images=False, budgets=None):
    spec = CATALOG["bicycle"]
    return [
        StreamSession(
            "jitter",
            "bicycle",
            CameraTrajectory.for_scene(
                spec, "head_jitter", n_frames=n_frames, seed=9, detail=DETAIL
            ),
            n_frames=None if budgets is None else budgets[0],
            detail=DETAIL,
            keep_images=keep_images,
        ),
        StreamSession(
            "orbit",
            "bicycle",
            CameraTrajectory.for_scene(
                spec, "orbit", n_frames=n_frames, detail=DETAIL
            ),
            n_frames=None if budgets is None else budgets[1],
            detail=DETAIL,
            keep_images=keep_images,
        ),
    ]


def _key_fields(report):
    return [
        (f.frame, f.n_visible, f.n_instances, f.hit_rate,
         f.cache.cumulative_hit_rate, f.binning.reuse_fraction)
        for f in report.frames
    ]


def test_concurrent_sessions_do_not_bleed_state():
    """Serving two sessions together equals serving each alone."""
    sessions = _sessions()
    with StreamServer(workers=0) as server:
        results = server.serve(sessions)
    for session, result in zip(sessions, results):
        solo = FrameStream(
            session.scene, session.trajectory, detail=session.detail
        ).run()
        assert _key_fields(result.report) == _key_fields(solo)


def test_multiprocess_serving_matches_in_process():
    sessions = _sessions(n_frames=3)
    with StreamServer(workers=0) as server:
        local = server.serve(sessions)
    with StreamServer(workers=2) as server:
        remote = server.serve(sessions)
    for a, b in zip(local, remote):
        assert _key_fields(a.report) == _key_fields(b.report)
    assert {r.worker for r in remote} == {0, 1}


def test_serve_summary_counts_every_frame():
    sessions = _sessions(n_frames=3)
    with StreamServer(workers=0) as server:
        results, summary = server.serve_timed(sessions)
    assert summary.total_frames == sum(r.report.n_frames for r in results) == 6
    assert summary.sim_frames_per_sec > 0
    assert summary.wall_frames_per_sec > 0


def test_simulated_throughput_scales_with_workers():
    """Two full-detail orbit sessions: simulated frames/s scales >= 1.5x
    from one worker to two (measured 2.00x; makespan is the busiest
    worker's summed paper-scale latencies, so in-process ``local``
    mode gives the pool's number), and the warm reuse-cache hit rate
    beats frame 0's cold rate."""
    spec = CATALOG["bicycle"]
    sessions = [
        StreamSession(
            f"bicycle-{i}",
            "bicycle",
            CameraTrajectory.for_scene(
                spec, "orbit", n_frames=8, phase_deg=i * 180.0
            ),
        )
        for i in range(2)
    ]
    fps = {}
    for workers in (1, 2):
        with StreamServer(workers=workers, local=True) as server:
            results, summary = server.serve_timed(sessions)
        fps[workers] = summary.sim_frames_per_sec
    assert fps[2] / fps[1] >= 1.5
    report = results[0].report
    assert report.warm_hit_rate > report.cold_hit_rate


def test_round_robin_placement_and_same_scene_batching():
    spec = CATALOG["bicycle"]
    traj = CameraTrajectory.for_scene(spec, "frozen", n_frames=1, detail=DETAIL)
    sessions = [
        StreamSession(f"s{i}", scene, traj, detail=DETAIL)
        for i, scene in enumerate(["bicycle", "bicycle", "bonsai", "bicycle"])
    ]
    scheduler = RoundRobinScheduler(sessions, workers=2)
    assert [scheduler.worker_of(s.session_id) for s in sessions] == [0, 1, 0, 1]
    assignments = scheduler.tick_assignments()
    # Worker 0 hosts s0 (bicycle) and s2 (bonsai): two one-session
    # batches; worker 1 hosts s1 and s3, both bicycle: one batch of 2.
    batches0 = StreamServer._scene_batches(assignments[0])
    batches1 = StreamServer._scene_batches(assignments[1])
    assert sorted(len(b) for b in batches0) == [1, 1]
    assert [len(b) for b in batches1] == [2]
    assert {s.session_id for s in batches1[0]} == {"s1", "s3"}


def test_duplicate_session_ids_rejected():
    sessions = _sessions()
    twin = [sessions[0], sessions[0]]
    with StreamServer(workers=0) as server:
        with pytest.raises(ValidationError):
            server.serve(twin)
    with pytest.raises(ValidationError):
        StreamServer(workers=-1)


def test_finished_sessions_stop_being_dispatched(dispatches):
    """A budget-exhausted session costs no further tick round-trips."""
    sessions = _sessions(n_frames=6, budgets=[2, 6])
    with StreamServer(workers=0) as server:
        results = server.serve(sessions)
    assert [r.report.n_frames for r in results] == [2, 6]
    # One dispatch per rendered frame: completion rides back with the
    # final frame, so the short session is never named again.
    assert dispatches == {"jitter": 2, "orbit": 6}


def test_stale_session_id_raises_validation_error():
    """An unknown session id, or one surviving a reset, is a
    ValidationError, never a bare KeyError."""
    session = _sessions(n_frames=2)[0]
    state = _WorkerState()
    with pytest.raises(ValidationError, match="before registration"):
        state.render_tick([session.session_id])
    state.render_tick([session])
    state.reset()
    with pytest.raises(ValidationError, match="before registration"):
        state.render_tick([session.session_id])


def test_serve_failure_leaves_no_live_executors():
    """An unrecoverable serve tears the pool down before raising."""
    sessions = _sessions(n_frames=3)
    server = StreamServer(
        workers=2, fault_injector=lambda tick, w: w == 0, max_respawns=0
    )
    with pytest.raises(SimulationError):
        server.serve(sessions)
    assert server._executors == []
    assert server._local_states == []
    # The server recovers on the next serve with the injector removed.
    server.fault_injector = None
    try:
        results = server.serve(sessions)
    finally:
        server.close()
    assert [r.report.n_frames for r in results] == [3, 3]


def _frame_evidence(report):
    """What byte-identical recovery must preserve per frame."""
    return [
        (
            f.frame,
            f.sim_seconds,
            f.hit_rate,
            f.cache.cumulative_hit_rate,
            f.cache.carried_hit_rate,
        )
        for f in report.frames
    ]


@pytest.mark.parametrize("crash_tick", [1, 7])
def test_worker_crash_recovery_matches_uninterrupted_run(crash_tick):
    """Kill a worker mid-stream; recovered frames must be identical."""
    sessions = _sessions(n_frames=16, keep_images=True)
    with StreamServer(workers=0) as server:
        baseline = server.serve(sessions)

    injector = lambda tick, w: tick == crash_tick  # noqa: E731 - every worker
    with StreamServer(
        workers=2, local=True, fault_injector=injector
    ) as server:
        recovered = server.serve(sessions)
        assert server.recoveries >= 1

    for before, after in zip(baseline, recovered):
        assert _frame_evidence(before.report) == _frame_evidence(after.report)
        for fb, fa in zip(before.report.frames, after.report.frames):
            assert np.array_equal(fb.image, fa.image)


def test_process_worker_crash_recovery_matches_uninterrupted_run():
    """Same invariant through a real BrokenProcessPool respawn."""
    sessions = _sessions(n_frames=5)
    with StreamServer(workers=0) as server:
        baseline = server.serve(sessions)
    injector = lambda tick, w: tick == 2 and w == 0  # noqa: E731
    with StreamServer(workers=2, fault_injector=injector) as server:
        recovered = server.serve(sessions)
        assert server.recoveries == 1
    for before, after in zip(baseline, recovered):
        assert _frame_evidence(before.report) == _frame_evidence(after.report)


def test_migrate_crash_restore_migrate_is_byte_identical():
    """Double migration with a crash in between: migrate -> crash ->
    restore -> migrate again must replay byte-identically, including
    the QoS controller state of adaptive sessions."""
    spec_heavy, spec_light = CATALOG["bicycle"], CATALOG["female_4"]
    sessions = [
        StreamSession(
            "light",
            "female_4",
            CameraTrajectory.for_scene(
                spec_light, "head_jitter", n_frames=10, seed=1, detail=DETAIL
            ),
            detail=DETAIL,
            keep_images=True,
            target_fps=300.0,
        ),
        StreamSession(
            "heavy-a",
            "bicycle",
            CameraTrajectory.for_scene(
                spec_heavy, "head_jitter", n_frames=10, seed=2, detail=DETAIL
            ),
            detail=DETAIL,
            keep_images=True,
            target_fps=300.0,
        ),
        StreamSession(
            "heavy-b",
            "bicycle",
            CameraTrajectory.for_scene(
                spec_heavy, "head_jitter", n_frames=10, seed=3, detail=DETAIL
            ),
            detail=DETAIL,
            keep_images=True,
            target_fps=300.0,
        ),
    ]
    with StreamServer(workers=0) as server:
        baseline = server.serve(sessions)

    # The lying estimator stacks both heavies, so observed latencies
    # keep proposing migrations; the crash at tick 4 forces a restore
    # between them.
    lying = lambda scene, detail: 1.0 if scene == "bicycle" else 1000.0  # noqa: E731
    injector = lambda tick, w: tick == 4  # noqa: E731 - every worker
    with StreamServer(
        workers=2,
        local=True,
        placement="load",
        estimator=lying,
        rebalance_threshold=0.2,
        fault_injector=injector,
    ) as server:
        relayed = server.serve(sessions)
        assert len(server.migrations) >= 2
        assert server.recoveries >= 1

    for before, after in zip(baseline, relayed):
        assert _frame_evidence(before.report) == _frame_evidence(after.report)
        assert before.report.detail_trace == after.report.detail_trace
        for fb, fa in zip(before.report.frames, after.report.frames):
            assert np.array_equal(fb.image, fa.image)


def test_rebalance_migration_preserves_results():
    """A checkpoint migration changes placement, never output."""
    spec_heavy, spec_light = CATALOG["bicycle"], CATALOG["female_4"]
    sessions = [
        StreamSession(
            "light",
            "female_4",
            CameraTrajectory.for_scene(
                spec_light, "head_jitter", n_frames=8, seed=1, detail=DETAIL
            ),
            detail=DETAIL,
        ),
        StreamSession(
            "heavy-a",
            "bicycle",
            CameraTrajectory.for_scene(
                spec_heavy, "head_jitter", n_frames=8, seed=2, detail=DETAIL
            ),
            detail=DETAIL,
        ),
        StreamSession(
            "heavy-b",
            "bicycle",
            CameraTrajectory.for_scene(
                spec_heavy, "head_jitter", n_frames=8, seed=3, detail=DETAIL
            ),
            detail=DETAIL,
        ),
    ]
    with StreamServer(workers=0) as server:
        baseline = server.serve(sessions)

    # Lie about the heavy scene so both heavies stack on one worker;
    # observed latencies then trigger a rebalance migration.
    lying = lambda scene, detail: 1.0 if scene == "bicycle" else 1000.0  # noqa: E731
    with StreamServer(
        workers=2,
        local=True,
        placement="load",
        estimator=lying,
        rebalance_threshold=0.5,
    ) as server:
        rebalanced = server.serve(sessions)
        assert len(server.migrations) >= 1

    for before, after in zip(baseline, rebalanced):
        assert _frame_evidence(before.report) == _frame_evidence(after.report)


def test_admission_control_backpressure_preserves_results():
    sessions = _sessions(n_frames=4)
    with StreamServer(workers=0) as server:
        unlimited = server.serve(sessions)
    with StreamServer(workers=0, max_inflight=1) as server:
        throttled = server.serve(sessions)
    for a, b in zip(unlimited, throttled):
        assert _frame_evidence(a.report) == _frame_evidence(b.report)
    with pytest.raises(ValidationError):
        StreamServer(workers=0, max_inflight=0).serve(sessions)


def test_serve_summary_reports_recoveries():
    sessions = _sessions(n_frames=4)
    injector = lambda tick, w: tick == 1 and w == 0  # noqa: E731
    with StreamServer(
        workers=2, local=True, fault_injector=injector
    ) as server:
        _, summary = server.serve_timed(sessions)
    assert summary.recoveries == 1
    assert summary.migrations == 0


def test_unknown_placement_is_rejected():
    sessions = _sessions(n_frames=1)
    server = StreamServer(workers=0, placement="bogus")
    with pytest.raises(ValidationError):
        server.serve(sessions)


def test_incremental_protocol_matches_serve():
    """begin / submit / step / finish reproduces serve() exactly."""
    sessions = _sessions(n_frames=3)
    with StreamServer(workers=0) as server:
        baseline = server.serve(sessions)
    with StreamServer(workers=0) as server:
        server.begin([])
        for s in sessions:
            server.submit(s)
        ticks = 0
        while True:
            result = server.step()
            if result.n_frames == 0 and not result.done:
                break
            ticks += 1
            assert result.sim_seconds >= 0.0
        incremental = server.finish()
        assert not server.serving
    assert ticks >= 3
    for a, b in zip(baseline, incremental):
        assert a.session_id == b.session_id
        assert _frame_evidence(a.report) == _frame_evidence(b.report)


def test_extract_inject_moves_a_session_byte_identically():
    """Mid-stream extract on one server, inject on another: the stream
    resumes exactly where it left off, report riding along."""
    sessions = _sessions(n_frames=6)
    with StreamServer(workers=0) as server:
        baseline = server.serve(sessions)

    src = StreamServer(workers=0)
    dst = StreamServer(workers=0)
    try:
        src.begin(sessions)
        for _ in range(2):
            src.step()
        moved, ckpt, report = src.extract_session("jitter")
        assert moved.session_id == "jitter"
        assert ckpt is not None and ckpt.next_frame == 2
        assert report.n_frames == 2
        dst.begin([])
        dst.inject_session(moved, ckpt, report)
        while src.n_active:
            src.step()
        while dst.n_active:
            dst.step()
        results = {r.session_id: r for r in src.finish() + dst.finish()}
    finally:
        src.close()
        dst.close()
    assert set(results) == {"jitter", "orbit"}
    for ref in baseline:
        assert _frame_evidence(ref.report) == _frame_evidence(
            results[ref.session_id].report
        )


def _held(server, session_ids):
    """Names of the containers on ``server``, its scheduler and its
    in-process workers that still hold one of ``session_ids``."""
    holders = [("server", server)]
    holders += [("worker", state) for state in server._local_states]
    if server._scheduler is not None:
        holders.append(("scheduler", server._scheduler))
    return sorted(
        f"{owner}.{name}"
        for owner, holder in holders
        for name, value in vars(holder).items()
        if isinstance(value, (dict, set, list, deque))
        and any(session_id in value for session_id in session_ids)
    )


def test_lifecycle_paths_leave_no_session_entries():
    """Counted, not timed: after begin/step/finish and a mid-stream
    extract/inject, neither server nor any of their workers holds an
    entry for a session it no longer serves, and the moved session's
    completion stamps travel with its report."""
    sessions = _sessions(n_frames=4)
    ids = {s.session_id for s in sessions}
    src = StreamServer(workers=2, local=True, placement="rr")
    dst = StreamServer(workers=0)
    try:
        src.begin(sessions)
        dst.begin([])
        src.step()
        moved = src.extract_session("jitter")
        assert _held(src, {"jitter"}) == []
        assert "server._live" in _held(src, {"orbit"})
        dst.inject_session(*moved)
        for server in (src, dst):
            while server.n_active:
                server.step()
        src_results, dst_results = src.finish(), dst.finish()
    finally:
        src.close()
        dst.close()
    assert _held(src, ids) == [] and _held(dst, ids) == []
    assert [r.session_id for r in src_results] == ["orbit"]
    assert [r.session_id for r in dst_results] == ["jitter"]
    for result in src_results + dst_results:
        assert len(result.report.completions) == result.report.n_frames == 4


def test_incremental_protocol_validation():
    sessions = _sessions(n_frames=1)
    server = StreamServer(workers=0)
    with pytest.raises(ValidationError):
        server.step()
    with pytest.raises(ValidationError):
        server.finish()
    with pytest.raises(ValidationError):
        server.submit(sessions[0])
    try:
        server.begin(sessions)
        with pytest.raises(ValidationError):
            server.begin([])
        with pytest.raises(ValidationError):
            server.submit(sessions[0])
        with pytest.raises(ValidationError):
            server.extract_session("nobody")
        with pytest.raises(ValidationError):
            server.inject_session(sessions[1])  # id already being served
        # A mistaken serve() must refuse *without* destroying the open
        # serve: the incremental run continues and drains normally.
        with pytest.raises(ValidationError):
            server.serve(_sessions(n_frames=1))
        assert server.serving
        while server.n_active:
            server.step()
        results = server.finish()
        assert [r.report.n_frames for r in results] == [1, 1]
    finally:
        server.close()


# ----------------------------------------------------------------------
# Chaos matrix: crash at every frame index x placement x QoS mode
# ----------------------------------------------------------------------
CHAOS_FRAMES = 4


def _chaos_sessions(qos_mode: str):
    """Two mixed-weight sessions, optionally under deadline control."""
    target_fps = None if qos_mode == "none" else 300.0
    from repro.stream import QoSPolicy

    policy = QoSPolicy.fixed() if qos_mode == "fixed" else None
    spec_heavy, spec_light = CATALOG["bicycle"], CATALOG["female_4"]
    return [
        StreamSession(
            "heavy",
            "bicycle",
            CameraTrajectory.for_scene(
                spec_heavy, "head_jitter", n_frames=CHAOS_FRAMES, seed=2,
                detail=DETAIL,
            ),
            detail=DETAIL,
            keep_images=True,
            target_fps=target_fps,
            qos=policy,
        ),
        StreamSession(
            "light",
            "female_4",
            CameraTrajectory.for_scene(
                spec_light, "orbit", n_frames=CHAOS_FRAMES, detail=DETAIL
            ),
            detail=DETAIL,
            keep_images=True,
            target_fps=target_fps,
            qos=policy,
        ),
    ]


@pytest.fixture(scope="module")
def chaos_baselines():
    """Uninterrupted single-process reference runs, one per QoS mode."""
    out = {}
    for qos_mode in ("adaptive", "fixed"):
        with StreamServer(workers=0) as server:
            out[qos_mode] = server.serve(_chaos_sessions(qos_mode))
    return out


def _chaos_evidence(report):
    """Everything recovery must reproduce: timing, cache counters
    (per-frame and cumulative), QoS verdicts and the detail trace."""
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


@pytest.mark.chaos
@pytest.mark.parametrize("crash_tick", range(CHAOS_FRAMES))
@pytest.mark.parametrize("placement", ["rr", "load"])
@pytest.mark.parametrize("qos_mode", ["adaptive", "fixed"])
def test_chaos_matrix_recovery_is_byte_identical(
    crash_tick, placement, qos_mode, chaos_baselines
):
    """Kill every worker at every frame index under every placement and
    QoS mode; recovery must replay images, detail traces and cache
    counters byte for byte."""
    injector = lambda tick, w: tick == crash_tick  # noqa: E731 - all workers
    with StreamServer(
        workers=2,
        local=True,
        placement=placement,
        fault_injector=injector,
        max_respawns=4,
    ) as server:
        recovered = server.serve(_chaos_sessions(qos_mode))
        assert server.recoveries >= 1
    for before, after in zip(chaos_baselines[qos_mode], recovered):
        assert _chaos_evidence(before.report) == _chaos_evidence(after.report)
        assert before.report.detail_trace == after.report.detail_trace
        for fb, fa in zip(before.report.frames, after.report.frames):
            assert np.array_equal(fb.image, fa.image)


def test_tick_result_composition():
    """TickResult.merged folds batches; counters compose."""
    from repro.stream import FrameRecord, TickResult

    sessions = _sessions(n_frames=2)
    with StreamServer(workers=0) as server:
        server.begin(sessions)
        merged = server.step()
        rest = server.step()
        server.finish()
    assert merged.n_frames == 2
    assert merged.sim_seconds == pytest.approx(
        sum(record.sim_seconds for _, record in merged.frames)
    )
    refolded = TickResult.merged([merged, rest])
    assert refolded.n_frames == merged.n_frames + rest.n_frames
    assert all(isinstance(r, FrameRecord) for _, r in refolded.frames)


def test_serve_summary_merge():
    from repro.stream import ServeSummary

    a = ServeSummary(
        workers=1, sessions=2, total_frames=10,
        sim_makespan_seconds=2.0, wall_seconds=1.0, recoveries=1,
    )
    b = ServeSummary(
        workers=2, sessions=3, total_frames=20,
        sim_makespan_seconds=3.0, wall_seconds=0.5, migrations=2,
    )
    merged = ServeSummary.merge([a, b])
    assert merged.workers == 3
    assert merged.sessions == 5
    assert merged.total_frames == 30
    assert merged.sim_makespan_seconds == 3.0
    assert merged.wall_seconds == 1.0
    assert merged.recoveries == 1 and merged.migrations == 2
    assert merged.sim_frames_per_sec == pytest.approx(10.0)
    empty = ServeSummary.merge([])
    assert empty.total_frames == 0 and empty.sim_frames_per_sec == 0.0
