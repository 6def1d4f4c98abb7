"""Digest pipeline: workload models, determinism, checkpoint
byte-identity, digest-vs-exact fidelity, and serving integration.

Everything here runs under the ``digest`` marker (the ISSUE-level
fidelity contract lives in the ``test_fidelity_*`` grid; the
Hypothesis properties pin determinism and checkpoint replay).
"""

import dataclasses
import functools
import gc
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.scenes.catalog import CATALOG
from repro.stream import (
    CameraTrajectory,
    DigestFrameStream,
    EdgeFleet,
    FramePipeline,
    FrameStream,
    StreamServer,
    StreamSession,
    WorkloadModelTable,
    assert_trace_agreement,
    capture_checkpoint,
    frame_evidence,
    restore_checkpoint,
    streaming_config,
    trace_agreement,
)
from repro.stream.content_cache import (
    CacheTier,
    ContentCacheConfig,
    SessionContentView,
)
from repro.stream.digest import FRAME_MEMO_CAP, WorkloadModel
from repro.stream.qos import FrameDeadline, QoSPolicy, QualityController
from repro.stream.traffic import MIXES, SessionArrival, TrafficGenerator

pytestmark = pytest.mark.digest

DETAIL = 0.25
N_CAL_FRAMES = 8


@functools.lru_cache(maxsize=None)
def _table(scene="bicycle", kind="orbit", detail=DETAIL):
    """Calibrated model table, built once per configuration."""
    return WorkloadModelTable.calibrate(
        [scene],
        details=(detail,),
        trajectories=(kind,),
        n_frames=N_CAL_FRAMES,
        config=streaming_config(),
        seed=0,
    )


@functools.lru_cache(maxsize=None)
def _light_mix_table():
    """Models for every (scene, detail, trajectory) the light traffic
    mix draws, calibrated on seed 7."""
    archetypes = MIXES["light"]
    return WorkloadModelTable.calibrate(
        sorted({a.scene for a in archetypes}),
        details=sorted({a.detail * DETAIL for a in archetypes}),
        trajectories=sorted({a.trajectory for a in archetypes}),
        n_frames=N_CAL_FRAMES,
        config=streaming_config(),
        seed=7,
    )


def _trajectory(scene="bicycle", kind="orbit", n_frames=8, seed=0):
    return CameraTrajectory.for_scene(
        CATALOG[scene], kind, n_frames=n_frames, seed=seed, detail=DETAIL
    )


def _records(report):
    return [dataclasses.astuple(f) for f in report.frames]


# ----------------------------------------------------------------------
# Workload models
# ----------------------------------------------------------------------
def test_model_table_json_round_trip():
    table = _table()
    clone = WorkloadModelTable.from_json(table.to_json())
    assert [m.key for m in clone.models] == [m.key for m in table.models]
    assert clone.models == table.models
    assert clone.to_json() == table.to_json()


def test_model_table_rejects_bad_payloads():
    with pytest.raises(ValidationError):
        WorkloadModelTable.from_json("not json")
    with pytest.raises(ValidationError):
        WorkloadModelTable.from_json("[]")
    with pytest.raises(ValidationError):
        WorkloadModelTable.from_json('{"version": 999, "models": []}')


def test_model_table_refuses_version_2():
    """A version-2 table keyed its modes with a leading render-backend
    name; read as today's table, those modes would never match and
    ``lookup`` would fall back to a model of another mode."""
    payload = json.loads(_table().to_json())
    payload["version"] = 2
    for model in payload["models"]:
        model["mode"] = ["vectorized", *model["mode"]]
    with pytest.raises(ValidationError, match="model table version 2 is not "
                       "supported"):
        WorkloadModelTable.from_json(json.dumps(payload))


def test_model_from_dict_rejects_unknown_fields():
    payload = _table().models[0].to_dict()
    payload["surprise"] = 1
    with pytest.raises(ValidationError):
        WorkloadModel.from_dict(payload)


def test_lookup_exact_rung_and_nearest_fallback():
    table = _table()
    model = table.models[0]
    hit, scale = table.lookup("bicycle", DETAIL, "orbit", model.mode)
    assert hit is model and scale == 1.0
    near, scale = table.lookup("bicycle", DETAIL / 2, "orbit", model.mode)
    assert near is model
    assert scale == pytest.approx(0.5)


def test_lookup_does_not_depend_on_earlier_lookups():
    """Two details that round to one rung key, asked in either order,
    each get what a fresh table gives them."""
    models = _table().models
    mode = models[0].mode
    details = (DETAIL / 2, DETAIL / 2 + 1e-9)

    def fresh(detail):
        return WorkloadModelTable(models).lookup("bicycle", detail, "orbit", mode)

    assert fresh(DETAIL / 2)[1] == 0.5
    for order in (details, details[::-1]):
        table = WorkloadModelTable(models)
        for detail in order:
            assert table.lookup("bicycle", detail, "orbit", mode) == fresh(detail)


def test_lookup_unknown_scene_raises():
    with pytest.raises(ValidationError, match="no workload model"):
        _table().lookup("kitchen", 1.0, "orbit", ())


# ----------------------------------------------------------------------
# Determinism + checkpoint byte-identity (Hypothesis)
# ----------------------------------------------------------------------
@pytest.mark.property
@settings(max_examples=25, deadline=None)
@given(
    n_frames=st.integers(1, 10),
    seed=st.integers(0, 3),
    jitter=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_digest_is_deterministic(n_frames, seed, jitter):
    """Same seed + config => identical digest traces, bit for bit."""
    table = _table().with_jitter(jitter)
    trajectory = _trajectory(n_frames=max(n_frames, 1), seed=seed)

    def run():
        stream = DigestFrameStream(
            CATALOG["bicycle"], trajectory, table, detail=DETAIL
        )
        return _records(stream.run(n_frames)), list(stream.key_trace)

    assert run() == run()


@pytest.mark.property
@settings(max_examples=25, deadline=None)
@given(
    split=st.integers(1, 9),
    jitter=st.sampled_from([0.0, 0.2]),
)
def test_checkpoint_restore_is_byte_identical(split, jitter):
    """Capture mid-digest, replay on a fresh stream: the continuation
    and every subsequent checkpoint must match the uninterrupted run."""
    total = 10
    table = _table().with_jitter(jitter)
    trajectory = _trajectory(n_frames=total)
    spec = CATALOG["bicycle"]

    original = DigestFrameStream(spec, trajectory, table, detail=DETAIL)
    original.run(split)
    checkpoint = capture_checkpoint("s", original)

    restored = DigestFrameStream(spec, trajectory, table, detail=DETAIL)
    restore_checkpoint(restored, checkpoint)
    assert restored.frames_rendered == original.frames_rendered

    tail_a = _records(original.run(total - split))
    tail_b = _records(restored.run(total - split))
    assert tail_a == tail_b
    assert capture_checkpoint("s", original) == capture_checkpoint(
        "s", restored
    )


def test_digest_stream_satisfies_pipeline_protocol():
    stream = DigestFrameStream(
        CATALOG["bicycle"], _trajectory(), _table(), detail=DETAIL
    )
    assert isinstance(stream, FramePipeline)
    assert isinstance(
        FrameStream(CATALOG["bicycle"], _trajectory()), FramePipeline
    )


def test_digest_rejects_keep_images():
    with pytest.raises(ValidationError, match="images"):
        DigestFrameStream(
            CATALOG["bicycle"],
            _trajectory(),
            _table(),
            detail=DETAIL,
            keep_images=True,
        )


def test_model_validation_rejects_malformed_sequences():
    model = _table().models[0]
    with pytest.raises(ValidationError, match="at least one"):
        dataclasses.replace(
            model,
            frame_seconds=(),
            n_visible=(),
            n_instances=(),
            accesses=(),
            hits=(),
            carried_hits=(),
            binning_reused=(),
            full_reuse=(),
            frame_nbytes=(),
        )
    with pytest.raises(ValidationError, match="entries"):
        dataclasses.replace(model, n_visible=model.n_visible + (1,))
    with pytest.raises(ValidationError, match="jitter"):
        dataclasses.replace(model, jitter=1.5)


def test_calibrate_rejects_zero_frames():
    with pytest.raises(ValidationError, match="at least one frame"):
        WorkloadModelTable.calibrate(["bicycle"], n_frames=0)


def test_table_len_counts_models():
    assert len(_table()) == 1


def test_digest_reset_replays_from_scratch():
    stream = DigestFrameStream(
        CATALOG["bicycle"], _trajectory(), _table(), detail=DETAIL
    )
    first = _records(stream.run(6))
    assert stream.cache_state.frames_observed == 6
    stream.reset()
    assert stream.frames_rendered == 0
    assert stream.cache_state.frames_observed == 0
    assert _records(stream.run(6)) == first


def test_digest_seek_and_run_validation():
    stream = DigestFrameStream(
        CATALOG["bicycle"], _trajectory(), _table(), detail=DETAIL
    )
    with pytest.raises(ValidationError, match="negative"):
        stream.seek(-1)
    with pytest.raises(ValidationError, match="at least one frame"):
        stream.run(0)


def test_digest_rejects_mismatched_controller_detail():
    controller = QualityController(
        FrameDeadline(72.0), QoSPolicy.fixed(), nominal_detail=0.5
    )
    with pytest.raises(ValidationError, match="nominal detail"):
        DigestFrameStream(
            CATALOG["bicycle"],
            _trajectory(),
            _table(),
            detail=DETAIL,
            controller=controller,
        )


def test_digest_cache_state_rejects_foreign_geometry():
    stream = DigestFrameStream(
        CATALOG["bicycle"], _trajectory(), _table(), detail=DETAIL
    )
    stream.run(2)
    state = stream.cache_state.export_state()
    other = DigestFrameStream(
        CATALOG["bicycle"], _trajectory(), _table(), detail=DETAIL
    )
    with pytest.raises(ValidationError, match="policy"):
        other.cache_state.import_state(
            dataclasses.replace(state, policy="no-such-policy")
        )
    with pytest.raises(ValidationError, match="geometry"):
        other.cache_state.import_state(
            dataclasses.replace(state, capacity_lines=state.capacity_lines + 1)
        )


# ----------------------------------------------------------------------
# Frame memo: one shared record per (model, frame, cache counters)
# ----------------------------------------------------------------------
def _fresh(table=None):
    """The calibrated models in a new table, whose frame memo is empty."""
    return WorkloadModelTable((table or _table()).models)


def _memo_stream(table, kind, detail, trajectory):
    controller = content = None
    if kind == "controller":
        controller = QualityController(
            FrameDeadline(5000.0), None, nominal_detail=detail
        )
    elif kind == "content":
        config = ContentCacheConfig()
        content = SessionContentView(
            config, CacheTier("session", config.session_bytes)
        )
    return DigestFrameStream(
        CATALOG["bicycle"],
        trajectory,
        table,
        detail=detail,
        controller=controller,
        content=content,
    )


def _serve_split(table, kind, detail, start, split, total=10):
    """Serve frames ``start..total-1`` from a cursor seeked to ``start``
    (cache counters cold), moving onto a restored stream before frame
    ``split``.  Each frame yields its record, its evidence JSON and
    its pickled checkpoint."""
    trajectory = _trajectory(n_frames=total)
    stream = _memo_stream(table, kind, detail, trajectory)
    stream.seek(start)
    served = []
    for k in range(start, total):
        if k == split:
            checkpoint = capture_checkpoint("s", stream)
            stream = _memo_stream(table, kind, detail, trajectory)
            restore_checkpoint(stream, checkpoint)
        record = stream.render_next()
        served.append(
            (
                record,
                json.dumps(frame_evidence(record), sort_keys=True),
                pickle.dumps(capture_checkpoint("s", stream)),
            )
        )
    return served


@pytest.mark.property
@pytest.mark.parametrize("kind", ["fixed", "jitter", "controller", "content"])
@settings(max_examples=20, deadline=None)
@given(
    detail=st.sampled_from([DETAIL, DETAIL / 2]),
    start=st.integers(0, 3),
    split=st.integers(1, 9),
)
def test_memo_served_frames_equal_fresh_table_frames(
    kind, detail, start, split
):
    """The first pass through a fresh table models every frame; later
    passes through a table warmed by other sessions (a from-zero one,
    then this one) must serve identical records, evidence and
    checkpoint bytes, on exact and scaled rungs alike.  Only the fixed
    kind may use the memo."""
    base = _table().with_jitter(0.2) if kind == "jitter" else _table()
    reference = _serve_split(_fresh(base), kind, detail, start, split)
    table = _fresh(base)
    _serve_split(table, kind, detail, 0, None)
    assert _serve_split(table, kind, detail, start, split) == reference
    assert _serve_split(table, kind, detail, start, split) == reference
    assert bool(table._frames) == (kind == "fixed")


def test_frame_memo_is_bounded_and_never_pickled():
    table = _fresh()
    n = FRAME_MEMO_CAP + 50
    DigestFrameStream(
        CATALOG["bicycle"], _trajectory(n_frames=n), table, detail=DETAIL
    ).run(n)
    assert len(table._frames) == FRAME_MEMO_CAP
    clone = pickle.loads(pickle.dumps(table))
    assert clone._frames == {}
    assert clone.to_json() == table.to_json()
    assert len(table._frames) == FRAME_MEMO_CAP


def test_register_clears_the_frame_memo():
    table = _fresh()
    stream = DigestFrameStream(
        CATALOG["bicycle"], _trajectory(), table, detail=DETAIL
    )
    stream.run(3)
    model = table.models[0]
    slower = dataclasses.replace(
        model, frame_seconds=tuple(2 * s for s in model.frame_seconds)
    )
    table.register(slower)
    assert not table._frames
    assert stream.render_next().sim_seconds == slower.frame_seconds[3]
    assert table._frames
    # A model registered with jitter makes frames stream-specific:
    # they are modeled from it and never enter the memo.
    table.register(dataclasses.replace(slower, jitter=0.2))
    assert stream.render_next().sim_seconds != slower.frame_seconds[4]
    assert not table._frames


def test_jitter_free_admission_fingerprints_no_pose(monkeypatch):
    from repro.stream import digest

    calls = []
    fingerprint = digest.camera_fingerprint

    def counted(camera):
        calls.append(camera)
        return fingerprint(camera)

    monkeypatch.setattr(digest, "camera_fingerprint", counted)
    with StreamServer(workers=0, models=_table()) as server:
        server.serve(_digest_sessions(n=2))
    assert calls == []
    DigestFrameStream(
        CATALOG["bicycle"], _trajectory(), _table().with_jitter(0.2),
        detail=DETAIL,
    ).run(3)
    assert len(calls) == 1


def test_served_digest_frames_retain_flat_object_count():
    """Counted, not timed: what a serve of fixed-detail sessions leaves
    alive (results plus the server's streams) is per-session state, so
    GC-tracked objects per served frame stay flat from N to 4N
    sessions.  The bound sits below the 4 objects (record, cache
    sample, cache report, binning stats) a per-frame record would
    keep alive."""
    table = _fresh()

    def retained_per_frame(n):
        sessions = _digest_sessions(n=n, n_frames=6)
        gc.collect()
        before = len(gc.get_objects())
        with StreamServer(workers=0, models=table) as server:
            results = server.serve(sessions)
            retained = len(gc.get_objects()) - before
        return retained / sum(r.report.n_frames for r in results)

    gc.disable()
    try:
        retained_per_frame(10)  # fills the frame memo
        small, large = retained_per_frame(50), retained_per_frame(200)
    finally:
        gc.enable()
    assert small < 2.5 and large < 2.5
    assert abs(small - large) < 0.1


def test_finished_sessions_leave_no_worker_state():
    """Counted, not timed: a worker releases each session when it
    reports ``done``, so after every serve of N, then 4N sessions
    through one server the worker holds no stream and no
    ``DigestFrameStream`` is alive."""

    def live_streams():
        gc.collect()
        return sum(isinstance(o, DigestFrameStream) for o in gc.get_objects())

    with StreamServer(workers=0, models=_fresh()) as server:
        for n in (100, 400):
            results = server.serve(_digest_sessions(n=n, n_frames=3))
            assert len(results) == n
            (state,) = server._local_states
            assert not state.hosted
            assert live_streams() == 0


# ----------------------------------------------------------------------
# Digest-vs-exact fidelity grid
# ----------------------------------------------------------------------
def _fidelity_pair(n_frames=8, controller_factory=None, content=False):
    spec = CATALOG["bicycle"]
    trajectory = _trajectory(n_frames=n_frames)
    table = _table()

    def view():
        if not content:
            return None
        config = ContentCacheConfig()
        tier = CacheTier("session", config.session_bytes)
        return SessionContentView(config, tier)

    exact = FrameStream(
        spec,
        trajectory,
        detail=DETAIL,
        controller=controller_factory() if controller_factory else None,
        content=view(),
    )
    digest = DigestFrameStream(
        spec,
        trajectory,
        table,
        detail=DETAIL,
        controller=controller_factory() if controller_factory else None,
        content=view(),
    )
    return exact, digest


@pytest.mark.parametrize(
    "config",
    ["plain", "fixed_qos", "content_cache", "fixed_qos+content_cache"],
)
def test_fidelity_grid(config):
    """The fidelity contract on small configs: identical detail-ladder
    decisions and cache-key sequences, sim_seconds within tolerance
    (exactly zero error here — the models were calibrated on the same
    seeded workload the streams replay)."""
    controller_factory = None
    if "fixed_qos" in config:
        controller_factory = lambda: QualityController(  # noqa: E731
            FrameDeadline(72.0), QoSPolicy.fixed(), nominal_detail=DETAIL
        )
    exact, digest = _fidelity_pair(
        controller_factory=controller_factory,
        content="content_cache" in config,
    )
    exact_report = exact.run(8)
    digest_report = digest.run(8)
    agreement = trace_agreement(
        exact_report,
        digest_report,
        exact_keys=exact.key_trace,
        digest_keys=digest.key_trace,
    )
    assert agreement.ok, agreement.mismatches
    assert agreement.max_sim_rel_err == 0.0
    assert agreement.details_match and agreement.keys_match
    assert_trace_agreement(
        exact_report,
        digest_report,
        exact_keys=exact.key_trace,
        digest_keys=digest.key_trace,
    )
    if "content_cache" in config:
        assert exact.key_trace  # the grid actually exercised the keys


def test_fidelity_on_every_light_mix_model():
    """Calibrate the light traffic mix's whole (scene, detail,
    trajectory) grid, then replay each model's calibration trajectory
    through both pipelines: no mismatch, sim_seconds error exactly 0."""
    models = _light_mix_table()
    assert len(models) == 4
    for model in models.models:
        spec = CATALOG[model.scene]
        trajectory = CameraTrajectory.for_scene(
            spec, model.trajectory, n_frames=N_CAL_FRAMES, seed=7,
            detail=model.detail,
        )
        agreement = assert_trace_agreement(
            FrameStream(spec, trajectory, detail=model.detail).run(),
            DigestFrameStream(spec, trajectory, models, detail=model.detail).run(),
        )
        assert agreement.mismatches == []
        assert agreement.max_sim_rel_err == 0.0


def test_fidelity_assertion_rejects_divergence():
    exact, digest = _fidelity_pair()
    exact_report = exact.run(4)
    digest_report = digest.run(4)
    broken = dataclasses.replace(
        digest_report.frames[2],
        sim_seconds=digest_report.frames[2].sim_seconds * 10.0,
    )
    digest_report.frames[2] = broken
    with pytest.raises(ValidationError, match="sim_seconds diverges"):
        assert_trace_agreement(exact_report, digest_report)


def test_trace_agreement_reports_every_divergence_kind():
    exact, digest = _fidelity_pair()
    exact_report = exact.run(4)
    digest_report = digest.run(4)
    frames = digest_report.frames
    frames[1] = dataclasses.replace(frames[1], detail=frames[1].detail / 2)
    frames[2] = dataclasses.replace(frames[2], shards=4)
    frames[3] = dataclasses.replace(frames[3], served_from="fleet")
    digest_report.frames = frames[:4] + [frames[3]]
    agreement = trace_agreement(
        exact_report,
        digest_report,
        exact_keys=["k1"],
        digest_keys=["k2"],
    )
    assert not agreement.ok
    joined = "; ".join(agreement.mismatches)
    assert "frame counts differ" in joined
    assert "detail-ladder traces differ" in joined
    assert "shard-escalation traces differ" in joined
    assert "served_from traces differ" in joined
    assert "key sequences differ" in joined
    round_trip = agreement.to_dict()
    assert round_trip["mismatches"] == agreement.mismatches
    assert round_trip["n_frames"] == 4


def test_digest_content_hits_on_shared_view():
    """Two digest viewers on one session tier: the second replay is
    served from the cache, with provenance recorded."""
    config = ContentCacheConfig()
    view = SessionContentView(config, CacheTier("session", config.session_bytes))
    spec = CATALOG["bicycle"]
    trajectory = _trajectory(n_frames=4)

    def run():
        stream = DigestFrameStream(
            spec, trajectory, _table(), detail=DETAIL, content=view
        )
        return stream.run(4)

    cold = run()
    warm = run()
    assert all(f.served_from is None for f in cold.frames)
    assert all(f.served_from == "session" for f in warm.frames)


def test_adaptive_qos_digest_is_deterministic():
    """Adaptive controllers ride the digest path deterministically
    (rung fidelity vs exact is only asserted for fixed QoS — adaptive
    warm-up after a rung switch is a documented approximation)."""

    def run():
        controller = QualityController(
            FrameDeadline(5000.0), None, nominal_detail=DETAIL
        )
        stream = DigestFrameStream(
            CATALOG["bicycle"],
            _trajectory(n_frames=8),
            _table(),
            detail=DETAIL,
            controller=controller,
        )
        report = stream.run(8)
        return _records(report), report.detail_trace

    assert run() == run()


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
def _digest_sessions(n=4, n_frames=6):
    return [
        StreamSession(
            f"d{i}",
            "bicycle",
            _trajectory(n_frames=n_frames, seed=i),
            detail=DETAIL,
            pipeline="digest",
        )
        for i in range(n)
    ]


def test_server_requires_models_for_digest():
    with StreamServer(workers=0) as server:
        with pytest.raises(ValidationError, match="workload models"):
            server.serve(_digest_sessions(n=1))


#: Digest sessions no backend given that table could render, and the
#: error each one is refused with.
UNSERVABLE = {
    "no models": ({}, None, "no workload models"),
    "uncalibrated scene": (
        {"scene": "bonsai"}, _table, "no workload model calibrated"
    ),
    "keep_images": ({"keep_images": True}, _table, "renders no images"),
}


@pytest.mark.parametrize("entry", ["begin", "submit"])
@pytest.mark.parametrize("backend", [StreamServer, EdgeFleet])
@pytest.mark.parametrize("case", sorted(UNSERVABLE))
def test_unservable_digest_session_is_refused_at_admission(
    case, backend, entry
):
    """Refused before the session exists, not inside ``step`` where
    the error would end the tick for every other session."""
    changes, table, match = UNSERVABLE[case]
    session = dataclasses.replace(_digest_sessions(n=1)[0], **changes)
    models = table() if table else None
    if backend is StreamServer:
        target, first = StreamServer(workers=0, models=models), [session]
    else:
        target = EdgeFleet(nodes=1, models=models)
        first = [SessionArrival(0.0, session)]
    with target:
        with pytest.raises(ValidationError, match=match):
            if entry == "begin":
                target.begin(first)
            else:
                target.begin([])
                target.submit(session)
        assert not target.has_session(session.session_id)


def test_digest_serve_renders_no_exact_frame(exact_renders):
    """The digest speedup, counted instead of timed: a digest serve
    makes zero exact-pipeline renders yet reports the calibrated
    sim_seconds of every frame."""
    trajectory = _trajectory()
    exact = FrameStream(CATALOG["bicycle"], trajectory, detail=DETAIL).run()
    table = _table()
    exact_renders.clear()
    session = StreamSession(
        "d", "bicycle", trajectory, detail=DETAIL, pipeline="digest"
    )
    with StreamServer(workers=0, models=table) as server:
        (result,) = server.serve([session])
    assert exact_renders == []
    assert [f.sim_seconds for f in result.report.frames] == [
        f.sim_seconds for f in exact.frames
    ]


def test_server_serves_mixed_pipelines():
    sessions = _digest_sessions(n=2)
    sessions.append(
        StreamSession(
            "exact0",
            "bicycle",
            _trajectory(n_frames=3, seed=9),
            detail=DETAIL,
        )
    )
    with StreamServer(workers=0, models=_table()) as server:
        results = server.serve(sessions)
    by_id = {r.session_id: r for r in results}
    assert by_id["d0"].report.n_frames == 6
    assert by_id["exact0"].report.n_frames == 3
    # Digest frames cost no host wall time by construction.
    assert all(
        f.wall_seconds == 0.0 for f in by_id["d0"].report.frames
    )
    assert any(f.wall_seconds > 0.0 for f in by_id["exact0"].report.frames)


def test_digest_crash_recovery_replay_is_byte_identical():
    """Kill a worker mid-serve in digest mode; checkpoint replay must
    reproduce the uninterrupted reports bit for bit."""
    sessions = _digest_sessions(n=3, n_frames=8)
    with StreamServer(workers=0, models=_table()) as server:
        baseline = server.serve(sessions)

    injector = lambda tick, w: tick == 2 and w == 0  # noqa: E731
    with StreamServer(
        workers=2, local=True, fault_injector=injector, models=_table()
    ) as server:
        recovered = server.serve(sessions)
        assert server.recoveries >= 1

    for before, after in zip(baseline, recovered):
        assert before.report.to_dict() == after.report.to_dict()
        assert _records(before.report) == _records(after.report)


@pytest.mark.fleet
def test_fleet_migration_preserves_digest_reports():
    """Cross-node checkpoint-replay migration of digest sessions never
    changes what a session streamed, only where."""
    sessions = _digest_sessions(n=6, n_frames=8)
    with StreamServer(workers=0, models=_table()) as server:
        baseline = {r.session_id: r.report for r in server.serve(sessions)}

    fleet = EdgeFleet(
        nodes=2,
        node_capacity=3,
        migration=True,
        migration_threshold=0.01,
        models=_table(),
    )
    with fleet:
        result = fleet.serve_sessions(_digest_sessions(n=6, n_frames=8))
    assert result.summary.sessions == 6
    for r in result.results:
        assert r.report.to_dict() == baseline[r.session_id].to_dict()


@pytest.mark.fleet
@pytest.mark.parametrize("sessions", [8, 12])
def test_fleet_active_router_tracks_peak_concurrency(sessions):
    """2 x 4 slots: a herd at capacity is admitted at once; a herd
    above it fills every slot, backs up the router queue, and is
    still served to the last session."""
    fleet = EdgeFleet(
        nodes=2,
        router="active",
        node_capacity=4,
        placement="rr",
        migration=False,
        models=_table(),
    )
    with fleet:
        result = fleet.serve_sessions(_digest_sessions(n=sessions, n_frames=4))
    assert result.peak_active == 8
    assert (result.max_queue_depth > 0) == (sessions > 8)
    assert result.summary.sessions == sessions
    assert max(result.active_trace) == result.peak_active
    assert len(result.active_trace) == len(result.queue_depth_trace)


@pytest.mark.fleet
def test_affinity_migration_probe_serves_every_session():
    """~2,000 compact light-mix digest sessions on 8 affinity-routed
    nodes (0.64 of the slots) with rebalancing on: the migration probe
    moves sessions and still serves every one (measured 2,038
    sessions, 7 single-hop moves)."""
    light = [
        a.session
        for a in TrafficGenerator(
            mix="light", rate=4000.0, duration=0.5, seed=7, detail=DETAIL,
            pipeline="digest", compact=True,
        ).generate()
    ]
    with EdgeFleet(
        nodes=8, node_capacity=400, router="affinity", placement="rr",
        migration=True, migration_threshold=0.3, models=_light_mix_table(),
    ) as fleet:
        result = fleet.serve_sessions(light)
    assert result.summary.sessions == len(light)
    assert len(result.migrations) >= 1
