"""When a session checkpoint is cut, and that the trigger does not
change it.

A subprocess worker can die on its own, so it ships a checkpoint with
every rendered frame.  An in-process worker (``workers=0`` or
``local=True``) ships none: the server cuts one from the live stream
only when extract, migrate or recover asks.  The counts here are call
counts, not timings; the byte tests compare pickles across the two
triggers.
"""

import pickle

import pytest

from repro.scenes.catalog import CATALOG
from repro.stream import (
    CameraTrajectory,
    StreamServer,
    StreamSession,
    WorkloadModelTable,
    streaming_config,
)
from repro.stream import server as server_module

DETAIL = 0.25
N_FRAMES = 6

#: The in-process deployments: a single state and two local workers.
IN_PROCESS = [
    pytest.param({"workers": 0}, id="workers0"),
    pytest.param({"workers": 2, "local": True}, id="local2"),
]


@pytest.fixture(scope="module")
def models():
    return WorkloadModelTable.calibrate(
        ["female_4"],
        details=(DETAIL,),
        trajectories=("orbit",),
        n_frames=8,
        config=streaming_config(),
        seed=0,
    )


def _exact(session_id, seed, target_fps=None):
    spec = CATALOG["bicycle"]
    return StreamSession(
        session_id,
        "bicycle",
        CameraTrajectory.for_scene(
            spec, "head_jitter", n_frames=N_FRAMES, seed=seed, detail=DETAIL
        ),
        detail=DETAIL,
        target_fps=target_fps,
    )


def _adaptive_pair():
    """One QoS-adaptive exact session and one QoS-adaptive digest
    session; both controllers change rung within ``N_FRAMES``.

    Pickles memoize repeated string objects, and an id spelled like a
    checkpoint field name shares that name's interned string, so the
    ids here are not identifiers.
    """
    spec = CATALOG["female_4"]
    return [
        _exact("exact-qos", seed=2, target_fps=300.0),
        StreamSession(
            "digest-qos",
            "female_4",
            CameraTrajectory.for_scene(
                spec, "orbit", n_frames=N_FRAMES, detail=DETAIL
            ),
            detail=DETAIL,
            pipeline="digest",
            target_fps=2000.0,
        ),
    ]


@pytest.fixture
def captures(monkeypatch):
    """Session ids the server process passed to ``capture_checkpoint``."""
    calls = []
    capture = server_module.capture_checkpoint

    def counting(session_id, stream, *args):
        calls.append(session_id)
        return capture(session_id, stream, *args)

    monkeypatch.setattr(server_module, "capture_checkpoint", counting)
    return calls


@pytest.fixture(scope="module")
def shipped(models):
    """Pickled checkpoint a 1-worker subprocess server kept for each
    session after each of its frames."""
    out = {s.session_id: [] for s in _adaptive_pair()}
    with StreamServer(workers=1, models=models, placement="rr") as server:
        server.begin(_adaptive_pair())
        while server.n_active:
            for session_id, record in server.step().frames:
                checkpoint = server._live[session_id].checkpoint
                assert checkpoint.next_frame == record.frame + 1
                out[session_id].append(pickle.dumps(checkpoint))
        server.finish()
    assert all(len(frames) == N_FRAMES for frames in out.values())
    return out


# ----------------------------------------------------------------------
# Call counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", IN_PROCESS)
def test_in_process_serve_captures_no_checkpoint(kwargs, captures):
    sessions = [_exact(f"s{i}", seed=i) for i in range(3)]
    with StreamServer(placement="rr", **kwargs) as server:
        results = server.serve(sessions)
    assert [r.report.n_frames for r in results] == [N_FRAMES] * 3
    assert captures == []


def test_one_extract_cuts_one_checkpoint(captures):
    with StreamServer(workers=0) as server:
        server.begin([_exact(f"s{i}", seed=i) for i in range(3)])
        server.step()
        server.step()
        _, checkpoint, _ = server.extract_session("s1")
        assert captures == ["s1"]
        assert checkpoint.next_frame == 2
        while server.n_active:
            server.step()
        server.finish()
    assert captures == ["s1"]


def test_in_process_recovery_cuts_one_checkpoint_per_session(captures):
    """An injected fault replaces an in-process worker's state; the
    checkpoints it replays are cut from the old state, one each."""
    crash = lambda tick, worker: tick == 2  # noqa: E731
    with StreamServer(workers=0, fault_injector=crash) as server:
        server.serve([_exact(f"s{i}", seed=i) for i in range(3)])
        assert server.recoveries == 1
    assert sorted(captures) == ["s0", "s1", "s2"]


def test_subprocess_worker_ships_a_checkpoint_per_frame(monkeypatch):
    """Every rendered frame of a 1-worker subprocess server comes back
    with its session's checkpoint in ``TickResult.checkpoints``."""
    ticks = []
    run_tick = StreamServer._run_tick

    def recording(self, assignments):
        results = run_tick(self, assignments)
        ticks.extend(results)
        return results

    monkeypatch.setattr(StreamServer, "_run_tick", recording)
    sessions = [_exact(f"s{i}", seed=i) for i in range(3)]
    with StreamServer(workers=1, placement="rr") as server:
        server.serve(sessions)
    frames = [(sid, record) for tick in ticks for sid, record in tick.frames]
    assert len(frames) == 3 * N_FRAMES
    for tick in ticks:
        assert set(tick.checkpoints) == {sid for sid, _ in tick.frames}
        for session_id, record in tick.frames:
            assert tick.checkpoints[session_id].next_frame == record.frame + 1


# ----------------------------------------------------------------------
# Byte identity across triggers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", IN_PROCESS)
@pytest.mark.parametrize("frame", range(N_FRAMES))
def test_extract_after_each_frame_matches_the_shipped_checkpoint(
    kwargs, frame, models, shipped
):
    """Extracted after frame ``frame`` (the last one included, when the
    session is already done), an in-process session's checkpoint
    pickles to the bytes a subprocess worker shipped for that frame."""
    with StreamServer(models=models, placement="rr", **kwargs) as server:
        server.begin(_adaptive_pair())
        for _ in range(frame + 1):
            server.step()
        for session_id, frames in shipped.items():
            _, checkpoint, report = server.extract_session(session_id)
            assert report.n_frames == frame + 1
            assert pickle.dumps(checkpoint) == frames[frame]
        server.finish()


@pytest.mark.parametrize("kwargs", IN_PROCESS)
@pytest.mark.parametrize("frame", [0, N_FRAMES // 2, N_FRAMES - 1])
def test_inject_then_extract_returns_the_injected_checkpoint(
    kwargs, frame, models, shipped
):
    """With no tick in between, the checkpoint cut from the restored
    stream is the one that was injected, byte for byte."""
    sessions = {s.session_id: s for s in _adaptive_pair()}
    with StreamServer(models=models, placement="rr", **kwargs) as server:
        server.begin([])
        for session_id, frames in shipped.items():
            server.inject_session(
                sessions[session_id], pickle.loads(frames[frame])
            )
            _, checkpoint, _ = server.extract_session(session_id)
            assert pickle.dumps(checkpoint) == frames[frame]
        server.finish()
