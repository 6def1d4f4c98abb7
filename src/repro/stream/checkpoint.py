"""Lightweight session checkpoints for crash recovery and migration.

A :class:`SessionCheckpoint` is everything the serving layer needs to
resume a stream session on a *different* worker (or a respawned one)
with byte-identical output:

* **trajectory cursor** — the next frame index to render;
* **temporal cache resident set** — the
  :class:`~repro.core.reuse_cache.TemporalCacheState` snapshot
  (resident line ids + cumulative counters), which *does* shape every
  later frame's hit rates, memory traffic, and therefore simulated
  latency;
* **QoS controller state** — the detail/shard ladder position, so a
  recovered session walks the identical quality trace.

The warm binner is *not* shipped: the exact stream's ``seek``
restarts it cold, and warm binning is exact, so a cold binner
reproduces the same render lists and images; it merely reports a
lower ``BinningStats.reuse_fraction`` on the first recovered frame.

A checkpoint is an in-memory value: it moves by reference inside a
process and by pickle to a respawned worker, another node, or the
gateway's parked-session table.  There is no stored file format.

A subprocess worker ships a checkpoint to the server with every
successful tick, and the server sends it back to a worker on restore,
so the only state lost in a crash is the tick in flight — which the
server simply re-renders (deterministically) after replaying the
checkpoint.  An in-process worker ships none: the server captures one
from the live stream when extract, migrate or recover asks for it.

Recovery invariant: a session restored from the checkpoint of frame
``k-1`` renders frames ``k, k+1, ...`` byte-identical (images,
``sim_seconds``, per-frame and cumulative cache hit rates) to an
uninterrupted run.  Asserted in ``tests/stream/test_checkpoint.py``
and the worker-crash tests of ``tests/stream/test_stream_server.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.reuse_cache import TemporalCacheState
from repro.errors import ValidationError
from repro.stream.pipeline import FramePipeline
from repro.stream.qos import QoSControllerState


@dataclass(frozen=True)
class SessionCheckpoint:
    """Snapshot of one stream session's cross-frame state.

    Attributes
    ----------
    session_id:
        The session this checkpoint belongs to.
    scene / detail:
        Scene identity and nominal detail.  :func:`restore_checkpoint`
        validates both against the stream; the server additionally
        matches ``session_id`` against the descriptor before
        replaying, so a checkpoint is never applied to the wrong
        stream.
    next_frame:
        Trajectory cursor: the first frame the restored session will
        render.
    cache:
        Exported temporal reuse-cache state (resident set + cumulative
        counters).
    active_detail:
        Absolute detail of the last rendered frame's scene bundle.
        Equal to ``detail`` for fixed-quality sessions; under QoS it is
        whatever rung the controller had reached, and restore reloads
        that bundle so the *next* frame flushes the cache only if the
        controller actually changes rung — exactly as the
        uninterrupted run would.
    qos:
        Exported :class:`~repro.stream.qos.QualityController` state
        (``None`` for sessions without QoS).  Replaying it makes the
        recovered session walk the identical detail ladder, so the
        per-frame detail trace — and everything downstream of it —
        stays byte-identical.
    """

    session_id: str
    scene: str
    detail: float
    next_frame: int
    cache: TemporalCacheState
    active_detail: float
    qos: QoSControllerState | None = None

    @property
    def resident_lines(self) -> int:
        return self.cache.resident_lines

    def belongs_to(self, session) -> bool:
        """Whether this checkpoint snapshots ``session``'s stream.

        Matches identity (``session_id``), scene, and the *nominal*
        detail — the three fields that make replaying a checkpoint
        onto the wrong stream unrecoverable.  Used by worker-respawn
        restore and by cross-server session injection
        (:meth:`~repro.stream.server.StreamServer.inject_session`).
        """
        return (
            self.session_id == session.session_id
            and self.scene == session.scene
            and self.detail == session.detail
        )


def capture_checkpoint(
    session_id: str, stream: FramePipeline, detail: float | None = None
) -> SessionCheckpoint:
    """Snapshot a session's stream state after its latest frame.

    ``detail`` is the session's nominal detail; it defaults to the
    stream's own ``detail``.
    """
    return SessionCheckpoint(
        session_id=session_id,
        scene=stream.spec.name,
        detail=stream.detail if detail is None else detail,
        next_frame=stream.frames_rendered,
        cache=stream.cache_state.export_state(),
        active_detail=stream.active_detail,
        qos=(
            stream.controller.export_state()
            if stream.controller is not None
            else None
        ),
    )


def restore_checkpoint(
    stream: FramePipeline, checkpoint: SessionCheckpoint
) -> None:
    """Replay a checkpoint onto a freshly built pipeline stream.

    The stream must target the checkpoint's scene at its nominal
    detail; its cache simulator
    must match the exported policy/geometry (enforced by
    :meth:`~repro.core.reuse_cache.TemporalReuseSimulator.import_state`).
    After this call, ``stream.render_next()`` produces frame
    ``checkpoint.next_frame`` exactly as the uninterrupted session
    would have.
    """
    if stream.spec.name != checkpoint.scene:
        raise ValidationError(
            f"checkpoint of session '{checkpoint.session_id}' was taken on "
            f"scene '{checkpoint.scene}', stream renders '{stream.spec.name}'"
        )
    if checkpoint.detail != stream.detail:
        raise ValidationError(
            f"checkpoint of session '{checkpoint.session_id}' was taken at "
            f"detail {checkpoint.detail}, stream renders {stream.detail}"
        )
    if (checkpoint.qos is not None) != (stream.controller is not None):
        raise ValidationError(
            f"checkpoint of session '{checkpoint.session_id}' and the "
            "restored stream disagree about QoS control"
        )
    stream.cache_state.import_state(checkpoint.cache)
    if checkpoint.qos is not None:
        stream.controller.import_state(checkpoint.qos)
    if checkpoint.active_detail != stream.active_detail:
        # Reload the rung the session was on when checkpointed — the
        # imported cache state belongs to that bundle, and the next
        # frame must flush only on a *real* rung change.
        stream.load_detail(checkpoint.active_detail)
    stream.seek(checkpoint.next_frame)
