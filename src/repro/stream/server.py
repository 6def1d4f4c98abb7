"""Multi-session stream serving over a fault-tolerant worker pool.

A :class:`StreamServer` multiplexes N concurrent client sessions
(scene + trajectory pairs) over a pool of workers:

* **One GBU per worker** — each worker owns a single
  :class:`~repro.core.gbu.GBUDevice` shared by every session assigned
  to it; each frame is one synchronous
  :meth:`~repro.core.gbu.GBUDevice.render` call, so no frame is ever
  left in flight between sessions.
* **Process isolation** — workers are single-process
  ``concurrent.futures.ProcessPoolExecutor`` instances (one per
  worker, giving session→worker affinity for the cross-frame state);
  ``workers=0`` runs everything in the calling process, and
  ``local=True`` runs N in-process worker states — the deterministic
  modes used by tests and benchmarks.
* **Scheduling** — session placement, admission control and
  rebalancing live in :mod:`repro.stream.scheduler` (``placement="rr"``
  arrival order, ``"load"`` cost-based).  Workers report
  budget-exhausted sessions back, so finished streams stop costing a
  dispatch per tick.
* **Fault tolerance** — a subprocess worker ships a
  :class:`~repro.stream.checkpoint.SessionCheckpoint` per rendered
  session with every successful tick, since it can die on its own.
  An in-process worker (``workers=0`` or ``local=True``) ships none:
  the server cuts a checkpoint from its live stream only when
  extract, migrate or recover asks for one.  When a worker dies
  mid-serve (``BrokenProcessPool``, or an injected fault in the
  deterministic modes) the server respawns the worker, replays the
  checkpoints of its unfinished sessions, and re-renders the lost
  tick — recovered sessions produce frames byte-identical to an
  uninterrupted run.  The same replay machinery powers load
  rebalancing migrations.
* **Same-scene request batching** — sessions assigned to a worker are
  grouped by scene, so one dispatched tick renders every same-scene
  session's next frame from a single scene build (the catalog bundle
  is constructed once per (worker, scene, detail) and kept in a
  bounded per-worker LRU).
* **Quality of service** — sessions with a ``target_fps`` run under
  the closed-loop detail controller of :mod:`repro.stream.qos`;
  controller state rides along in the session checkpoints, so
  recovery and migration replay the identical detail ladder.
* **Cross-frame state** — every session keeps its own
  :class:`~repro.stream.pipeline.FrameStream` (warm binner + temporal
  reuse cache) alive on its worker for the whole stream; sessions
  never share state, only the device and scene bundles.

The scheduler is tick-based: each round trip renders at most one frame
per admitted session, keeping all sessions progressing together the
way a real-time multiplexer would, instead of draining one client
before starting the next.

Serving comes in two shapes over the same machinery: the closed
:meth:`StreamServer.serve` call (a fixed session list streamed to
completion) and the incremental protocol — :meth:`StreamServer.begin`,
:meth:`~StreamServer.submit`, :meth:`~StreamServer.step`,
:meth:`~StreamServer.finish` — that open-ended callers drive tick by
tick.  :meth:`~StreamServer.extract_session` /
:meth:`~StreamServer.inject_session` move a live session between
servers as a (descriptor, checkpoint, report) triple; the fleet layer
(:mod:`repro.stream.fleet`) builds cross-node migration on exactly
this.

A live session is one entry on each side of the worker boundary, and
every lifecycle path adds, moves or drops whole entries:

* **Server** (``_Live``: descriptor, report with completion stamps,
  latest shipped or injected checkpoint, a finished in-process
  stream's final state, ``shipped`` flag) — added by ``begin``,
  ``submit`` and ``inject_session``; ``step`` fills it; handed to
  another server by ``extract_session``; published and dropped by
  ``finish``.
* **Worker** (``_Hosted``: stream, frame budget, content view) — added
  by the first tick that names the session, or by a replay
  (``_recover_worker``, ``_apply_migrations``, ``inject_session``);
  dropped when the worker reports the session done, on a migration
  away (``_apply_migrations``, ``extract_session``) and by ``reset``.

The scheduler keeps its own plan per session: placement and tick
order follow the plans' insertion order.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.core.gbu import GBUConfig, GBUDevice
from repro.core.reuse_cache import CacheEconomics
from repro.errors import SimulationError, ValidationError
from repro.scenes import BundleCache, SceneSpec
from repro.scenes.catalog import CATALOG
from repro.stream.checkpoint import (
    SessionCheckpoint,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.stream.content_cache import (
    CacheTier,
    ContentCacheConfig,
    SessionContentView,
    merge_economics,
)
from repro.stream.digest import DigestFrameStream, WorkloadModelTable
from repro.stream.pipeline import (
    PIPELINES,
    FramePipeline,
    FrameStream,
    StreamReport,
    streaming_config,
)
from repro.stream.qos import (
    QOS_MODES,
    FrameDeadline,
    QoSPolicy,
    QualityController,
)
from repro.stream.reporting import ServeSummary, SessionResult, TickResult
from repro.stream.scheduler import Migration, StreamScheduler, make_scheduler
from repro.stream.trajectory import TRAJECTORY_KINDS, CameraTrajectory

__all__ = [
    "MAX_DETAIL",
    "SESSION_FIELD_RULES",
    "ServeSummary",
    "SessionResult",
    "StreamServer",
    "StreamSession",
    "TickResult",
    "check_servable",
    "check_session_field",
]


@dataclass(frozen=True)
class StreamSession:
    """One client's stream request.

    Attributes
    ----------
    session_id:
        Unique identifier within a :meth:`StreamServer.serve` call.
    scene:
        Catalog scene name.
    trajectory:
        The client's camera path; its length bounds the stream unless
        ``n_frames`` says otherwise.
    n_frames:
        Frames to render (``None``: the whole trajectory).
    detail:
        Scene detail multiplier (tests use < 1).
    keep_images:
        Ship rendered images back with the result.
    config:
        GBU feature configuration (default: :func:`streaming_config`).
        Workers share one device per distinct configuration.
    target_fps:
        When set, the session runs under deadline-aware quality
        control (:mod:`repro.stream.qos`): each frame is judged
        against the ``1/target_fps`` budget and a per-session
        controller adapts detail frame-by-frame.  ``None`` keeps the
        fixed-detail behaviour.
    qos:
        Controller knobs (:class:`~repro.stream.qos.QoSPolicy`);
        defaults to the standard adaptive policy.  Use
        :meth:`QoSPolicy.fixed` to track deadlines without adapting.
        Ignored unless ``target_fps`` is set.
    pipeline:
        Frame-pipeline mode (:data:`~repro.stream.pipeline.PIPELINES`):
        ``"exact"`` renders every frame; ``"digest"`` advances the
        session from calibrated :class:`~repro.stream.digest.
        WorkloadModel` s (the server must be given a model table).
        Digest sessions cannot keep images.
    """

    session_id: str
    scene: str
    trajectory: CameraTrajectory
    n_frames: int | None = None
    detail: float = 1.0
    keep_images: bool = False
    config: GBUConfig | None = None
    target_fps: float | None = None
    qos: QoSPolicy | None = None
    pipeline: str = "exact"

    @property
    def frame_budget(self) -> int:
        return self.trajectory.n_frames if self.n_frames is None else self.n_frames


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


#: The largest scene detail a session may ask for.  A scene bundle
#: grows linearly with detail: the largest catalog scene (bicycle,
#: 2,600 Gaussians, ~0.79 MB at detail 1) builds 41,600 Gaussians in
#: ~12.6 MB at 16 and renders at 1024x672.  ``detail: 1e9`` would ask
#: the build for ~790 TB and fail with ``MemoryError``.
MAX_DETAIL = 16.0


#: The checks a session descriptor shares with the ``repro-stream``
#: flags: field -> (predicate, message).  ``{label}`` is the caller's
#: name for the field (``--detail`` on the command line, ``'detail'``
#: in a gateway ``hello``) and ``{value!r}`` the rejected value.
#: Floats must be finite: ``json.loads`` accepts ``NaN``, which passes
#: every ordering test.
SESSION_FIELD_RULES = {
    "scene": (
        lambda scene: isinstance(scene, str) and scene in CATALOG,
        "unknown scene {value!r}; choose from " + ", ".join(sorted(CATALOG)),
    ),
    "detail": (
        lambda detail: _positive(detail) and detail <= MAX_DETAIL,
        "{label} must be positive, finite and at most " + f"{MAX_DETAIL:g}",
    ),
    "frames": (
        lambda n: n >= 1,
        "{label} must be at least 1: a session needs at least one frame",
    ),
    "seed": (lambda seed: seed >= 0, "{label} cannot be negative"),
    "phase": (math.isfinite, "{label} must be finite"),
    "target_fps": (_positive, "{label} must be positive and finite"),
    "qos": (
        QOS_MODES.__contains__,
        "{label} must be " + " or ".join(map(repr, QOS_MODES)),
    ),
    "pipeline": (
        PIPELINES.__contains__,
        "unknown pipeline {value!r}; choose from " + ", ".join(PIPELINES),
    ),
    "trajectory": (
        TRAJECTORY_KINDS.__contains__,
        "unknown trajectory kind {value!r}; choose from "
        + ", ".join(TRAJECTORY_KINDS),
    ),
}


def check_session_field(field: str, value, label: str):
    """Return ``value`` if it passes ``field``'s rule in
    :data:`SESSION_FIELD_RULES`, else raise :class:`ValidationError`
    naming it ``label``."""
    valid, message = SESSION_FIELD_RULES[field]
    if not valid(value):
        raise ValidationError(message.format(label=label, value=value))
    return value


def check_servable(
    session: StreamSession, models: WorkloadModelTable | None
) -> None:
    """Refuse a session that no worker given ``models`` could render.

    Both backends call this at admission (``submit``/``begin``), so a
    digest session without a calibrated model, or one asking for
    images, fails before it exists instead of raising inside ``step``
    for the whole tick.  O(1): one set lookup in the model table.
    """
    if session.pipeline != "digest":
        return
    if models is None:
        raise ValidationError(
            f"session '{session.session_id}' requests the digest pipeline "
            "but the server has no workload models (models=...)"
        )
    if session.keep_images:
        raise ValidationError(
            "the digest pipeline renders no images; "
            "keep_images requires pipeline='exact'"
        )
    models.require(session.scene, session.trajectory.kind)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _Hosted(NamedTuple):
    """One session on a worker: everything ``render_tick`` needs."""

    stream: FramePipeline
    budget: int
    view: SessionContentView | None


class _Retired(NamedTuple):
    """What :func:`~repro.stream.checkpoint.capture_checkpoint` reads
    of a finished stream.

    An in-process worker keeps this instead of a final checkpoint, so a
    finished session can still be extracted without a capture per
    session or the stream's scene bundle staying alive.  Nothing
    advances these objects once the stream is done.
    """

    spec: SceneSpec
    detail: float
    frames_rendered: int
    cache_state: object
    active_detail: float
    controller: QualityController | None

    @classmethod
    def of(cls, stream: FramePipeline) -> "_Retired":
        return cls(
            stream.spec,
            stream.detail,
            stream.frames_rendered,
            stream.cache_state,
            stream.active_detail,
            stream.controller,
        )


class _WorkerState:
    """Per-worker serving state: one device, shared bundles, and one
    :class:`_Hosted` entry per session in ``hosted``.

    Scene bundles live in a bounded :class:`~repro.scenes.BundleCache`
    keyed ``(scene, detail)``: adaptive-quality sessions touch one
    bundle per detail rung they visit, so an unbounded mapping would
    grow for the lifetime of the worker.

    This is the subprocess worker: it can die on its own, so every
    rendered frame ships the session's checkpoint in
    :attr:`TickResult.checkpoints`.
    """

    ships_checkpoints = True

    def __init__(
        self,
        bundle_cache_size: int = 8,
        content: ContentCacheConfig | None = None,
        content_parent: CacheTier | None = None,
        bundle_builder=None,
        models: WorkloadModelTable | None = None,
    ) -> None:
        self.devices: dict[GBUConfig, GBUDevice] = {}
        self.bundle_builder = bundle_builder
        self.bundles = BundleCache(
            capacity=bundle_cache_size, builder=bundle_builder
        )
        self.models = models
        self.hosted: dict[str, _Hosted] = {}
        #: Sessions this tick finished, when checkpoints are not
        #: shipped; the server takes them after every tick.
        self.retired: dict[str, _Retired] = {}
        # Content-addressed render cache: this worker owns the worker
        # tier (chained to the server's node tier when in-process; a
        # subprocess worker's chain ends here) and one session tier per
        # hosted session, created in _register.
        self.content_config = content
        self.content_parent = content_parent
        self.worker_tier: CacheTier | None = None
        if content is not None:
            self.worker_tier = CacheTier(
                "worker", content.worker_bytes, parent=content_parent
            )

    def reset(self, bundle_cache_size: int | None = None) -> None:
        self.devices.clear()
        if bundle_cache_size is not None:
            self.bundles = BundleCache(
                capacity=bundle_cache_size, builder=self.bundle_builder
            )
        else:
            self.bundles.clear()
        self.hosted.clear()
        self.retired.clear()
        if self.content_config is not None:
            self.worker_tier = CacheTier(
                "worker",
                self.content_config.worker_bytes,
                parent=self.content_parent,
            )

    def _device_for(self, config: GBUConfig) -> GBUDevice:
        if config not in self.devices:
            self.devices[config] = GBUDevice(config=config)
        return self.devices[config]

    def _register(self, session: StreamSession) -> _Hosted:
        """Build a fresh stream for ``session`` and host it (replacing
        any entry under the same id)."""
        if session.pipeline not in PIPELINES:
            raise ValidationError(
                f"unknown pipeline '{session.pipeline}' "
                f"(choose from {PIPELINES})"
            )
        config = streaming_config() if session.config is None else session.config
        controller = None
        if session.target_fps is not None:
            controller = QualityController(
                FrameDeadline(session.target_fps),
                session.qos,
                nominal_detail=session.detail,
            )
        view = None
        if self.content_config is not None:
            session_tier = CacheTier(
                "session",
                self.content_config.session_bytes,
                parent=self.worker_tier,
            )
            view = SessionContentView(self.content_config, session_tier)
        if session.pipeline == "digest":
            check_servable(session, self.models)
            stream = DigestFrameStream(
                session.scene,
                session.trajectory,
                self.models,
                config=config,
                detail=session.detail,
                keep_images=session.keep_images,
                controller=controller,
                content=view,
            )
        else:
            bundle = self.bundles.get(session.scene, session.detail)
            stream = FrameStream(
                session.scene,
                session.trajectory,
                detail=session.detail,
                keep_images=session.keep_images,
                bundle=bundle,
                device=self._device_for(config),
                controller=controller,
                bundle_provider=self.bundles.get,
                content=view,
            )
        hosted = _Hosted(stream, session.frame_budget, view)
        self.hosted[session.session_id] = hosted
        return hosted

    def render_tick(self, sessions: list[StreamSession | str]) -> TickResult:
        """Render the next frame of every (unfinished) session given.

        The sessions of one tick batch share a scene, so they render
        back-to-back from the same bundle on this worker's device.
        After a session's first tick the scheduler sends only its id
        (the full descriptor — trajectory parameters included — crosses
        the process boundary once); an id this worker does not host is
        a :class:`ValidationError`.  Budget-exhausted sessions render
        nothing and are reported in ``done`` so the scheduler stops
        dispatching them.  A session reported ``done`` is released
        here: its entry leaves this worker (for ``retired`` when no
        checkpoints are shipped).
        """
        result = TickResult()
        hosted_by_id = self.hosted
        ships_checkpoints = self.ships_checkpoints
        for session in sessions:
            session_id = session if isinstance(session, str) else session.session_id
            hosted = hosted_by_id.get(session_id)
            if hosted is None:
                if isinstance(session, str):
                    raise ValidationError(
                        f"session '{session_id}' referenced by id before "
                        "registration"
                    )
                hosted = self._register(session)
            stream = hosted.stream
            if stream.frames_rendered < hosted.budget:
                result.frames.append((session_id, stream.render_next()))
                if ships_checkpoints:
                    result.checkpoints[session_id] = capture_checkpoint(
                        session_id, stream
                    )
                if hosted.view is not None:
                    merge_economics(result.content, hosted.view.drain())
            if stream.frames_rendered >= hosted.budget:
                result.done.append(session_id)
                del hosted_by_id[session_id]
                if not ships_checkpoints:
                    self.retired[session_id] = _Retired.of(stream)
        return result

    def restore_sessions(
        self, payload: list[tuple[StreamSession, SessionCheckpoint | None]]
    ) -> None:
        """(Re)register sessions, replaying checkpoints where given.

        Used after a worker respawn (fresh process, every session of
        the dead worker is replayed) and for migrations (one session
        arrives on an already-running worker).  A ``None`` checkpoint
        means the session had not rendered any frame yet and simply
        starts from frame 0.
        """
        for session, ckpt in payload:
            if ckpt is not None and not ckpt.belongs_to(session):
                raise ValidationError(
                    f"checkpoint ({ckpt.session_id}, {ckpt.scene}, "
                    f"detail={ckpt.detail}) does not belong to session "
                    f"({session.session_id}, {session.scene}, "
                    f"detail={session.detail})"
                )
            hosted = self._register(session)
            if ckpt is not None:
                restore_checkpoint(hosted.stream, ckpt)

    def drop_sessions(self, session_ids: list[str]) -> None:
        """Forget sessions that moved to another worker or server."""
        for session_id in session_ids:
            self.hosted.pop(session_id, None)


class _InProcessWorker(_WorkerState):
    """A worker state in the server's own process (``workers=0`` or
    ``local=True``).

    It loses nothing between ticks unless the server loses it too, so
    it ships no checkpoints: the server cuts one from the live stream
    (or from a finished session's :class:`_Retired` state) when
    extract, migrate or recover asks for it.
    """

    ships_checkpoints = False


_STATE: _WorkerState | None = None


def _subprocess_state() -> _WorkerState:
    global _STATE
    if _STATE is None:
        _STATE = _WorkerState()
    return _STATE


def _subprocess_call(method: str, *args):
    """Run one :class:`_WorkerState` method on this process's state."""
    return getattr(_subprocess_state(), method)(*args)


def _subprocess_reset(
    bundle_cache_size: int | None = None,
    content: ContentCacheConfig | None = None,
    models: WorkloadModelTable | None = None,
) -> None:
    """Reset the subprocess worker, optionally (re)arming its content
    cache and digest workload models.  Only config and models cross
    the process boundary: a subprocess worker's tier chain ends at its
    own worker tier (node/fleet tiers and bundle interning cannot
    share memory across processes — the deterministic ``local`` modes
    exercise the full hierarchy)."""
    global _STATE
    if content is not None or models is not None:
        _STATE = _WorkerState(
            bundle_cache_size=(
                bundle_cache_size if bundle_cache_size is not None else 8
            ),
            content=content,
            models=models,
        )
        return
    _subprocess_state().reset(bundle_cache_size)


def _subprocess_crash() -> None:  # pragma: no cover - kills the process
    """Fault injection: die the way a crashed worker does."""
    os._exit(13)


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
@dataclass(slots=True, eq=False)
class _Live:
    """One session of the open serve, as the server tracks it.

    ``report`` accumulates the frames streamed so far and their
    completion stamps.  ``checkpoint`` is the latest one a subprocess
    worker shipped back with a frame, or the one the session was
    injected with (``None`` before either).  An in-process worker
    ships none; :meth:`StreamServer._checkpoint_of` cuts one from its
    live stream, or from ``retired`` — the final state of a session it
    finished — when extract, migrate or recover asks.  ``shipped`` is
    set once the hosting worker holds the full descriptor, so later
    ticks send only the id.
    """

    session: StreamSession
    report: StreamReport
    checkpoint: SessionCheckpoint | None = None
    retired: _Retired | None = None
    shipped: bool = False


def _new_report(session: StreamSession) -> StreamReport:
    return StreamReport(scene=session.scene, trajectory=session.trajectory.kind)


class StreamServer:
    """Serve N concurrent stream sessions over a worker pool.

    Parameters
    ----------
    workers:
        Worker processes.  ``0`` serves in the calling process (no
        pool, fully deterministic); ``>= 1`` spawns that many
        single-process executors, giving every worker exclusive,
        long-lived session state.
    placement:
        Session→worker policy: ``"load"`` (default, cost-based with
        rebalancing) or ``"rr"`` (arrival-order round-robin).  See
        :mod:`repro.stream.scheduler`.
    max_inflight:
        Admission control: at most this many sessions are served
        concurrently; the rest queue and are admitted as sessions
        finish.  ``None`` admits everything immediately.
    rebalance_threshold:
        Relative remaining-cost spread above which the load-aware
        policy migrates a session (ignored by ``"rr"``).
    max_respawns:
        Worker crashes tolerated per ``serve`` before giving up with
        :class:`~repro.errors.SimulationError`.
    fault_injector:
        Test/chaos hook ``(tick, worker) -> bool``; returning True
        kills that worker just before the tick is dispatched (process
        workers die via ``os._exit``, deterministic modes lose their
        state), exercising the recovery path.
    local:
        With ``workers >= 1``, keep that many *in-process* worker
        states instead of spawning processes — full scheduling,
        batching and recovery semantics, fully deterministic, no IPC.
        Used by tests and the placement and QoS studies.
    estimator:
        Override the static per-frame cost proxy
        (:func:`~repro.stream.scheduler.static_frame_estimate`);
        tests inject deliberately wrong estimates to exercise the
        rebalancing path.
    bundle_cache_size:
        Capacity of each worker's bounded ``(scene, detail)``
        bundle LRU (adaptive sessions touch one bundle per detail
        rung; see :class:`~repro.scenes.BundleCache`).
    content_cache:
        Enable the tiered content-addressed render cache
        (:mod:`repro.stream.content_cache`).  The server owns the node
        tier (cleared per :meth:`begin`); each worker owns a worker
        tier chained to it, each session a session tier chained to
        that.  Subprocess workers keep session+worker tiers only (no
        shared memory across processes).  Per-tier economics accumulate
        in :attr:`content_totals` and ride on each tick's
        :class:`TickResult`.
    content_parent:
        Tier the node tier chains to (the fleet tier — set by
        :class:`~repro.stream.fleet.EdgeFleet`).
    bundle_builder:
        ``(scene, detail) -> SceneBundle`` override for worker bundle
        caches; the fleet passes its
        :class:`~repro.stream.content_cache.BundleIntern` so
        co-located workers share one immutable bundle per
        ``(scene, detail)``.
    models:
        Calibrated :class:`~repro.stream.digest.WorkloadModelTable`
        backing sessions with ``pipeline="digest"``.  Required before
        any digest session is served; exact sessions ignore it.  The
        table is shipped to every worker (it is a plain picklable
        registry).
    """

    def __init__(
        self,
        workers: int = 2,
        placement: str = "load",
        max_inflight: int | None = None,
        rebalance_threshold: float = 0.25,
        max_respawns: int = 2,
        fault_injector: Callable[[int, int], bool] | None = None,
        local: bool = False,
        estimator: Callable[[str, float], float] | None = None,
        bundle_cache_size: int = 8,
        content_cache: ContentCacheConfig | None = None,
        content_parent: CacheTier | None = None,
        bundle_builder=None,
        models: WorkloadModelTable | None = None,
    ) -> None:
        if workers < 0:
            raise ValidationError("worker count cannot be negative")
        if max_respawns < 0:
            raise ValidationError("max_respawns cannot be negative")
        if bundle_cache_size < 1:
            raise ValidationError("bundle cache size must be at least 1")
        self.workers = workers
        self.bundle_cache_size = bundle_cache_size
        self.placement = placement
        self.max_inflight = max_inflight
        self.rebalance_threshold = rebalance_threshold
        self.max_respawns = max_respawns
        self.fault_injector = fault_injector
        self.estimator = estimator
        self.local = local or workers == 0
        self.content_cache = content_cache
        self.models = models
        self._bundle_builder = bundle_builder
        self._node_tier: CacheTier | None = None
        if content_cache is not None:
            self._node_tier = CacheTier(
                "node", content_cache.node_bytes, parent=content_parent
            )
        #: Per-tier content-cache economics accumulated over the open
        #: serve (reset by :meth:`begin`); empty without a content
        #: cache.
        self.content_totals: dict[str, CacheEconomics] = {}
        self._n_workers = max(workers, 1)
        self._executors: list[ProcessPoolExecutor] = []
        self._local_states: list[_WorkerState] = []
        #: Worker respawns performed during the last ``serve``.
        self.recoveries: int = 0
        #: Checkpoint migrations executed during the last ``serve``.
        self.migrations: list[Migration] = []
        #: Per-worker summed paper-scale busy seconds of the last
        #: ``serve`` (frames attributed to the rendering worker, exact
        #: under migration).
        self.worker_busy_seconds: dict[int, float] = {}
        # Incremental-serving state (between begin() and finish()):
        # one entry per live session, in submission order.
        self._scheduler: StreamScheduler | None = None
        self._live: dict[str, _Live] = {}
        self._steps = 0

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "StreamServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        for executor in self._executors:
            executor.shutdown()
        self._executors.clear()
        self._local_states.clear()

    def _ensure_pool(self) -> None:
        if self.local:
            while len(self._local_states) < self._n_workers:
                self._local_states.append(self._new_local_state())
            return
        while len(self._executors) < self.workers:
            self._executors.append(ProcessPoolExecutor(max_workers=1))

    def _new_local_state(self) -> _WorkerState:
        return _InProcessWorker(
            bundle_cache_size=self.bundle_cache_size,
            content=self.content_cache,
            content_parent=self._node_tier,
            bundle_builder=self._bundle_builder,
            models=self.models,
        )

    # -- scheduling -----------------------------------------------------
    @staticmethod
    def _scene_batches(
        sessions: list[StreamSession],
    ) -> list[list[StreamSession]]:
        """Group one worker's sessions into same-scene batches."""
        by_scene: dict[str, list[StreamSession]] = {}
        for s in sessions:
            by_scene.setdefault(s.scene, []).append(s)
        return list(by_scene.values())

    # -- incremental serving --------------------------------------------
    @property
    def serving(self) -> bool:
        """A serve is open (between :meth:`begin` and :meth:`finish`)."""
        return self._scheduler is not None

    @property
    def n_active(self) -> int:
        """Admitted, unfinished sessions (0 outside an open serve)."""
        return self._scheduler.inflight if self.serving else 0

    @property
    def n_queued(self) -> int:
        """Sessions waiting in the admission queue."""
        return self._scheduler.n_queued if self.serving else 0

    @property
    def busy_makespan(self) -> float:
        """Busiest worker's simulated busy seconds of the open serve."""
        if not self.serving:
            return max(self.worker_busy_seconds.values(), default=0.0)
        return max(self._scheduler.busy_seconds.values(), default=0.0)

    def begin(self, sessions: list[StreamSession] | None = None) -> None:
        """Open an incremental serve.

        Unlike :meth:`serve` this does not run to completion: the
        caller drives ticks with :meth:`step`, may :meth:`submit` new
        sessions at any point (open-loop traffic), and collects
        results with :meth:`finish`.  The fleet layer
        (:mod:`repro.stream.fleet`) is built on this protocol.
        """
        if self.serving:
            raise ValidationError("a serve is already open on this server")
        sessions = list(sessions or [])
        live = {s.session_id: _Live(s, _new_report(s)) for s in sessions}
        if len(live) != len(sessions):
            raise ValidationError("session ids must be unique")
        for session in sessions:
            check_servable(session, self.models)
        self._ensure_pool()
        self._reset_workers()
        if self._node_tier is not None:
            self._node_tier.clear()
        self.content_totals = {}
        kwargs = {} if self.estimator is None else {"estimator": self.estimator}
        self._scheduler = make_scheduler(
            self.placement,
            sessions,
            self._n_workers,
            max_inflight=self.max_inflight,
            rebalance_threshold=self.rebalance_threshold,
            **kwargs,
        )
        self._live = live
        self._steps = 0
        self.recoveries = 0
        self.migrations = []
        self.worker_busy_seconds = {}

    def submit(self, session: StreamSession) -> None:
        """Add a session to the open serve (admission rules apply)."""
        if not self.serving:
            raise ValidationError("submit requires an open serve (begin first)")
        if session.session_id in self._live:
            raise ValidationError(
                f"session id '{session.session_id}' is already being served"
            )
        check_servable(session, self.models)
        self._live[session.session_id] = _Live(session, _new_report(session))
        self._scheduler.add_session(session)

    def step(self) -> TickResult:
        """Run one scheduling tick: render at most one frame per
        admitted session, recover crashes, apply rebalancing.

        Returns the tick's merged :class:`TickResult` (empty when
        every session has drained — the caller's stop signal).  The
        merged result carries no checkpoints: a subprocess worker's
        are kept on each session's server entry instead, and an
        in-process worker ships none.
        """
        if not self.serving:
            raise ValidationError("step requires an open serve (begin first)")
        scheduler = self._scheduler
        assignments = scheduler.tick_assignments()
        if not assignments:
            return TickResult()
        self._inject_faults(self._steps, assignments)
        results = self._run_tick(assignments)
        live = self._live
        busy = scheduler.busy_seconds
        for tick_result in results:
            for session_id, record in tick_result.frames:
                report = live[session_id].report
                report.frames.append(record)
                scheduler.observe_frame(
                    session_id, record.sim_seconds, detail=record.detail
                )
                report.completions.append(
                    busy[scheduler.worker_of(session_id)]
                )
            for session_id in tick_result.done:
                scheduler.mark_done(session_id)
        self._apply_migrations()
        self.worker_busy_seconds = dict(scheduler.busy_seconds)
        self._steps += 1
        merged = TickResult.merged(results)
        merge_economics(self.content_totals, merged.content)
        return merged

    def finish(self) -> list[SessionResult]:
        """Close the open serve and return the per-session results.

        Sessions are reported in submission order; a session migrated
        away with :meth:`extract_session` is reported by the server it
        migrated *to* (its report, completion stamps included, travels
        with it).
        """
        if not self.serving:
            raise ValidationError("finish requires an open serve (begin first)")
        scheduler = self._scheduler
        results = [
            SessionResult(
                session_id=session_id,
                scene=entry.report.scene,
                worker=scheduler.worker_of(session_id),
                report=entry.report,
            )
            for session_id, entry in self._live.items()
        ]
        self.worker_busy_seconds = dict(scheduler.busy_seconds)
        self._scheduler = None
        self._live = {}
        return results

    # -- cross-server migration ----------------------------------------
    def extract_session(
        self, session_id: str
    ) -> tuple[StreamSession, SessionCheckpoint | None, StreamReport]:
        """Remove a session from the open serve for migration elsewhere.

        Returns the session descriptor, its latest checkpoint (``None``
        when no frame rendered yet) and the frames streamed so far —
        everything :meth:`inject_session` on another server needs to
        resume the stream byte-identically.
        """
        if not self.serving:
            raise ValidationError("extract requires an open serve")
        entry = self._entry(session_id)
        worker = self._scheduler.worker_of(session_id)  # -1: still queued
        checkpoint = self._checkpoint_of(worker, entry)
        del self._live[session_id]
        self._scheduler.remove_session(session_id)
        if worker >= 0:
            self._call(worker, "drop_sessions", [session_id])
        return entry.session, checkpoint, entry.report

    def inject_session(
        self,
        session: StreamSession,
        checkpoint: SessionCheckpoint | None = None,
        report: StreamReport | None = None,
    ) -> int:
        """Resume a migrated-in session on this server's open serve.

        The checkpoint is replayed onto a worker chosen by this
        server's placement policy (bypassing the admission queue — the
        source server already admitted the client); the carried report
        keeps accumulating, so the final :class:`SessionResult` spans
        the whole stream regardless of how many servers rendered it.
        Returns the worker the session landed on.
        """
        if not self.serving:
            raise ValidationError("inject requires an open serve")
        if session.session_id in self._live:
            raise ValidationError(
                f"session id '{session.session_id}' is already being served"
            )
        if checkpoint is not None and not checkpoint.belongs_to(session):
            raise ValidationError(
                f"checkpoint ({checkpoint.session_id}, {checkpoint.scene}, "
                f"detail={checkpoint.detail}) cannot be injected as session "
                f"({session.session_id}, {session.scene}, "
                f"detail={session.detail})"
            )
        if report is None:
            report = _new_report(session)
        frames_done = (
            checkpoint.next_frame if checkpoint is not None else len(report.frames)
        )
        worker = self._scheduler.attach_session(session, frames_done=frames_done)
        self._live[session.session_id] = _Live(
            session, report, checkpoint, shipped=True
        )
        self._call(worker, "restore_sessions", [(session, checkpoint)])
        return worker

    def remaining_cost(self) -> float:
        """Estimated outstanding simulated seconds across all workers."""
        if not self.serving:
            return 0.0
        return float(sum(self._scheduler.remaining_cost().values()))

    def migration_candidates(self) -> list[tuple[str, float]]:
        """Active sessions with their estimated remaining seconds.

        The fleet router uses this to pick which session to migrate
        off an overloaded node (largest candidate that fits the
        inter-node cost gap).
        """
        if not self.serving:
            return []
        scheduler = self._scheduler
        out = [
            (
                session.session_id,
                max(session.frame_budget - scheduler.frames_done(session.session_id), 0)
                * scheduler.frame_estimate(session),
            )
            for w in range(scheduler.workers)
            for session in scheduler.active_on(w)
        ]
        return sorted(out, key=lambda item: (-item[1], item[0]))

    def active_scenes(self) -> set[str]:
        """Scenes of the currently admitted, unfinished sessions."""
        if not self.serving:
            return set()
        scheduler = self._scheduler
        return {
            session.scene
            for w in range(scheduler.workers)
            for session in scheduler.active_on(w)
        }

    # -- flow control (gateway backpressure) ----------------------------
    def has_session(self, session_id: str) -> bool:
        """Whether the open serve is tracking ``session_id``."""
        return session_id in self._live

    def _entry(self, session_id: str) -> _Live:
        entry = self._live.get(session_id)
        if entry is None:
            raise ValidationError(f"unknown session '{session_id}'")
        return entry

    def is_done(self, session_id: str) -> bool:
        """Whether a tracked session has exhausted its frame budget."""
        self._entry(session_id)
        return self._scheduler.is_done(session_id)

    def pause_session(self, session_id: str) -> None:
        """Exclude a session from tick dispatch until resumed.

        Gateway backpressure: a client that stops draining its send
        queue pauses *its* session — the stream simply stops advancing
        (no frames rendered, no queue growth) while every other session
        keeps ticking.  The session keeps its worker, its admission
        slot, and its crash-recovery registration.
        """
        self._entry(session_id)
        self._scheduler.pause_session(session_id)

    def resume_session(self, session_id: str) -> None:
        """Re-enable tick dispatch for a paused session (idempotent)."""
        self._entry(session_id)
        self._scheduler.resume_session(session_id)

    @property
    def paused_sessions(self) -> list[str]:
        """Session ids currently paused by flow control (sorted)."""
        return self._scheduler.paused if self.serving else []

    def report_of(self, session_id: str) -> StreamReport:
        """The frames streamed so far for a tracked session."""
        return self._entry(session_id).report

    # -- serving --------------------------------------------------------
    def serve(self, sessions: list[StreamSession]) -> list[SessionResult]:
        """Stream every session to completion; returns per-session results.

        Frames are dispatched in ticks (one frame per admitted session
        per round), with each worker receiving one task per same-scene
        batch it hosts.  Worker crashes are recovered by respawning the
        worker and replaying session checkpoints; if anything is
        unrecoverable the pool is torn down before the error
        propagates, so no executor outlives a failed serve.

        Implemented over the incremental :meth:`begin` / :meth:`step` /
        :meth:`finish` protocol that open-ended callers (the fleet) use
        directly.
        """
        if self.serving:
            # Raise *before* the cleanup guard below: an already-open
            # incremental serve (and its sessions' live state) must
            # survive a mistaken serve() call untouched.
            raise ValidationError(
                "a serve is already open on this server; finish() it "
                "before calling serve()"
            )
        self.worker_busy_seconds = {}
        if not sessions:
            return []
        try:
            self.begin(sessions)
            # Progress is guaranteed (every tick either renders a frame
            # or retires a session), so this cap only catches scheduler
            # bugs.
            ticks = sum(s.frame_budget + 1 for s in sessions) + self.max_respawns + 4
            for _ in range(ticks):
                tick = self.step()
                if not (tick.frames or tick.done):
                    break
            else:
                raise SimulationError(
                    "stream serve did not drain within its tick budget"
                )
            return self.finish()
        except BaseException:
            # Executor leak guard: a serve that raises must not leave
            # worker processes behind (the pool restarts lazily on the
            # next serve).
            self._scheduler = None
            self._live = {}
            self.close()
            raise

    # -- tick execution -------------------------------------------------
    def _run_tick(
        self, assignments: dict[int, list[StreamSession]]
    ) -> list[TickResult]:
        """Dispatch one tick and gather results, recovering crashes."""
        live = self._live
        pending: list[tuple[int, list[StreamSession], Future | TickResult]] = []
        failed: dict[int, list[list[StreamSession]]] = {}
        for w in sorted(assignments):
            for batch in self._scene_batches(assignments[w]):
                payload: list[StreamSession | str] = []
                for s in batch:
                    entry = live[s.session_id]
                    payload.append(s.session_id if entry.shipped else s)
                    entry.shipped = True
                try:
                    pending.append(
                        (w, batch, self._dispatch(w, "render_tick", payload))
                    )
                except BrokenProcessPool:
                    # A pool already marked broken rejects the submit
                    # itself; queue the batch for post-recovery retry.
                    failed.setdefault(w, []).append(batch)

        results: list[TickResult] = []
        for w, batch, item in pending:
            try:
                result = item.result() if isinstance(item, Future) else item
            except BrokenProcessPool:
                failed.setdefault(w, []).append(batch)
                continue
            # Keep checkpoints immediately: if a *later* batch of the
            # same worker crashed, recovery must replay this batch's
            # sessions from their post-tick state, not last tick's.
            self._keep_checkpoints(w, result)
            results.append(result)
        for w, batches in sorted(failed.items()):
            self._recover_worker(w)
            for batch in batches:
                # Post-restore every session is registered on the new
                # worker; ids suffice and the lost frames re-render
                # deterministically from the replayed checkpoints.  A
                # repeat crash during the retry re-enters recovery,
                # bounded by the respawn budget.
                while True:
                    try:
                        result = self._call(
                            w, "render_tick", [s.session_id for s in batch]
                        )
                        break
                    except BrokenProcessPool:
                        self._recover_worker(w)
                self._keep_checkpoints(w, result)
                results.append(result)
        return results

    def _keep_checkpoints(self, worker: int, result: TickResult) -> None:
        """Make each rendered session's shipped checkpoint its latest,
        and keep the final state of each session an in-process worker
        finished."""
        live = self._live
        for session_id, checkpoint in result.checkpoints.items():
            live[session_id].checkpoint = checkpoint
        if self.local:
            retired = self._local_states[worker].retired
            for session_id in result.done:
                live[session_id].retired = retired.pop(session_id)

    def _checkpoint_of(
        self, worker: int, entry: _Live
    ) -> SessionCheckpoint | None:
        """The session's checkpoint as of its latest frame.

        A subprocess worker shipped it with that frame.  An in-process
        worker is read directly: the checkpoint is cut now from the
        stream ``worker`` hosts, or from the session's retired state.
        A stream with no frame behind it keeps the stored checkpoint.
        """
        if not self.local or worker < 0:
            return entry.checkpoint
        session_id = entry.session.session_id
        hosted = self._local_states[worker].hosted.get(session_id)
        stream = entry.retired if hosted is None else hosted.stream
        if stream is None or stream.frames_rendered == 0:
            return entry.checkpoint
        return capture_checkpoint(session_id, stream)

    def _dispatch(self, worker: int, method: str, *args):
        """Run a :class:`_WorkerState` method on ``worker``: an
        in-process state answers at once, a process worker with a
        Future."""
        if self.local:
            return getattr(self._local_states[worker], method)(*args)
        return self._executors[worker].submit(_subprocess_call, method, *args)

    def _call(self, worker: int, method: str, *args):
        """:meth:`_dispatch`, waiting for the answer."""
        item = self._dispatch(worker, method, *args)
        return item.result() if isinstance(item, Future) else item

    # -- fault handling -------------------------------------------------
    def _inject_faults(
        self, tick: int, assignments: dict[int, list[StreamSession]]
    ) -> None:
        if self.fault_injector is None:
            return
        for w in sorted(assignments):
            if not self.fault_injector(tick, w):
                continue
            if self.local:
                # Deterministic modes cannot lose a process; losing the
                # whole worker state is the same failure, recovered
                # eagerly (process workers go through BrokenProcessPool
                # detection instead).
                self._recover_worker(w)
            else:
                self._executors[w].submit(_subprocess_crash)

    def _recover_worker(self, worker: int) -> None:
        """Respawn a dead worker and replay its sessions' checkpoints."""
        self.recoveries += 1
        if self.recoveries > self.max_respawns:
            raise SimulationError(
                f"worker {worker} crashed beyond the respawn budget "
                f"({self.max_respawns}); giving up"
            )
        entries = [
            self._live[session.session_id]
            for session in self._scheduler.active_on(worker)
        ]
        # An in-process worker's checkpoints are cut from the state
        # about to be replaced, so before the respawn.
        payload = [
            (entry.session, self._checkpoint_of(worker, entry))
            for entry in entries
        ]
        if self.local:
            # A crashed worker loses its worker-tier cache along with
            # everything else; the node tier survives on the server, so
            # replayed sessions re-warm from it.
            self._local_states[worker] = self._new_local_state()
        else:
            self._executors[worker].shutdown(wait=False)
            self._executors[worker] = ProcessPoolExecutor(max_workers=1)
        if payload:
            self._call(worker, "restore_sessions", payload)
            for entry in entries:
                entry.shipped = True

    def _apply_migrations(self) -> None:
        for migration in self._scheduler.rebalance():
            entry = self._live[migration.session_id]
            checkpoint = self._checkpoint_of(migration.src, entry)
            self._call(migration.src, "drop_sessions", [migration.session_id])
            self._call(
                migration.dst,
                "restore_sessions",
                [(entry.session, checkpoint)],
            )
            entry.shipped = True
            self.migrations.append(migration)

    def _reset_workers(self) -> None:
        if self.local:
            for state in self._local_states:
                state.reset(self.bundle_cache_size)
            return
        for executor in self._executors:
            executor.submit(
                _subprocess_reset,
                self.bundle_cache_size,
                self.content_cache,
                self.models,
            ).result()

    # -- convenience ----------------------------------------------------
    def serve_timed(
        self, sessions: list[StreamSession]
    ) -> tuple[list[SessionResult], ServeSummary]:
        """:meth:`serve`, plus the aggregate :class:`ServeSummary`."""
        t0 = time.perf_counter()
        results = self.serve(sessions)
        wall = time.perf_counter() - t0
        return results, ServeSummary.from_results(
            results,
            self.workers,
            wall,
            recoveries=self.recoveries,
            migrations=len(self.migrations),
            busy_seconds=self.worker_busy_seconds or None,
        )

    def warm_up(self) -> float:
        """Spin up every worker process (imports + allocator warmup).

        Returns the wall seconds spent; the CLI calls this before
        timing so pool start-up is not billed to throughput.
        """
        t0 = time.perf_counter()
        self._ensure_pool()
        if not self.local:
            for executor in self._executors:
                executor.submit(_subprocess_reset).result()
        return time.perf_counter() - t0
