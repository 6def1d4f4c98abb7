"""The digest frame pipeline: model-driven session advancement.

The exact pipeline (:class:`~repro.stream.pipeline.FrameStream`)
renders every frame of every session, which caps fleet benchmarks at
tens of concurrent sessions.  This module is the other half of the
pipeline split: a :class:`DigestFrameStream` advances a session's
*observable serving state* — ``sim_seconds``, temporal-cache hit
rates, content-cache keys and economics, and the QoS detail trace —
from :class:`WorkloadModel` s calibrated against real renders, without
touching pixels.  That is what lets the scheduler, QoS controller,
router and autoscaler be driven at 10^4+ concurrent sessions
(the ``digest_herd`` workload of ``perfbench/``; the simulated floors
live in ``tests/stream/test_digest.py``).

Design rules, in order of priority:

* **Determinism.** A digest stream is a pure function of (scene,
  trajectory, detail, config, model table).  Per-frame jitter, when a
  model carries any, is counter-based (SHA-256 of the stream's
  identity and the frame index) — there is no RNG state to lose, so
  checkpoint restore at any frame continues byte-identically for
  free.
* **Checkpoint compatibility.** A digest stream is a
  :class:`~repro.stream.pipeline.FramePipeline`, the surface
  :mod:`repro.stream.checkpoint` captures: its cache state exports a
  real :class:`~repro.core.reuse_cache.TemporalCacheState`, so the
  same :class:`~repro.stream.checkpoint.SessionCheckpoint` machinery
  (and therefore crash recovery and cross-node migration) replays
  digest sessions byte-identically.
* **Fidelity.** Models are keyed per (scene, detail rung, trajectory
  class, render mode) and store *per-frame-index* sequences, so a
  digest trace agrees with the full render on small configs:
  identical content-cache key sequences (keys are computed from the
  real trajectory cameras through the same
  :func:`~repro.stream.content_cache.frame_content_key`), identical
  detail-ladder decisions away from deadline boundaries, and
  ``sim_seconds`` within :data:`SIM_SECONDS_REL_TOL` (exact when the
  calibration trajectory matches).  :func:`assert_trace_agreement`
  is the reusable checker; ``tests/stream/test_digest.py`` goes
  through it on every calibrated model.
* **Sharing.** A session without a QoS controller, a content cache or
  model jitter is a pure function of (model, frame index, incoming
  cache counters), so its frames are served from a memo on the
  :class:`WorkloadModelTable`: every such session at frame ``k`` gets
  the *same* :class:`~repro.stream.pipeline.FrameRecord` object, and
  every equal cache snapshot is one shared
  :class:`~repro.core.reuse_cache.TemporalCacheState` — the Gaussian
  Reuse Cache's move, applied to serving state.  Records and snapshots
  are shared immutable values: callers must never mutate them.

Known approximation: a mid-stream detail switch indexes the *new*
rung's model at the current absolute frame index, so the temporal
cache's post-flush warm-up dip is smoothed over (the cumulative
counters stay exact).  The QoS loop feeds back the modeled latencies
either way, so ladder decisions remain deterministic.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.core.gbu import GBUConfig
from repro.core.reuse_cache import (
    CacheReport,
    FrameCacheSample,
    TemporalCacheState,
)
from repro.errors import ValidationError
from repro.scenes import SceneSpec
from repro.scenes.catalog import CATALOG
from repro.stream.binning import BinningStats, camera_fingerprint
from repro.stream.content_cache import (
    CachedFrame,
    SessionContentView,
    render_mode,
)
from repro.stream.pipeline import (
    FramePipeline,
    FrameRecord,
    FrameStream,
    StreamReport,
    streaming_config,
)
from repro.stream.qos import QualityController, detail_key
from repro.stream.trajectory import CameraTrajectory

#: Schema version of the serialized model table.  Bumped whenever the
#: render ``mode`` tuple changes shape, so a table written with another
#: shape is refused rather than silently mismatched.
MODEL_VERSION = 3

#: Most frames one table's frame memo holds; the oldest entry is
#: evicted first.  A fixed-detail workload needs one entry per (model,
#: frame index) reached, so fleets of short sessions fit many times
#: over, while a single unbounded session cannot grow the memo.
FRAME_MEMO_CAP = 4096

#: Declared per-frame ``sim_seconds`` relative tolerance of the digest
#: pipeline against the full render, for trajectories of the same
#: class but different seeds/phases than the calibration run.  A
#: digest replay of the calibration trajectory itself is exact.
SIM_SECONDS_REL_TOL = 0.15


@dataclass(frozen=True)
class WorkloadModel:
    """Calibrated per-frame workload of one (scene, rung, class, mode).

    All sequences are indexed by absolute frame index; frames beyond
    the calibrated horizon reuse the last (steady-state warm) entry.
    Counters are what the exact pipeline's
    :class:`~repro.core.reuse_cache.FrameCacheSample` and
    :class:`~repro.stream.binning.BinningStats` would report.

    ``jitter`` (relative spread, 0 disables) decorrelates large
    session fleets without breaking determinism: the per-frame factor
    is derived from a SHA-256 counter keyed by the consuming stream's
    identity, never from a stateful RNG.
    """

    scene: str
    detail: float
    trajectory: str
    mode: tuple
    frame_seconds: tuple[float, ...]
    n_visible: tuple[int, ...]
    n_instances: tuple[int, ...]
    accesses: tuple[int, ...]
    hits: tuple[int, ...]
    carried_hits: tuple[int, ...]
    binning_reused: tuple[int, ...]
    full_reuse: tuple[bool, ...]
    frame_nbytes: tuple[int, ...]
    cache_policy: str
    capacity_lines: int
    bytes_per_line: int
    n_eval_frames: int = 8
    jitter: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.frame_seconds)
        if n == 0:
            raise ValidationError(
                "a workload model needs at least one calibrated frame"
            )
        for name in (
            "n_visible",
            "n_instances",
            "accesses",
            "hits",
            "carried_hits",
            "binning_reused",
            "full_reuse",
            "frame_nbytes",
        ):
            if len(getattr(self, name)) != n:
                raise ValidationError(
                    f"workload model sequence '{name}' has "
                    f"{len(getattr(self, name))} entries, expected {n}"
                )
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError("model jitter must be in [0, 1)")

    @property
    def key(self) -> tuple:
        return (
            self.scene,
            detail_key(self.detail),
            self.trajectory,
            self.mode,
        )

    @property
    def n_frames(self) -> int:
        return len(self.frame_seconds)

    def position(self, frame: int) -> int:
        """Sequence index for absolute frame ``frame`` (clamped warm)."""
        return min(int(frame), self.n_frames - 1)

    def to_dict(self) -> dict:
        """JSON-safe view; :meth:`from_dict` round-trips it exactly."""
        return {
            "scene": self.scene,
            "detail": self.detail,
            "trajectory": self.trajectory,
            "mode": list(self.mode),
            "frame_seconds": list(self.frame_seconds),
            "n_visible": list(self.n_visible),
            "n_instances": list(self.n_instances),
            "accesses": list(self.accesses),
            "hits": list(self.hits),
            "carried_hits": list(self.carried_hits),
            "binning_reused": list(self.binning_reused),
            "full_reuse": list(self.full_reuse),
            "frame_nbytes": list(self.frame_nbytes),
            "cache_policy": self.cache_policy,
            "capacity_lines": self.capacity_lines,
            "bytes_per_line": self.bytes_per_line,
            "n_eval_frames": self.n_eval_frames,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadModel":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(
                f"unknown workload-model fields: {sorted(unknown)}"
            )
        data = dict(payload)
        data["mode"] = tuple(data["mode"])
        for name in (
            "frame_seconds",
            "n_visible",
            "n_instances",
            "accesses",
            "hits",
            "carried_hits",
            "binning_reused",
            "full_reuse",
            "frame_nbytes",
        ):
            data[name] = tuple(data[name])
        return cls(**data)


class WorkloadModelTable:
    """Registry of :class:`WorkloadModel` s with calibrated fallback.

    Lookup resolves, in order: the exact (scene, rung, class, mode)
    key; the nearest calibrated rung of the same (scene, class, mode)
    with counters and seconds scaled linearly in detail (the same
    proxy :func:`~repro.stream.scheduler.static_frame_estimate` uses);
    and finally the nearest rung of the same (scene, class) across
    render modes — QoS shard escalation changes the mode mid-stream,
    and a mode-mismatched model beats refusing to serve.  A scene or
    trajectory class that was never calibrated raises
    :class:`~repro.errors.ValidationError`.

    The table also owns the frame memo of fixed-detail digest sessions
    (see :meth:`DigestFrameStream.render_next`): at most
    :data:`FRAME_MEMO_CAP` entries, cleared by :meth:`register`, and
    never pickled — a table sent to a worker process arrives empty.
    """

    def __init__(self, models: list[WorkloadModel] | None = None) -> None:
        self._models: dict[tuple, WorkloadModel] = {}
        self._resolved: dict[tuple, tuple[WorkloadModel, float]] = {}
        #: (lookup args, frame index, incoming cache counters) ->
        #: (shared frame record, outgoing cache counters).
        self._frames: dict[tuple, tuple[FrameRecord, tuple]] = {}
        #: Calibrated (scene, trajectory class) pairs: what any lookup
        #: can fall back within.
        self._classes: set[tuple[str, str]] = set()
        for model in models or []:
            self.register(model)

    def __len__(self) -> int:
        return len(self._models)

    @property
    def models(self) -> list[WorkloadModel]:
        return list(self._models.values())

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_frames": {}}

    def register(self, model: WorkloadModel) -> None:
        self._models[model.key] = model
        self._classes.add((model.scene, model.trajectory))
        self._resolved.clear()
        self._frames.clear()

    def require(self, scene: str, trajectory: str) -> None:
        """Raise :class:`ValidationError` unless some model covers the
        (scene, trajectory class) pair — the only lookups that fail."""
        if (scene, trajectory) not in self._classes:
            raise ValidationError(
                f"no workload model calibrated for scene '{scene}', "
                f"trajectory class '{trajectory}' — run calibration "
                "(repro-stream calibrate) over this combination first"
            )

    def lookup(
        self, scene: str, detail: float, trajectory: str, mode: tuple
    ) -> tuple[WorkloadModel, float]:
        """Resolve ``(model, scale)`` for a frame's workload.

        ``scale`` is the linear detail ratio to apply to the model's
        sequences (1.0 on an exact rung match).  The answer is memoized
        under the exact ``detail`` asked for: the fallback rung and the
        scale both depend on it, so no call depends on earlier ones.
        """
        key = (scene, detail, trajectory, mode)
        hit = self._resolved.get(key)
        if hit is not None:
            return hit
        model = self._models.get((scene, detail_key(detail), trajectory, mode))
        if model is None:
            self.require(scene, trajectory)
            same_mode = [
                m
                for m in self._models.values()
                if m.scene == scene
                and m.trajectory == trajectory
                and m.mode == mode
            ]
            pool = same_mode or [
                m
                for m in self._models.values()
                if m.scene == scene and m.trajectory == trajectory
            ]
            model = min(pool, key=lambda m: (abs(m.detail - detail), m.detail))
        scale = (
            1.0
            if detail_key(detail) == detail_key(model.detail)
            else max(detail, 1e-6) / max(model.detail, 1e-6)
        )
        self._resolved[key] = (model, scale)
        return model, scale

    def with_jitter(self, jitter: float) -> "WorkloadModelTable":
        """A copy of the table with every model's jitter replaced."""
        return WorkloadModelTable(
            [replace(m, jitter=jitter) for m in self._models.values()]
        )

    # -- serialization --------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "version": MODEL_VERSION,
            "models": [m.to_dict() for m in self._models.values()],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadModelTable":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"model table is not valid JSON: {exc}")
        if not isinstance(payload, dict) or "models" not in payload:
            raise ValidationError(
                "model table JSON must be an object with a 'models' list"
            )
        if payload.get("version") != MODEL_VERSION:
            raise ValidationError(
                f"model table version {payload.get('version')!r} is not "
                f"supported (expected {MODEL_VERSION})"
            )
        return cls([WorkloadModel.from_dict(m) for m in payload["models"]])

    # -- calibration ----------------------------------------------------
    @classmethod
    def calibrate(
        cls,
        scenes,
        details=(1.0,),
        trajectories=("orbit",),
        n_frames: int = 8,
        config: GBUConfig | None = None,
        seed: int = 0,
        jitter: float = 0.0,
    ) -> "WorkloadModelTable":
        """Calibrate models by running the exact pipeline.

        One full render of ``n_frames`` per (scene, detail, trajectory
        class) on small inputs; the recorded per-frame sequences are
        what the digest pipeline replays.  Deterministic: the
        calibration trajectory is seeded, and the exact pipeline is.
        """
        if n_frames < 1:
            raise ValidationError("calibration needs at least one frame")
        table = cls()
        for scene in scenes:
            spec = CATALOG[scene] if isinstance(scene, str) else scene
            for detail in details:
                for kind in trajectories:
                    table.register(
                        _calibrate_one(
                            spec, float(detail), kind, n_frames, config,
                            seed, jitter,
                        )
                    )
        return table


def _calibrate_one(
    spec: SceneSpec,
    detail: float,
    kind: str,
    n_frames: int,
    config: GBUConfig | None,
    seed: int,
    jitter: float,
) -> WorkloadModel:
    """Run one exact-render calibration and distill its model."""
    trajectory = CameraTrajectory.for_scene(
        spec, kind, n_frames=n_frames, seed=seed, detail=detail
    )
    stream = FrameStream(spec, trajectory, config=config, detail=detail)
    mode = render_mode(stream.device.config, 1)
    state = stream.cache_state
    records = [stream.render_next() for _ in range(n_frames)]
    width, height = spec.eval_resolution(detail)
    image_nbytes = height * width * 3 * 8  # float64 RGB frame buffer
    return WorkloadModel(
        scene=spec.name,
        detail=detail,
        trajectory=kind,
        mode=mode,
        frame_seconds=tuple(float(r.sim_seconds) for r in records),
        n_visible=tuple(int(r.n_visible) for r in records),
        n_instances=tuple(int(r.n_instances) for r in records),
        accesses=tuple(int(r.cache.report.accesses) for r in records),
        hits=tuple(int(r.cache.report.hits) for r in records),
        carried_hits=tuple(int(r.cache.carried_hits) for r in records),
        binning_reused=tuple(
            int(r.binning.reused_instances) for r in records
        ),
        full_reuse=tuple(bool(r.binning.full_reuse) for r in records),
        # CachedFrame payload: image + int64 trace + int64 tiles.
        frame_nbytes=tuple(
            int(image_nbytes + r.cache.report.accesses * 16) for r in records
        ),
        cache_policy=state.policy,
        capacity_lines=state.capacity_lines,
        bytes_per_line=state.bytes_per_line,
        n_eval_frames=stream.bundle.n_eval_frames,
        jitter=jitter,
    )


@functools.cache
def _resident_ids(n: int) -> tuple[int, ...]:
    """The canonical resident set ``0..n-1``, one tuple per occupancy
    shared by every digest checkpoint.  Occupancy never exceeds a
    model's ``capacity_lines``, so at most the largest capacity + 1
    tuples are ever held."""
    return tuple(range(n))


@functools.lru_cache(maxsize=FRAME_MEMO_CAP)
def _cache_snapshot(
    policy: str,
    capacity_lines: int,
    bytes_per_line: int,
    resident_lines: int,
    frames_observed: int,
    cumulative_accesses: int,
    cumulative_hits: int,
) -> TemporalCacheState:
    """One shared digest checkpoint snapshot per value tuple: sessions
    of one model at one frame export equal states, so they share it."""
    return TemporalCacheState(
        policy=policy,
        capacity_lines=capacity_lines,
        bytes_per_line=bytes_per_line,
        resident_ids=_resident_ids(resident_lines),
        frames_observed=frames_observed,
        cumulative_accesses=cumulative_accesses,
        cumulative_hits=cumulative_hits,
    )


class _DigestCacheState:
    """Temporal-cache counters advanced from a model, not a trace.

    Exports/imports the *same*
    :class:`~repro.core.reuse_cache.TemporalCacheState` dataclass as
    the exact simulator, so :class:`~repro.stream.checkpoint.
    SessionCheckpoint` is pipeline-agnostic.  The resident set is
    digested to a line *count* (grown by per-frame misses, capped at
    capacity, dropped on flush); exported ids are the canonical
    ``0..n-1`` range.
    """

    def __init__(
        self, policy: str, capacity_lines: int, bytes_per_line: int
    ) -> None:
        self.policy = policy
        self.capacity_lines = int(capacity_lines)
        self.bytes_per_line = int(bytes_per_line)
        self._resident_lines = 0
        self._frames_observed = 0
        self._cum_accesses = 0
        self._cum_hits = 0

    @property
    def frames_observed(self) -> int:
        return self._frames_observed

    @property
    def counters(self) -> tuple[int, int, int, int]:
        """Everything a modeled frame reads and advances: (frames
        observed, cumulative accesses, cumulative hits, resident
        lines)."""
        return (
            self._frames_observed,
            self._cum_accesses,
            self._cum_hits,
            self._resident_lines,
        )

    @counters.setter
    def counters(self, value: tuple[int, int, int, int]) -> None:
        (
            self._frames_observed,
            self._cum_accesses,
            self._cum_hits,
            self._resident_lines,
        ) = value

    def observe(
        self, accesses: int, hits: int, carried_hits: int
    ) -> FrameCacheSample:
        """Record one modeled frame; mirrors the exact simulator's
        sample arithmetic (cumulatives include the current frame)."""
        misses = accesses - hits
        report = CacheReport(
            accesses=accesses,
            hits=hits,
            misses=misses,
            capacity_lines=self.capacity_lines,
            bytes_per_line=self.bytes_per_line,
        )
        sample = FrameCacheSample(
            frame=self._frames_observed,
            report=report,
            carried_hits=min(carried_hits, hits),
            cumulative_accesses=self._cum_accesses + accesses,
            cumulative_hits=self._cum_hits + hits,
        )
        self._frames_observed += 1
        self._cum_accesses += accesses
        self._cum_hits += hits
        self._resident_lines = min(
            self.capacity_lines, self._resident_lines + max(misses, 0)
        )
        return sample

    def reset(self) -> None:
        self._resident_lines = 0
        self._frames_observed = 0
        self._cum_accesses = 0
        self._cum_hits = 0

    def flush_resident(self) -> None:
        self._resident_lines = 0

    def export_state(self) -> TemporalCacheState:
        # Exports run on every checkpoint capture (each rendered frame
        # on a subprocess worker), and the resident set is always a
        # prefix of the line-id range.
        return _cache_snapshot(
            self.policy,
            self.capacity_lines,
            self.bytes_per_line,
            self._resident_lines,
            self._frames_observed,
            self._cum_accesses,
            self._cum_hits,
        )

    def import_state(self, state: TemporalCacheState) -> None:
        if state.policy != self.policy:
            raise ValidationError(
                f"cache state was exported under policy '{state.policy}', "
                f"this digest state runs '{self.policy}'"
            )
        if (
            state.capacity_lines != self.capacity_lines
            or state.bytes_per_line != self.bytes_per_line
        ):
            raise ValidationError(
                "cache state geometry mismatch: exported "
                f"{state.capacity_lines}x{state.bytes_per_line}B, digest "
                f"has {self.capacity_lines}x{self.bytes_per_line}B"
            )
        self._resident_lines = len(state.resident_ids)
        self._frames_observed = state.frames_observed
        self._cum_accesses = state.cumulative_accesses
        self._cum_hits = state.cumulative_hits


class DigestFrameStream(FramePipeline):
    """Advance one session's serving state from calibrated models.

    The digest :class:`~repro.stream.pipeline.FramePipeline`: the
    server, checkpoints, QoS controller and content cache drive it
    exactly as they drive the exact
    :class:`~repro.stream.pipeline.FrameStream` — the per-frame
    session step is the one both inherit — but each frame costs a
    model lookup instead of a render, so fleets of 10^5+ sessions fit
    in one process.

    Content-cache integration is *real*, not modeled: the frame's
    content address comes from the shared step, so digest key
    sequences match exact ones by construction; misses insert a
    placeholder payload carrying the model's calibrated byte size, so
    tier economics and eviction pressure stay meaningful.

    ``keep_images`` is rejected — a digest has no pixels to keep.
    """

    def __init__(
        self,
        scene: SceneSpec | str,
        trajectory: CameraTrajectory,
        models: WorkloadModelTable,
        config: GBUConfig | None = None,
        detail: float = 1.0,
        keep_images: bool = False,
        controller: QualityController | None = None,
        content: SessionContentView | None = None,
    ) -> None:
        if keep_images:
            raise ValidationError(
                "the digest pipeline renders no images; "
                "keep_images requires pipeline='exact'"
            )
        config = streaming_config() if config is None else config
        super().__init__(scene, trajectory, config, detail, controller, content)
        self.models = models
        # Fail fast (at session registration, not first tick) when the
        # table cannot serve this stream at all; also pins the cache
        # geometry the checkpoint state must round-trip through.
        lookup = (self.spec.name, detail, trajectory.kind, self._mode)
        base, _ = models.lookup(*lookup)
        self.cache_state = _DigestCacheState(
            base.cache_policy, base.capacity_lines, base.bytes_per_line
        )
        # Scene-clock modulus, recorded at calibration time so the
        # digest computes bundle-identical frame clocks (and therefore
        # content keys) without ever building a bundle.
        self._n_eval_frames = base.n_eval_frames
        # Frame-memo key prefix, or None when this stream's frames
        # depend on more than (model, frame, cache counters).  The
        # detail is keyed as given (records carry it), so it must be a
        # plain float: 1 and 1.0 are equal keys but pickle apart.
        self._memo_prefix = (
            lookup
            if controller is None
            and content is None
            and type(detail) is float
            and base.jitter == 0.0
            else None
        )

    def render_next(self) -> FrameRecord:
        """Advance one frame from the model (same contract as the
        exact :meth:`~repro.stream.pipeline.FrameStream.render_next`,
        minus the image).

        A fixed-detail stream first asks its table's frame memo for
        (model, frame, incoming cache counters); a miss models the
        frame once and stores the record for every later session.
        """
        prefix = self._memo_prefix
        if prefix is None or self._active_detail != self.detail:
            return self._advance()
        state = self.cache_state
        key = (*prefix, self._next_frame, *state.counters)
        memo = self.models._frames
        served = memo.get(key)
        if served is not None:
            state.counters = served[1]
            self._next_frame += 1
            return served[0]
        record = self._advance()
        # A model registered after admission may carry jitter, which
        # makes frames stream-specific: those are never shared.
        if self.models.lookup(*prefix)[0].jitter == 0.0:
            memo[key] = (record, state.counters)
            if len(memo) > FRAME_MEMO_CAP:
                del memo[next(iter(memo))]
        return record

    def _frame(self, k, detail, shards, mode, camera, key, hit) -> dict:
        """Read frame ``k``'s numbers off the table's model.  A record's
        ``wall_seconds`` stays 0: the digest produces frames in ~O(µs),
        so per-frame host time is noise, and a zero keeps digest
        records bit-stable."""
        model, scale = self.models.lookup(
            self.spec.name, detail, self.trajectory.kind, mode
        )
        p = model.position(k)
        n_visible = max(int(round(model.n_visible[p] * scale)), 0)
        n_instances = max(int(round(model.n_instances[p] * scale)), 0)
        accesses = max(int(round(model.accesses[p] * scale)), 0)
        hits = min(max(int(round(model.hits[p] * scale)), 0), accesses)
        carried = min(int(round(model.carried_hits[p] * scale)), hits)
        reused = min(
            max(int(round(model.binning_reused[p] * scale)), 0), n_instances
        )
        sim_seconds = model.frame_seconds[p] * scale
        if model.jitter > 0.0:
            sim_seconds *= 1.0 + model.jitter * self._jitter_unit(k)
        if key is not None and hit is None:
            self.content.insert(_placeholder_frame(
                key,
                compute_seconds=sim_seconds,
                n_visible=n_visible,
                n_instances=n_instances,
                nbytes=max(int(round(model.frame_nbytes[p] * scale)), 1),
            ))
        return dict(
            n_visible=n_visible,
            n_instances=n_instances,
            sim_seconds=sim_seconds,
            cache=self.cache_state.observe(accesses, hits, carried),
            binning=BinningStats(
                total_instances=n_instances,
                reused_instances=reused,
                generated_instances=n_instances - reused,
                full_reuse=bool(model.full_reuse[p]),
            ),
            served_from=None if hit is None else hit[1],
        )

    # -- internals ------------------------------------------------------
    @functools.cached_property
    def _jitter_salt(self) -> bytes:
        """Stream identity for :meth:`_jitter_unit`, built on first use
        so jitter-free sessions never fingerprint a pose."""
        return hashlib.sha256(
            repr(
                (
                    self.spec.name,
                    self.trajectory.kind,
                    camera_fingerprint(self.trajectory.camera_at(0)),
                    detail_key(self.detail),
                )
            ).encode()
        ).digest()

    def _jitter_unit(self, frame: int) -> float:
        """Deterministic per-frame factor in [-1, 1): counter-based
        (stream identity + frame index), so replay after restore is
        byte-identical without shipping any RNG state."""
        digest = hashlib.sha256(
            self._jitter_salt + frame.to_bytes(8, "big")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**63 - 1.0


_PLACEHOLDER_IMAGE = np.zeros((1, 1, 3), dtype=np.float64)
_PLACEHOLDER_TRACE = np.zeros(0, dtype=np.int64)


def _placeholder_frame(
    key: str,
    compute_seconds: float,
    n_visible: int,
    n_instances: int,
    nbytes: int,
) -> CachedFrame:
    """A pixel-free cache entry carrying the model's economics.

    The arrays are shared 1-byte-scale placeholders; ``nbytes`` is the
    *modeled* payload size, so tier capacity pressure and
    GreedyDual-Size eviction behave as if the real frame were stored.
    """
    return CachedFrame(
        key=key,
        image=_PLACEHOLDER_IMAGE,
        trace=_PLACEHOLDER_TRACE,
        tiles=_PLACEHOLDER_TRACE,
        compute_seconds=compute_seconds,
        n_visible=n_visible,
        n_instances=n_instances,
        extra_flops=0.0,
        nbytes=int(nbytes),
    )


# ----------------------------------------------------------------------
# Fidelity
# ----------------------------------------------------------------------
@dataclass
class TraceAgreement:
    """Digest-vs-exact agreement metrics for one session."""

    n_frames: int
    max_sim_rel_err: float
    mean_sim_rel_err: float
    details_match: bool
    shards_match: bool
    keys_match: bool
    served_from_match: bool
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "n_frames": self.n_frames,
            "max_sim_rel_err": self.max_sim_rel_err,
            "mean_sim_rel_err": self.mean_sim_rel_err,
            "details_match": self.details_match,
            "shards_match": self.shards_match,
            "keys_match": self.keys_match,
            "served_from_match": self.served_from_match,
            "mismatches": list(self.mismatches),
        }


def trace_agreement(
    exact: StreamReport,
    digest: StreamReport,
    sim_rel_tol: float = SIM_SECONDS_REL_TOL,
    exact_keys: list | None = None,
    digest_keys: list | None = None,
) -> TraceAgreement:
    """Score a digest trace against the full render's.

    Checks the ISSUE-level fidelity contract: identical detail-ladder
    decisions, identical shard escalation, identical content-cache key
    sequences (when key traces are supplied), identical dedup tier
    decisions, and per-frame ``sim_seconds`` within ``sim_rel_tol``.
    """
    mismatches: list[str] = []
    if exact.n_frames != digest.n_frames:
        mismatches.append(
            f"frame counts differ: exact {exact.n_frames}, "
            f"digest {digest.n_frames}"
        )
    n = min(exact.n_frames, digest.n_frames)
    rel_errs = []
    for e, d in zip(exact.frames[:n], digest.frames[:n]):
        rel_errs.append(
            abs(d.sim_seconds - e.sim_seconds) / max(e.sim_seconds, 1e-12)
        )
    max_err = max(rel_errs, default=0.0)
    mean_err = float(np.mean(rel_errs)) if rel_errs else 0.0
    if max_err > sim_rel_tol:
        mismatches.append(
            f"sim_seconds diverges: max rel err {max_err:.4f} "
            f"> tolerance {sim_rel_tol}"
        )
    details_match = exact.detail_trace[:n] == digest.detail_trace[:n]
    if not details_match:
        mismatches.append("detail-ladder traces differ")
    shards_match = [f.shards for f in exact.frames[:n]] == [
        f.shards for f in digest.frames[:n]
    ]
    if not shards_match:
        mismatches.append("shard-escalation traces differ")
    served_match = [f.served_from for f in exact.frames[:n]] == [
        f.served_from for f in digest.frames[:n]
    ]
    if not served_match:
        mismatches.append("content-cache served_from traces differ")
    keys_match = True
    if exact_keys is not None or digest_keys is not None:
        keys_match = list(exact_keys or []) == list(digest_keys or [])
        if not keys_match:
            mismatches.append("content-cache key sequences differ")
    return TraceAgreement(
        n_frames=n,
        max_sim_rel_err=max_err,
        mean_sim_rel_err=mean_err,
        details_match=details_match,
        shards_match=shards_match,
        keys_match=keys_match,
        served_from_match=served_match,
        mismatches=mismatches,
    )


def assert_trace_agreement(
    exact: StreamReport,
    digest: StreamReport,
    sim_rel_tol: float = SIM_SECONDS_REL_TOL,
    exact_keys: list | None = None,
    digest_keys: list | None = None,
) -> TraceAgreement:
    """:func:`trace_agreement`, raising on any mismatch."""
    agreement = trace_agreement(
        exact,
        digest,
        sim_rel_tol=sim_rel_tol,
        exact_keys=exact_keys,
        digest_keys=digest_keys,
    )
    if not agreement.ok:
        raise ValidationError(
            "digest trace disagrees with the full render: "
            + "; ".join(agreement.mismatches)
        )
    return agreement
