"""The per-session frame-sequence pipelines.

:class:`FramePipeline` is the session skeleton both pipelines share:
the trajectory cursor, the active detail rung and the per-frame
session step (QoS rung switch and shard count, content-cache address,
QoS feedback).  Its exact subclass, :class:`FrameStream`, renders a
:class:`~repro.stream.trajectory.CameraTrajectory` over one catalog
scene (static, dynamic or avatar) through a
:class:`~repro.core.gbu.GBUDevice`, *persisting* cross-frame state
between frames:

* **Warm tile binning** — the :class:`~repro.stream.binning.WarmBinner`
  carries (tile, Gaussian) instances across frames and regenerates
  only Gaussians whose tile rectangle moved (Step 2 amortized over the
  stream);
* **Temporal reuse cache** — the device renders with a
  :class:`~repro.core.reuse_cache.TemporalReuseSimulator`, so feature
  lines stay resident across frames and the per-frame / cumulative
  hit rates quantify inter-frame reuse (frame 0 doubles as the
  single-frame cold baseline).

Timing model: each frame's simulated latency is the steady-state
GPU/GBU pipeline of :class:`~repro.core.pipeline.PipelinedFrame`.
The GPU side is Step 1 plus a depth-sort-only Step 2 — binning is
served incrementally from the warm state, mirroring how the D&B
engine removes the duplication kernels in the ``gbu_dnb``
configuration — and the GBU side is the device's Step-3 roofline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.gbu import GBUConfig, GBUDevice
from repro.core.pipeline import SYNC_SECONDS, PipelinedFrame
from repro.core.reuse_cache import FrameCacheSample
from repro.errors import ValidationError
from repro.gaussians import Camera, project
from repro.gpu import FrameWorkload, GPUTimingModel, ScaleFactors
from repro.scenes import BundleCache, SceneBundle, SceneSpec, build_scene
from repro.scenes.catalog import CATALOG, AppType
from repro.stream.binning import BinningStats, WarmBinner, camera_fingerprint
from repro.stream.content_cache import CachedFrame, SessionContentView, render_mode
from repro.stream.qos import QoSRecord, QualityController
from repro.stream.trajectory import CameraTrajectory


#: Frame-pipeline modes: ``"exact"`` renders every frame
#: (:class:`FrameStream`); ``"digest"`` advances sessions from
#: calibrated workload models
#: (:class:`~repro.stream.digest.DigestFrameStream`).
PIPELINES = ("exact", "digest")


def streaming_config(
    cache_policy: str = "reuse_distance",
    fp16: bool = True,
    use_cache: bool = True,
) -> GBUConfig:
    """The GBU configuration used for stream serving.

    The D&B engine is off because Rendering Step 2 is served from the
    session's warm binning state; the reuse cache runs in its temporal
    mode.
    """
    return GBUConfig(
        use_dnb=False,
        use_cache=use_cache,
        cache_policy=cache_policy,
        fp16=fp16,
    )


@dataclass(frozen=True)
class FrameRecord:
    """Everything one streamed frame produced.

    Attributes
    ----------
    frame:
        0-based frame index within the stream.
    n_visible / n_instances:
        Culled Gaussian count and (tile, Gaussian) pair count.
    sim_seconds:
        Paper-scale steady-state frame latency (pipelined GPU + GBU).
    wall_seconds:
        Host wall-clock spent producing the frame (throughput metric).
    cache:
        The warm (cross-frame) cache sample for this frame.
    binning:
        What the warm binner reused vs. regenerated.
    image:
        The rendered frame (``None`` unless images are kept).
    detail:
        Absolute detail the frame rendered at (equals the session's
        nominal detail unless a QoS controller adapted it).
    qos:
        Per-frame deadline audit record (``None`` without QoS).
    shards:
        Parallel tile shards the frame rendered with (1 unless the
        controller escalated the session).
    served_from:
        Content-cache tier that served this frame ("session",
        "worker", "node" or "fleet"), or ``None`` when the frame was
        actually rendered (including every frame of a stream without a
        content cache).
    """

    frame: int
    n_visible: int
    n_instances: int
    sim_seconds: float
    # Host timing is telemetry: two frames with identical simulated
    # output are equal, regardless of how loaded the host was.
    wall_seconds: float = field(compare=False)
    cache: FrameCacheSample
    binning: BinningStats
    image: np.ndarray | None = None
    detail: float = 1.0
    qos: QoSRecord | None = None
    shards: int = 1
    served_from: str | None = None

    @property
    def sim_fps(self) -> float:
        return 1.0 / self.sim_seconds

    @property
    def hit_rate(self) -> float:
        return self.cache.report.hit_rate


@dataclass
class StreamReport:
    """Summary of one rendered stream (one session's frames)."""

    scene: str
    trajectory: str
    frames: list[FrameRecord] = field(default_factory=list)
    #: Per-frame simulated completion stamps set by the server: the
    #: rendering worker's cumulative busy seconds when the frame
    #: finished.  They depend on placement, so equality ignores them.
    completions: list[float] = field(default_factory=list, compare=False, repr=False)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def cold_hit_rate(self) -> float:
        """Frame 0's hit rate — the single-frame cold-cache baseline."""
        return self.frames[0].hit_rate if self.frames else 0.0

    @property
    def warm_hit_rate(self) -> float:
        """Cumulative hit rate over the whole stream (warm cache)."""
        return self.frames[-1].cache.cumulative_hit_rate if self.frames else 0.0

    @property
    def binning_reuse(self) -> float:
        """Mean instance-reuse fraction over the warm frames (1..n)."""
        warm = self.frames[1:]
        if not warm:
            return 0.0
        return float(np.mean([f.binning.reuse_fraction for f in warm]))

    @property
    def wall_seconds(self) -> float:
        return float(sum(f.wall_seconds for f in self.frames))

    @property
    def wall_fps(self) -> float:
        """Host frames/sec actually sustained (throughput)."""
        total = self.wall_seconds
        return len(self.frames) / total if total > 0 else 0.0

    @property
    def mean_sim_fps(self) -> float:
        if not self.frames:
            return 0.0
        return float(np.mean([f.sim_fps for f in self.frames]))

    @property
    def mean_detail(self) -> float:
        """Mean absolute detail delivered across the stream."""
        if not self.frames:
            return 0.0
        return float(np.mean([f.detail for f in self.frames]))

    @property
    def detail_trace(self) -> list[float]:
        """Per-frame delivered detail (the QoS replay invariant)."""
        return [f.detail for f in self.frames]

    def deadline_miss_rate(self, deadline_seconds: float | None = None) -> float:
        """Fraction of frames that missed their deadline.

        With no argument the per-frame :class:`~repro.stream.qos.
        QoSRecord` verdicts are used (0.0 when the stream ran without
        QoS); passing ``deadline_seconds`` judges the recorded
        ``sim_seconds`` against an arbitrary budget — how fixed-detail
        baselines are scored against the same deadline.
        """
        if not self.frames:
            return 0.0
        if deadline_seconds is None:
            missed = sum(
                1 for f in self.frames if f.qos is not None and not f.qos.met
            )
        else:
            missed = sum(
                1 for f in self.frames if f.sim_seconds > deadline_seconds
            )
        return missed / len(self.frames)

    def to_dict(self) -> dict:
        """JSON-serializable summary (per-frame and aggregate)."""
        return {
            "scene": self.scene,
            "trajectory": self.trajectory,
            "n_frames": self.n_frames,
            "cold_hit_rate": self.cold_hit_rate,
            "warm_hit_rate": self.warm_hit_rate,
            "binning_reuse": self.binning_reuse,
            "wall_fps": self.wall_fps,
            "mean_sim_fps": self.mean_sim_fps,
            "mean_detail": self.mean_detail,
            "deadline_miss_rate": self.deadline_miss_rate(),
            "frames": [
                {
                    "frame": f.frame,
                    "n_visible": f.n_visible,
                    "n_instances": f.n_instances,
                    "sim_fps": f.sim_fps,
                    "hit_rate": f.hit_rate,
                    "cumulative_hit_rate": f.cache.cumulative_hit_rate,
                    "carried_hit_rate": f.cache.carried_hit_rate,
                    "binning_reuse": f.binning.reuse_fraction,
                    "full_reuse": f.binning.full_reuse,
                    "detail": f.detail,
                    # Only emitted when the session actually sharded, so
                    # the per-session summaries `repro-stream serve
                    # --json` writes for unsharded runs keep their exact
                    # bytes.
                    **({"shards": f.shards} if f.shards > 1 else {}),
                    # Same contract: only dedup-served frames carry the
                    # tier, so cache-less runs keep their exact bytes.
                    **(
                        {"served_from": f.served_from}
                        if f.served_from is not None
                        else {}
                    ),
                    **(
                        {
                            "deadline_met": f.qos.met,
                            "margin_seconds": f.qos.margin_seconds,
                        }
                        if f.qos is not None
                        else {}
                    ),
                }
                for f in self.frames
            ],
        }


class FramePipeline:
    """One session's frame sequence: the state and step both pipelines share.

    The base class of the exact :class:`FrameStream` and the digest
    :class:`~repro.stream.digest.DigestFrameStream`.  The server,
    scheduler, QoS controller, checkpoint capture/restore and the
    fleet drive sessions exclusively through this surface, so a
    session's pipeline mode is invisible above the frame layer.

    The base owns the trajectory cursor, the active detail rung, the
    content-cache key trace and the per-frame session step
    (:meth:`_advance`).  Both pipelines take that one step, so their
    detail, shard and content-key traces agree by construction; a
    subclass only decides how a frame's numbers are produced.  It
    supplies:

    * ``render_next()`` — calls :meth:`_advance` (each subclass
      defines it, so a profiler can wrap either pipeline's frame);
    * ``_frame(k, detail, shards, mode, camera, key, hit)`` — the
      frame's :class:`FrameRecord` fields other than those the step
      fills in (``frame``, ``wall_seconds``, ``detail``, ``qos``,
      ``shards``), observing the frame into ``cache_state``;
    * ``cache_state`` — whose ``export_state()``/``import_state()``
      round-trips a :class:`~repro.core.reuse_cache.TemporalCacheState`
      (the contract :func:`~repro.stream.checkpoint.capture_checkpoint`
      snapshots);
    * ``_n_eval_frames`` — the scene clock's modulus.
    """

    def __init__(
        self,
        scene: SceneSpec | str,
        trajectory: CameraTrajectory,
        config: GBUConfig,
        detail: float,
        controller: QualityController | None,
        content: SessionContentView | None,
    ) -> None:
        if controller is not None and controller.nominal_detail != detail:
            raise ValidationError(
                f"controller nominal detail {controller.nominal_detail} "
                f"does not match the stream's detail {detail}"
            )
        self.spec = CATALOG[scene] if isinstance(scene, str) else scene
        self.trajectory = trajectory
        self.config = config
        self.detail = detail
        self.controller = controller
        self.content = content
        #: Content-cache key sequence (one entry per frame when a
        #: content cache is attached); fidelity tests assert the exact
        #: and digest traces are identical.
        self.key_trace: list = []
        # Without a controller every frame renders on one shard, so the
        # render mode is resolved once, here.
        self._mode = render_mode(config, 1)
        self._active_detail = detail
        self._next_frame = 0

    @property
    def frames_rendered(self) -> int:
        return self._next_frame

    @property
    def active_detail(self) -> float:
        """Absolute detail of the currently active rung."""
        return self._active_detail

    def load_detail(self, detail: float) -> None:
        """Make ``detail`` the active rung.

        The temporal cache is *not* touched here: the frame step
        flushes the resident set around a live detail switch, while
        checkpoint restore imports the exported state instead.
        """
        self._active_detail = detail

    def reset(self) -> None:
        """Drop all cross-frame state and restart at frame 0."""
        if self._active_detail != self.detail:
            self.load_detail(self.detail)
        if self.controller is not None:
            self.controller.reset()
        self.cache_state.reset()
        self.key_trace.clear()
        self.seek(0)

    def seek(self, frame: int) -> None:
        """Move the stream cursor so ``render_next`` produces ``frame``.

        Used by checkpoint restore (``repro.stream.checkpoint``) after
        the cross-frame cache state has been imported; it does not
        touch the cache state itself.
        """
        if frame < 0:
            raise ValidationError("cannot seek to a negative frame")
        self._next_frame = int(frame)

    def run(self, n_frames: int | None = None) -> StreamReport:
        """Produce ``n_frames`` (default: the whole trajectory)."""
        n = self.trajectory.n_frames if n_frames is None else n_frames
        if n <= 0:
            raise ValidationError("stream needs at least one frame")
        report = StreamReport(
            scene=self.spec.name, trajectory=self.trajectory.kind
        )
        for _ in range(n):
            report.frames.append(self.render_next())
        return report

    def _advance(self, t0: float | None = None) -> FrameRecord:
        """Produce the next frame of the trajectory, advancing state.

        With a QoS controller, the frame renders at the controller's
        current detail and shard count: a rung change swaps the rung in
        (:meth:`load_detail`), flushes the temporal cache's resident
        lines (features of one level of detail do not serve another —
        the cumulative counters keep accumulating), and rescales the
        trajectory camera to the rung's evaluation resolution.  With a
        content cache, the frame's content address is looked up before
        the subclass produces the frame.  The frame's simulated latency
        is then fed back into the controller.

        ``t0`` is the host clock the frame started at; without it the
        record's ``wall_seconds`` is 0.
        """
        k = self._next_frame
        controller = self.controller
        detail, shards, mode = self._active_detail, 1, self._mode
        if controller is not None:
            detail = controller.next_detail
            if detail != self._active_detail:
                self.load_detail(detail)
                self.cache_state.flush_resident()
            shards = controller.next_shards
            mode = render_mode(self.config, shards)
        camera = key = hit = None
        if self.content is not None:
            # Canonical-pose rendering: the snapped camera is what gets
            # rendered, so every viewer in the quantization cell sees
            # the byte-identical product whether it hit or rendered.
            camera = self.content.canonical_camera(self._camera(k, detail))
            key = self.content.frame_key(
                self.spec, camera, self._frame_clock(k), detail, mode
            )
            self.key_trace.append(key)
            hit = self.content.lookup(key)
        numbers = self._frame(k, detail, shards, mode, camera, key, hit)
        qos = None
        if controller is not None:
            qos = controller.observe(
                frame=k, detail=detail, sim_seconds=numbers["sim_seconds"]
            )
        self._next_frame = k + 1
        return FrameRecord(
            frame=k,
            wall_seconds=0.0 if t0 is None else time.perf_counter() - t0,
            detail=detail,
            qos=qos,
            shards=shards,
            **numbers,
        )

    def _camera(self, k: int, detail: float) -> Camera:
        """Frame ``k``'s trajectory camera at ``detail``'s resolution."""
        camera = self.trajectory.camera_at(k)
        if self.controller is not None:
            width, height = self.spec.eval_resolution(detail)
            if (camera.width, camera.height) != (width, height):
                camera = camera.with_resolution(width, height)
        return camera

    def _frame_clock(self, frame: int) -> int:
        """:meth:`~repro.scenes.catalog.SceneBundle.frame_clock` of
        ``frame``: equal clocks guarantee equal clouds."""
        if self.spec.app_type is AppType.STATIC:
            return 0
        return frame % self._n_eval_frames


class FrameStream(FramePipeline):
    """Render a camera trajectory over one scene with persistent state.

    Parameters
    ----------
    scene:
        Catalog scene (name, spec, or a pre-built bundle via
        ``bundle=``).
    trajectory:
        The camera path; its resolution defines the frame size.
    config:
        GBU feature configuration; defaults to :func:`streaming_config`.
        The D&B engine must be off — Step 2 is owned by the warm
        binner.
    detail:
        Scene detail multiplier (tests use < 1).
    keep_images:
        Retain each frame's image on its :class:`FrameRecord`.
    device:
        Share an existing :class:`GBUDevice` (the server gives every
        worker one device multiplexed across its sessions).  Each
        frame is one synchronous :meth:`GBUDevice.render` call, so no
        frame is ever left in flight between sessions.
    controller:
        Optional per-session :class:`~repro.stream.qos.
        QualityController`.  When given, every frame renders at the
        controller's current detail (scene bundle *and* resolution
        follow the detail ladder) and the frame's paper-scale latency
        is fed back into the loop; each :class:`FrameRecord` then
        carries a :class:`~repro.stream.qos.QoSRecord`.
    bundle_provider:
        ``(scene, detail) -> SceneBundle`` used to fetch bundles when
        the controller switches detail.  The server passes its
        per-worker bounded :class:`~repro.scenes.BundleCache`; a
        standalone adaptive stream falls back to a private cache.
    content:
        Optional :class:`~repro.stream.content_cache.
        SessionContentView` — this session's window onto the tiered
        content-addressed render cache.  When given, each frame's
        camera is canonicalized (pose quantization), the frame's
        content address is looked up before rendering, and a hit
        short-circuits the functional render while still advancing
        timing, QoS and temporal cache state exactly as a fresh render
        would (see :meth:`_serve_cached`).
    """

    def __init__(
        self,
        scene: SceneSpec | str,
        trajectory: CameraTrajectory,
        config: GBUConfig | None = None,
        detail: float = 1.0,
        keep_images: bool = False,
        bundle: SceneBundle | None = None,
        device: GBUDevice | None = None,
        controller: QualityController | None = None,
        bundle_provider: Callable[..., SceneBundle] | None = None,
        content: SessionContentView | None = None,
    ) -> None:
        if device is not None and config is not None and device.config != config:
            raise ValidationError("pass either a device or a config, not both")
        config = (
            device.config
            if device is not None
            else (streaming_config() if config is None else config)
        )
        if config.use_dnb:
            raise ValidationError(
                "FrameStream owns Rendering Step 2 (warm binning); "
                "use a config with use_dnb=False (see streaming_config())"
            )
        super().__init__(scene, trajectory, config, detail, controller, content)
        spec = self.spec
        if bundle is not None and bundle.spec != spec:
            raise ValidationError(
                f"bundle was built for scene '{bundle.spec.name}', "
                f"stream requested '{spec.name}'"
            )
        self.bundle = bundle if bundle is not None else build_scene(spec, detail=detail)
        self.device = device if device is not None else GBUDevice(config=config)
        self.keep_images = keep_images
        self.scales = ScaleFactors.for_scene(spec)
        if bundle_provider is None and controller is not None:
            cache = BundleCache()
            cache.put(spec, detail, self.bundle)
            bundle_provider = cache.get
        self._bundle_provider = bundle_provider
        self._gpu_model = GPUTimingModel()
        self.binner = WarmBinner(self.bundle.n_source_gaussians)
        self.cache_state = self.device.new_cache_state()

    @property
    def _n_eval_frames(self) -> int:
        return self.bundle.n_eval_frames

    def load_detail(self, detail: float) -> None:
        """Swap in the bundle for ``detail`` (cold binner, new universe)."""
        if self._bundle_provider is None:
            raise ValidationError(
                "stream has no bundle provider; detail cannot change"
            )
        self.bundle = self._bundle_provider(self.spec, detail)
        self.binner = WarmBinner(self.bundle.n_source_gaussians)
        super().load_detail(detail)

    def seek(self, frame: int) -> None:
        """Move the cursor; the warm binner restarts cold.

        Warm binning is exact from cold state, so a moved stream
        renders the same lists and images; only the next frame's
        ``BinningStats`` report less reuse.
        """
        super().seek(frame)
        self.binner.reset()

    def render_next(self) -> FrameRecord:
        """Render the next frame of the trajectory, advancing state
        (see :meth:`FramePipeline._advance`)."""
        return self._advance(time.perf_counter())

    def _frame(self, k, detail, shards, mode, camera, key, hit) -> dict:
        """Serve a content-cache hit; render anything else."""
        if hit is not None:
            return self._serve_cached(*hit)
        if camera is None:
            camera = self._camera(k, detail)
        return self._render(k, camera, shards, key)

    def _render(
        self, k: int, camera: Camera, shards: int, key: str | None
    ) -> dict:
        """Project, bin and render frame ``k`` on the device, storing
        the product under ``key`` when a content cache is attached.

        ``shards`` is this frame's tile-engine count; sessions that
        share one device each pass their own controller-chosen count.
        """
        cloud, extra_flops, source_ids = self.bundle.frame_cloud_indexed(k)
        projected = project(cloud, camera)
        lists, binning = self.binner.build(
            projected,
            frame_key=(camera_fingerprint(camera), self._frame_clock(k)),
            source_ids=source_ids,
        )
        report = self.device.render(
            projected,
            scales=self.scales,
            lists=lists,
            cache_state=self.cache_state,
            feature_ids=source_ids[projected.source_index],
            shards=shards,
        )
        if key is not None:
            self.content.insert(
                CachedFrame(
                    key=key,
                    image=report.image,
                    trace=report.feature_trace,
                    tiles=report.feature_tiles,
                    compute_seconds=report.compute_seconds,
                    n_visible=len(projected),
                    n_instances=lists.n_instances,
                    extra_flops=extra_flops,
                )
            )
        return dict(
            n_visible=len(projected),
            n_instances=lists.n_instances,
            sim_seconds=self._frame_seconds_from(
                accesses=report.cache.accesses,
                image=report.image,
                step3_seconds=report.step3_seconds,
                n_visible=len(projected),
                extra_flops=extra_flops,
            ),
            cache=report.cache_sample,
            binning=binning,
            image=report.image if self.keep_images else None,
        )

    def _serve_cached(self, cached: CachedFrame, level: str) -> dict:
        """Serve a frame from the content cache.

        Only the functional render is skipped.  The cached feature
        trace replays through *this session's* temporal cache state and
        the step-3 roofline recomputes from the replayed counters plus
        the cached compute seconds — bit-identical arithmetic to a
        fresh render, so ``sim_seconds``, QoS verdicts and checkpoint
        state cannot tell a dedup-served frame from a rendered one.
        The warm binner is left untouched (it regenerates whatever
        moved on the next actual render; binning stats are reported as
        full reuse, mirroring that no instance was regenerated).
        """
        cache_sample = self.cache_state.observe_frame(cached.trace, cached.tiles)
        height, width = cached.image.shape[0], cached.image.shape[1]
        step3_s = self.device.replay_step3_seconds(
            cache_sample.report, height, width, self.scales, cached.compute_seconds
        )
        return dict(
            n_visible=cached.n_visible,
            n_instances=cached.n_instances,
            sim_seconds=self._frame_seconds_from(
                accesses=cache_sample.report.accesses,
                image=cached.image,
                step3_seconds=step3_s,
                n_visible=cached.n_visible,
                extra_flops=cached.extra_flops,
            ),
            cache=cache_sample,
            binning=BinningStats(
                total_instances=cached.n_instances,
                reused_instances=cached.n_instances,
                generated_instances=0,
                full_reuse=True,
            ),
            image=cached.image if self.keep_images else None,
            served_from=level,
        )

    def _frame_seconds_from(
        self,
        accesses: int,
        image: np.ndarray,
        step3_seconds: float,
        n_visible: int,
        extra_flops: float,
    ) -> float:
        """Steady-state paper-scale frame latency for one stream frame.

        Shared between the render path (counters read off the device
        report) and the content-cache hit path (counters replayed from
        the cached frame), so both produce bit-identical latencies for
        identical counters.  Only the Step-1/Step-2 workload is modeled
        here; the Step-3 side is ``step3_seconds``.
        """
        height, width = image.shape[0], image.shape[1]
        workload = FrameWorkload(
            n_gaussians=n_visible * self.scales.gaussian,
            step1_extra_flops_per_gaussian=extra_flops,
            n_instances=accesses * self.scales.instance,
            pfs_fragments=0.0,
            irss_fragments=0.0,
            irss_segments=0.0,
            irss_serial_slots=0.0,
            pixels=height * width * self.scales.pixel,
            feature_bytes=0.0,
        )
        step1_s = self._gpu_model.step1_seconds(workload)
        step2_s = self._gpu_model.step2_seconds(
            workload, keys=workload.n_gaussians, depth_sort_only=True
        )
        pipe = PipelinedFrame(
            gpu_seconds=step1_s + step2_s,
            gbu_seconds=step3_seconds,
            sync_seconds=SYNC_SECONDS,
        )
        return pipe.frame_seconds
