"""The Gaussian Blending Unit device model and programming interface.

Ties the pieces together: the D&B engine bins and decomposes, the
Row-Centric Tile Engine blends with the IRSS dataflow, the Gaussian
Reuse Cache filters feature traffic, and the chunk pipeline overlaps
binning with blending.  The device renders *functionally* (producing
the actual image through :func:`repro.core.irss.render_irss`, with an
fp16 datapath by default) and *temporally* (cycle accounting for every
engine), mirroring how the paper's emulator wraps the RTL design.

The C-style interface of Listing 1 (``GBU_render_image`` /
``GBU_check_status``) is provided on top of :class:`GBUDevice` for
API parity; Python callers normally use :meth:`GBUDevice.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.config import DEFAULT_CHUNK_SIZE, DEFAULT_SETTINGS, RenderSettings
from repro.core.dnb import reuse_distance_table, run_dnb
from repro.core.irss import IRSSRenderResult, render_irss
from repro.core.pipeline import chunk_count, chunked_overlap_seconds
from repro.core.reuse_cache import (
    POLICIES,
    CacheReport,
    FrameCacheSample,
    TemporalReuseSimulator,
)
from repro.core.irss import TileRowWorkload
from repro.core.tile_engine import TileEngineReport, simulate_tile_engine
from repro.errors import DeviceBusyError, ValidationError
from repro.gaussians.projection import Projected2D
from repro.gaussians.sorting import RenderLists, build_render_lists
from repro.gpu.calibration import DEFAULT_GBU_CALIBRATION, GBUCalibration
from repro.gpu.specs import GBU_SPEC, GBUSpec, GPUSpec, ORIN_NX
from repro.gpu.workload import ScaleFactors


@dataclass(frozen=True)
class GBUConfig:
    """Feature configuration of a GBU instance (the Tab. V axes).

    Attributes
    ----------
    use_dnb:
        Decompose/bin on the GBU (exact intersections, chunk
        pipelining, reuse-distance precomputation).  When off, the GPU
        supplies conservatively binned lists.
    use_cache:
        Enable the Gaussian Reuse Cache.
    cache_policy:
        "reuse_distance" (the paper's), "lru" or "fifo" for ablation.
    fp16:
        Row PE datapath precision.
    chunk_size:
        Gaussians per chunk in the D&B/TilePE pipeline.
    interleaved_rows:
        Row-to-PE assignment (interleaved vs contiguous pairs).
    cross_tile_overlap:
        Let Row Buffers stream work across tile boundaries (design
        point); off inserts a per-tile barrier (ablation).
    """

    use_dnb: bool = True
    use_cache: bool = True
    cache_policy: str = "reuse_distance"
    fp16: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    interleaved_rows: bool = True
    cross_tile_overlap: bool = True

    def __post_init__(self) -> None:
        if self.cache_policy not in POLICIES:
            raise ValidationError(f"unknown cache policy '{self.cache_policy}'")


@dataclass
class GBUReport:
    """Everything one GBU frame produces.

    Timing attributes are *paper-scale* seconds (after applying the
    scene's workload scale); cycle counts are raw simulation values.
    """

    render: IRSSRenderResult
    tile_engine: TileEngineReport
    cache: CacheReport
    dnb_cycles: float
    compute_seconds: float
    memory_seconds: float
    dnb_seconds: float
    step3_seconds: float
    feature_bytes_fetched: float
    feature_bytes_demanded: float
    #: Set when the frame was rendered with a warm cross-frame cache
    #: (``cache_state=`` in :meth:`GBUDevice.render`); ``cache`` then
    #: holds the warm counters and this sample adds stream context.
    cache_sample: FrameCacheSample | None = None
    #: The frame-stable feature access trace and its tile ids, kept
    #: only for warm-cache renders (``cache_state=`` given).  A
    #: content-addressed frame cache replays this trace through a
    #: *different* session's :class:`TemporalReuseSimulator` so a
    #: dedup-served frame advances temporal cache state exactly as a
    #: fresh render would (see :meth:`GBUDevice.replay_step3_seconds`).
    feature_trace: np.ndarray | None = None
    feature_tiles: np.ndarray | None = None

    @property
    def image(self) -> np.ndarray:
        return self.render.image

    @property
    def utilization(self) -> float:
        return self.tile_engine.utilization

    @property
    def traffic_reduction(self) -> float:
        """Fraction of feature traffic the cache removed this frame.

        Delegates to :attr:`CacheReport.traffic_reduction` — the
        DRAM-burst scaling applied to ``feature_bytes_*`` multiplies
        misses and demand alike, so re-deriving the ratio here would
        just duplicate the cache's own byte accounting.
        """
        return self.cache.traffic_reduction


def shard_tile_ranges(lists: RenderLists, n_shards: int) -> list[np.ndarray]:
    """Partition the tile ids into ``n_shards`` contiguous ranges.

    Ranges are balanced by cumulative instance count (empty tiles are
    free), deterministic, and jointly cover every tile exactly once.
    Shards may come back empty when the frame has fewer busy tiles
    than shards.
    """
    if n_shards < 1:
        raise ValidationError("shard count must be at least 1")
    counts = lists.instances_per_tile().astype(np.float64)
    n_tiles = counts.size
    if n_shards == 1:
        return [np.arange(n_tiles, dtype=np.int64)]
    # Split points at equal quantiles of cumulative instance mass; the
    # searchsorted boundaries are monotone, so ranges stay contiguous.
    csum = np.cumsum(counts)
    total = csum[-1] if n_tiles else 0.0
    if total == 0.0:
        bounds = np.linspace(0, n_tiles, n_shards + 1).astype(np.int64)
    else:
        targets = total * np.arange(1, n_shards) / n_shards
        cuts = np.searchsorted(csum, targets, side="left") + 1
        bounds = np.concatenate([[0], np.clip(cuts, 0, n_tiles), [n_tiles]])
        bounds = np.maximum.accumulate(bounds)
    return [
        np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
        for i in range(n_shards)
    ]


def _workload_subset(
    workload: TileRowWorkload, tile_ids: np.ndarray
) -> TileRowWorkload:
    """The workload restricted to ``tile_ids`` (other tiles zeroed).

    The tile engine skips tiles with no instance setup, so simulating a
    subset costs only the shard's own tiles.
    """
    mask = np.zeros(workload.instance_setup.shape[0], dtype=bool)
    mask[tile_ids] = True
    kwargs = {}
    for f in fields(TileRowWorkload):
        arr = getattr(workload, f.name)
        out = np.zeros_like(arr)
        out[mask] = arr[mask]
        kwargs[f.name] = out
    return TileRowWorkload(**kwargs)


class GBUDevice:
    """A simulated Gaussian Blending Unit.

    Parameters
    ----------
    spec:
        Hardware parameters (clock, PEs, cache size).
    config:
        Feature configuration.
    calib:
        Engine cycle costs.
    host_gpu:
        The GPU whose DRAM the GBU shares (bandwidth source).
    """

    def __init__(
        self,
        spec: GBUSpec = GBU_SPEC,
        config: GBUConfig = GBUConfig(),
        calib: GBUCalibration = DEFAULT_GBU_CALIBRATION,
        host_gpu: GPUSpec = ORIN_NX,
    ) -> None:
        self.spec = spec
        self.config = config
        self.calib = calib
        self.host_gpu = host_gpu
        self._busy = False
        self._last_report: GBUReport | None = None

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def render(
        self,
        projected: Projected2D,
        settings: RenderSettings = DEFAULT_SETTINGS,
        scales: ScaleFactors = ScaleFactors(),
        lists: RenderLists | None = None,
        cache_state: TemporalReuseSimulator | None = None,
        feature_ids: np.ndarray | None = None,
        shards: int = 1,
    ) -> GBUReport:
        """Render one frame and account its cycles.

        Parameters
        ----------
        projected:
            Step-1 output (produced by the host GPU).
        settings:
            Blending thresholds shared with the reference.
        scales:
            Sim-to-paper workload scaling for the timing outputs.
        lists:
            Pre-binned render lists; only honored when the D&B engine
            is disabled (otherwise the engine bins exactly itself).
        cache_state:
            Warm cross-frame reuse-cache state (streaming mode).  When
            given, the frame's feature traffic runs through the
            persistent :class:`TemporalReuseSimulator` instead of a
            fresh (cold, single-frame) one; build one with
            :meth:`new_cache_state` and reuse it across the frames of
            one stream session.
        feature_ids:
            Frame-stable identity per visible Gaussian (typically
            ``projected.source_index``), required for ``cache_state``
            to recognize the same Gaussian across frames.  Without it
            the raw visible indices are used, which is only valid when
            the visible set is frame-invariant.
        shards:
            Parallel tile engines for this frame.  The image does not
            change; compute time is the *slowest shard's* cycle count.
        """
        if shards < 1:
            raise ValidationError("shards must be at least 1")
        # --- Decomposition & Binning ---
        if self.config.use_dnb:
            dnb = run_dnb(projected, calib=self.calib, exact=True)
            lists = dnb.lists
            transform = dnb.transform
            dnb_cycles = dnb.report.cycles
        else:
            if lists is None:
                lists = build_render_lists(projected)
            transform = None
            dnb_cycles = 0.0

        # --- Functional render (Row PEs, fp16 datapath) ---
        render = render_irss(
            projected,
            lists,
            settings=settings,
            transform=transform,
            fp16=self.config.fp16,
        )

        # --- Tile engine cycles ---
        # With N tile shards, N engines blend disjoint tile subsets in
        # parallel; the frame completes when the slowest shard does, so
        # that shard's report is the frame's.
        workloads = [render.workload]
        if shards > 1:
            workloads = [
                _workload_subset(render.workload, tiles)
                for tiles in shard_tile_ranges(lists, shards)
            ]
        engine = max(
            (
                simulate_tile_engine(
                    workload,
                    spec=self.spec,
                    calib=self.calib,
                    interleaved=self.config.interleaved_rows,
                    cross_tile_overlap=self.config.cross_tile_overlap,
                )
                for workload in workloads
            ),
            key=lambda report: report.total_cycles,
        )

        # --- Feature traffic through the reuse cache ---
        trace, tile_of_access = reuse_distance_table(lists)
        cache_sample: FrameCacheSample | None = None
        if cache_state is not None:
            stable = trace if feature_ids is None else feature_ids[trace]
            cache_sample = cache_state.observe_frame(stable, tile_of_access)
            cache = cache_sample.report
        else:
            cache = self.new_cache_state().observe_frame(trace, tile_of_access).report

        # --- Paper-scale seconds ---
        # Memory time is *not* divided by shards: they share one DRAM.
        compute_s = engine.total_cycles * scales.fragment / self.spec.clock_hz
        demanded, feature_fetch, memory_s = self._blend_memory_seconds(
            cache, render.image.shape[0], render.image.shape[1], scales
        )
        dnb_s = dnb_cycles * scales.instance / self.spec.clock_hz

        # --- Chunk pipeline: D&B overlaps the (roofline) blending ---
        blend_s = max(compute_s, memory_s)
        if self.config.use_dnb:
            n_chunks = chunk_count(len(projected), self.config.chunk_size)
            step3_s = chunked_overlap_seconds(dnb_s, blend_s, n_chunks)
        else:
            step3_s = blend_s

        report = GBUReport(
            render=render,
            tile_engine=engine,
            cache=cache,
            dnb_cycles=dnb_cycles,
            compute_seconds=compute_s,
            memory_seconds=memory_s,
            dnb_seconds=dnb_s,
            step3_seconds=step3_s,
            feature_bytes_fetched=feature_fetch,
            feature_bytes_demanded=demanded,
            cache_sample=cache_sample,
            feature_trace=stable if cache_state is not None else None,
            feature_tiles=tile_of_access if cache_state is not None else None,
        )
        self._last_report = report
        return report

    def _blend_memory_seconds(
        self, cache: CacheReport, height: int, width: int, scales: ScaleFactors
    ) -> tuple[float, float, float]:
        """Feature-stream byte counters and DRAM seconds for one frame.

        Every miss pulls the fp32 source record at DRAM burst
        granularity; hits are served from the 32 B fp16 lines on chip.
        Index lists and framebuffer writeback always go off-chip.
        Returns ``(demanded, feature_fetch, memory_seconds)``.  The
        arithmetic (order included) is shared verbatim between
        :meth:`render` and :meth:`replay_step3_seconds` so a replayed
        frame's timing is bit-identical to the rendered original.
        """
        demanded = cache.accesses * self.spec.miss_burst_bytes * scales.instance
        feature_fetch = cache.misses * self.spec.miss_burst_bytes * scales.instance
        index_bytes = cache.accesses * self.spec.index_bytes * scales.instance
        pixels = height * width
        framebuffer_bytes = (
            pixels * self.spec.framebuffer_bytes_per_pixel * scales.pixel
        )
        fetched = feature_fetch + index_bytes + framebuffer_bytes
        bandwidth = self.host_gpu.dram_bandwidth * self.calib.gbu_dram_share
        memory_s = fetched / bandwidth
        return demanded, feature_fetch, memory_s

    def replay_step3_seconds(
        self,
        cache: CacheReport,
        height: int,
        width: int,
        scales: ScaleFactors,
        compute_seconds: float,
    ) -> float:
        """Step-3 seconds for a frame served from a content cache.

        A dedup-served frame skips the functional render but its
        *timing* must match a fresh render bit-for-bit: the caller
        replays the cached feature trace through its own session's
        :class:`TemporalReuseSimulator` (yielding ``cache``) and passes
        the cached ``compute_seconds``; this method reapplies the same
        memory roofline as :meth:`render`.  Only valid for streaming
        configurations (``use_dnb=False``), where step 3 is the plain
        compute/memory max with no chunked D&B overlap.
        """
        if self.config.use_dnb:
            raise ValidationError(
                "replay_step3_seconds requires use_dnb=False (streaming mode)"
            )
        _, _, memory_s = self._blend_memory_seconds(cache, height, width, scales)
        return max(compute_seconds, memory_s)

    def new_cache_state(self) -> TemporalReuseSimulator:
        """A fresh warm-cache state sized for this device.

        One state per stream session: capacity and policy come from the
        device's spec/config (capacity 0 when the cache is disabled, so
        streaming through a cacheless device degenerates to all
        misses).
        """
        capacity = self.spec.cache_lines if self.config.use_cache else 0
        return TemporalReuseSimulator(
            capacity_lines=capacity,
            bytes_per_line=self.spec.feature_bytes,
            policy=self.config.cache_policy,
        )

    # ------------------------------------------------------------------
    # Listing-1 style interface
    # ------------------------------------------------------------------
    def GBU_render_image(
        self,
        height: int,
        width: int,
        input_feature: Projected2D,
        sorted_index: RenderLists | None,
        frame_buffer: np.ndarray,
        ch: int = 3,
        scales: ScaleFactors = ScaleFactors(),
        cache_state: TemporalReuseSimulator | None = None,
        feature_ids: np.ndarray | None = None,
        shards: int = 1,
    ) -> None:
        """C-interface shim of Listing 1.

        Triggers an asynchronous render into ``frame_buffer``; poll or
        block with :meth:`GBU_check_status`.  The ``sorted_index``
        argument carries the Step-2 output, as in the paper's API.
        The keyword extensions (``scales``, ``cache_state``,
        ``feature_ids``, ``shards``) mirror :meth:`render` so streaming
        servers can drive the device through the busy/handshake
        protocol.
        """
        if self._busy:
            raise DeviceBusyError("GBU busy: frame already in flight")
        if frame_buffer.shape != (height, width, ch):
            raise ValidationError(
                f"frame buffer must be ({height}, {width}, {ch})"
            )
        if (width, height) != input_feature.image_size:
            raise ValidationError("frame buffer does not match projection size")
        if ch != 3:
            raise ValidationError("this model implements 3 color channels")
        # A frame that fails to render is never in flight, so the
        # device stays idle for the next one.
        report = self.render(
            input_feature,
            scales=scales,
            lists=sorted_index,
            cache_state=cache_state,
            feature_ids=feature_ids,
            shards=shards,
        )
        self._busy = True
        self._pending_copy = (frame_buffer, report.image)

    def GBU_check_status(self, blocking: bool = False) -> int:
        """Return 1 while a frame is in flight, 0 when idle.

        With ``blocking=True`` the (simulated) frame completes: the
        image lands in the caller's frame buffer and 0 is returned.
        GBU does not synchronize with any CUDA stream by itself — this
        call is how the GPU/GBU frame pipeline hands over buffers.
        """
        if not self._busy:
            return 0
        if not blocking:
            return 1
        frame_buffer, image = self._pending_copy
        frame_buffer[...] = image
        self._busy = False
        return 0

    @property
    def last_report(self) -> GBUReport:
        if self._last_report is None:
            raise ValidationError("no frame rendered yet")
        return self._last_report
