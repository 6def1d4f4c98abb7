"""Functional Intra-Row Sequential Shading (IRSS) rasterizer (Sec. IV).

Renders the exact same image as the reference PFS rasterizer (the
transformation is exact, not an approximation — Sec. IV-B) while
modeling the IRSS execution: per (tile, Gaussian) instance, each
intersected row is shaded left-to-right between the first and last
significant fragments; everything outside is skipped.

Three implementations are provided:

* :func:`render_irss` — the production entry point; it runs the
  instance-batched engine of :mod:`repro.render.vectorized`, which is
  an order of magnitude faster than the loops below and bit-identical
  to them.
* :func:`render_irss_loop` — per instance, the per-row intervals come
  from the closed-form oracle (:meth:`IRSSTransform.row_interval`) and
  fragments are evaluated with the shared-intermediate arithmetic
  ``E = x''^2 + y''^2`` where ``x'' = x_start + c * dx``; rows are
  processed with numpy.
* :func:`render_irss_sequential` — a literal scalar transcription of
  the dataflow (binary search for the first fragment, one-at-a-time
  stepping with ``x'' += dx'`` and walk-off detection of the last
  fragment).  It is slow and exists to validate the production path
  and the hardware cycle counts on small inputs.

The two loops are test oracles only; nothing in the serving path calls
them.  All three collect the statistics behind the paper's headline claims:
per-fragment FLOPs (11 -> 2), redundant-fragment skip rate (up to
92.3%), per-row workload imbalance (Fig. 9), and binary-search step
counts for the Row Generation Engine model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_SETTINGS, FLOPS, RenderSettings
from repro.errors import RenderError
from repro.gaussians.projection import Projected2D
from repro.gaussians.sorting import RenderLists, build_render_lists
from repro.core.transform import (
    IRSSTransform,
    binary_search_first_fragment,
    compute_transforms,
)


@dataclass
class IRSSStats:
    """Counters describing one IRSS render.

    Attributes
    ----------
    fragments_shaded:
        Fragments inside [first, last] segments (actually evaluated).
    fragments_pfs_equivalent:
        Fragments the PFS dataflow would have evaluated for the same
        instances (full tile rows) — the denominator of the skip rate.
    fragments_blended:
        Fragments that passed the threshold test and were blended.
    segments:
        Number of non-empty (instance, row) segments.
    rows_considered:
        Total (instance, row) pairs examined.
    rows_skipped_y:
        Rows rejected by the Step-1 ``y''^2 > Th`` test (Fig. 8b).
    rows_skipped_sign:
        Rows rejected by the Step-3 sign test.
    rows_skipped_empty:
        Rows where the interval fell between pixel centers.
    rows_terminated:
        Rows skipped because all their pixels had terminated.
    binary_search_rows:
        Rows that needed the binary search to locate the first fragment.
    binary_search_steps:
        Total binary-search iterations spent (Row Generation Engine).
    eq7_flops:
        FLOPs charged for Eq. 7 under the paper's convention: 11 per
        segment-first fragment, 2 per subsequent fragment.
    instances / instances_processed:
        Same meaning as in the PFS stats.
    """

    fragments_shaded: int = 0
    fragments_pfs_equivalent: int = 0
    fragments_blended: int = 0
    segments: int = 0
    rows_considered: int = 0
    rows_skipped_y: int = 0
    rows_skipped_sign: int = 0
    rows_skipped_empty: int = 0
    rows_terminated: int = 0
    binary_search_rows: int = 0
    binary_search_steps: int = 0
    eq7_flops: int = 0
    instances: int = 0
    instances_processed: int = 0

    @property
    def skip_rate(self) -> float:
        """Fraction of PFS-equivalent fragments that IRSS never touched
        (the paper reports up to 92.3% on static scenes)."""
        if self.fragments_pfs_equivalent == 0:
            return 0.0
        return 1.0 - self.fragments_shaded / self.fragments_pfs_equivalent

    @property
    def flops_per_fragment(self) -> float:
        """Average Eq. 7 FLOPs per shaded fragment (paper: -> 2-3)."""
        if self.fragments_shaded == 0:
            return 0.0
        return self.eq7_flops / self.fragments_shaded


@dataclass
class TileRowWorkload:
    """Per-tile, per-row fragment workload gathered during a render.

    The GBU tile-engine and the GPU SIMT models both schedule from
    these arrays rather than re-deriving geometry.

    Attributes
    ----------
    row_fragments:
        (n_tiles, tile_size) int64 — fragments shaded per image row of
        each tile (row index is local to the tile).
    row_segments:
        (n_tiles, tile_size) int64 — segments per row (each segment
        costs one setup in a Row PE).
    instance_max_run:
        (n_tiles,) int64 — sum over instances of the per-instance
        longest row segment.  A SIMT warp that maps rows to lanes is
        serialized by exactly this quantity.
    instance_setup:
        (n_tiles,) int64 — instances processed per tile (each pays one
        per-instance setup in a warp or generation engine).
    binary_search_steps:
        (n_tiles,) int64 — total search iterations (lane-serial view,
        used by the GPU kernel model).
    instance_search:
        (n_tiles,) int64 — instances with at least one searching row.
        The Row Generation Engine's comparator array searches all 16
        rows concurrently, so an instance pays one parallel search
        latency regardless of how many of its rows search.
    """

    row_fragments: np.ndarray
    row_segments: np.ndarray
    instance_max_run: np.ndarray
    instance_setup: np.ndarray
    binary_search_steps: np.ndarray
    instance_search: np.ndarray

    @property
    def n_tiles(self) -> int:
        return self.row_fragments.shape[0]

    def row_utilization(self) -> float:
        """Mean ratio of row work to (16 x per-tile max row work): the
        SIMT lane utilization the paper measures at 18.9% (Sec. V-A
        uses per-warp max; this is the per-tile aggregate analogue)."""
        busy = self.row_fragments.sum(axis=1).astype(np.float64)
        slots = self.row_fragments.shape[1] * self.instance_max_run.astype(np.float64)
        mask = slots > 0
        if not np.any(mask):
            return 0.0
        return float(busy[mask].sum() / slots[mask].sum())


@dataclass
class IRSSRenderResult:
    """Image plus IRSS statistics and the per-row workload model."""

    image: np.ndarray
    transmittance: np.ndarray
    n_contrib: np.ndarray
    stats: IRSSStats
    workload: TileRowWorkload


def render_irss(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    transform: IRSSTransform | None = None,
    fp16: bool = False,
) -> IRSSRenderResult:
    """Render with the IRSS dataflow (the vectorized engine).

    Parameters
    ----------
    projected:
        Output of Rendering Step 1.
    lists:
        Depth-ordered render lists; built on demand.
    settings:
        Shared blending thresholds.
    transform:
        Precomputed IRSS transforms (e.g. from the D&B engine); built
        on demand via Cholesky.
    fp16:
        Emulate the GBU Row PE's fp16 datapath: Gaussian features and
        blending accumulators are quantized to half precision.  The
        skip logic still uses the fp16-quantized features, so the
        shaded fragment set may differ slightly from fp64 (this is the
        <0.1 PSNR effect of Tab. IV).

    The result is bit-identical to :func:`render_irss_loop`, the test
    oracle.
    """
    from repro.render.vectorized import render_irss_vectorized

    return render_irss_vectorized(
        projected, lists=lists, settings=settings, transform=transform, fp16=fp16
    )


def render_irss_loop(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    transform: IRSSTransform | None = None,
    fp16: bool = False,
) -> IRSSRenderResult:
    """The per-instance, row-vectorized IRSS loop: the test oracle."""
    if lists is None:
        lists = build_render_lists(projected)
    if transform is None:
        transform = compute_transforms(
            projected.conics, projected.means2d, projected.thresholds
        )
    grid = lists.grid
    width, height = projected.image_size
    if (grid.width, grid.height) != (width, height):
        raise RenderError("tile grid does not match projection resolution")

    acc_dtype = np.float16 if fp16 else np.float64
    image = np.zeros((height, width, 3), dtype=acc_dtype)
    transmittance = np.ones((height, width), dtype=acc_dtype)
    n_contrib = np.zeros((height, width), dtype=np.int32)
    stats = IRSSStats()

    tile = grid.tile
    n_tiles = grid.n_tiles
    workload = TileRowWorkload(
        row_fragments=np.zeros((n_tiles, tile), dtype=np.int64),
        row_segments=np.zeros((n_tiles, tile), dtype=np.int64),
        instance_max_run=np.zeros(n_tiles, dtype=np.int64),
        instance_setup=np.zeros(n_tiles, dtype=np.int64),
        binary_search_steps=np.zeros(n_tiles, dtype=np.int64),
        instance_search=np.zeros(n_tiles, dtype=np.int64),
    )

    if fp16:
        features = _Fp16Features(projected, transform)
    else:
        features = None

    for tile_id in range(n_tiles):
        members = lists.per_tile[tile_id]
        stats.instances += len(members)
        if len(members) == 0:
            continue
        _render_tile_irss(
            tile_id, members, projected, transform, grid, settings,
            image, transmittance, n_contrib, stats, workload, features,
        )

    background = settings.background_array().astype(acc_dtype)
    image = image.astype(np.float64) + (
        transmittance.astype(np.float64)[:, :, None] * background.astype(np.float64)
    )
    return IRSSRenderResult(
        image=image,
        transmittance=transmittance.astype(np.float64),
        n_contrib=n_contrib,
        stats=stats,
        workload=workload,
    )


class _Fp16Features:
    """Per-Gaussian feature record quantized to the GBU's fp16 format.

    The Row Generation Engine forwards (position, color, opacity,
    threshold, y''^2, x'', dx'') to the Row PEs (Sec. V-C); in the GBU
    these travel as fp16.  Quantizing the transform coefficients and
    colors once per Gaussian reproduces that datapath.
    """

    def __init__(self, projected: Projected2D, transform: IRSSTransform) -> None:
        as16 = lambda arr: arr.astype(np.float16).astype(np.float64)
        self.u00 = as16(transform.u00)
        self.u01 = as16(transform.u01)
        self.u11 = as16(transform.u11)
        self.thresholds = as16(transform.thresholds)
        self.colors = as16(projected.colors)
        self.opacities = as16(projected.opacities)
        # Screen positions keep fp32-equivalent precision in hardware
        # (they are small integers plus a fraction); quantize means to
        # fp32 which is exact for our resolutions.
        self.means2d = transform.means2d.astype(np.float32).astype(np.float64)


def _render_tile_irss(
    tile_id: int,
    members: np.ndarray,
    projected: Projected2D,
    transform: IRSSTransform,
    grid,
    settings: RenderSettings,
    image: np.ndarray,
    transmittance: np.ndarray,
    n_contrib: np.ndarray,
    stats: IRSSStats,
    workload: TileRowWorkload,
    features: _Fp16Features | None,
) -> None:
    x0, y0, x1, y1 = grid.tile_bounds(tile_id)
    rows = y1 - y0
    cols = x1 - x0

    tile_rgb = image[y0:y1, x0:x1]
    tile_t = transmittance[y0:y1, x0:x1]
    tile_n = n_contrib[y0:y1, x0:x1]

    col_idx = np.arange(cols, dtype=np.float64)
    row_pix_y = np.arange(y0, y1, dtype=np.float64) + 0.5

    fp16 = features is not None
    eps = settings.transmittance_eps

    for g in members:
        live = tile_t > eps
        row_active = live.any(axis=1)
        if not row_active.any():
            break
        n_live_pixels = int(np.count_nonzero(live))
        stats.instances_processed += 1
        workload.instance_setup[tile_id] += 1
        stats.rows_considered += rows

        if fp16:
            u00 = features.u00[g]
            u01 = features.u01[g]
            u11 = features.u11[g]
            th = features.thresholds[g]
            mean = features.means2d[g]
            color = features.colors[g]
            opacity = features.opacities[g]
        else:
            u00 = float(transform.u00[g])
            u01 = float(transform.u01[g])
            u11 = float(transform.u11[g])
            th = float(transform.thresholds[g])
            mean = transform.means2d[g]
            color = projected.colors[g]
            opacity = float(projected.opacities[g])

        # Per-row transformed coordinates of the leftmost pixel center.
        dx_pix = x0 + 0.5 - mean[0]
        dy_pix = row_pix_y - mean[1]
        x_start = u00 * dx_pix + u01 * dy_pix        # x'' at column 0
        y_pp = u11 * dy_pix                           # y'' constant per row
        y_sq = y_pp * y_pp

        # Step 1: whole-row rejection.
        half_sq = th - y_sq
        intersects = half_sq >= 0.0
        stats.rows_skipped_y += int(np.count_nonzero(~intersects))

        half_w = np.sqrt(np.maximum(half_sq, 0.0))
        # Closed-form interval (matches the hardware binary search +
        # walk-off; property-tested in tests/core/test_transform.py).
        with np.errstate(invalid="ignore"):
            c0_raw = np.ceil((-half_w - x_start) / u00)
            c1_raw = np.floor((half_w - x_start) / u00)
        # Reject rows whose interval lies entirely outside the tile
        # before clamping (clamping must not fabricate fragments).
        in_tile = intersects & (c0_raw <= cols - 1) & (c1_raw >= 0)
        c0 = np.clip(np.where(in_tile, c0_raw, 0), 0, cols - 1).astype(np.int64)
        c1 = np.clip(np.where(in_tile, c1_raw, -1), -1, cols - 1).astype(np.int64)
        nonempty = in_tile & (c1 >= c0)

        # Sign test bookkeeping (Step 3): rows whose ellipse lies fully
        # to the left are rejected without a search (x'' and dx'' share
        # a sign); empty intervals to the right cost a failed search.
        outside_left = intersects & ~nonempty & (x_start > 0.0)
        stats.rows_skipped_sign += int(np.count_nonzero(outside_left))
        stats.rows_skipped_empty += int(
            np.count_nonzero(intersects & ~nonempty & ~outside_left)
        )

        # Binary search cost: rows whose leftmost fragment is outside
        # the circle yet an interval may exist to the right.
        needs_search = intersects & (x_start * x_start + y_sq > th) & ~outside_left
        n_search = int(np.count_nonzero(needs_search))
        stats.binary_search_rows += n_search
        search_steps = n_search * max(int(np.ceil(np.log2(max(cols, 2)))), 1)
        stats.binary_search_steps += search_steps
        workload.binary_search_steps[tile_id] += search_steps
        if n_search:
            workload.instance_search[tile_id] += 1

        terminated = nonempty & ~row_active
        stats.rows_terminated += int(np.count_nonzero(terminated))
        shaded_rows = nonempty & row_active
        stats.fragments_pfs_equivalent += n_live_pixels
        if not shaded_rows.any():
            continue

        seg_len = np.where(shaded_rows, c1 - c0 + 1, 0)
        n_frag = int(seg_len.sum())
        n_seg = int(np.count_nonzero(shaded_rows))
        stats.fragments_shaded += n_frag
        stats.segments += n_seg
        stats.eq7_flops += (
            n_seg * FLOPS.irss_flops_first_fragment
            + (n_frag - n_seg) * FLOPS.irss_flops_per_fragment
        )

        local_rows = np.nonzero(shaded_rows)[0]
        workload.row_fragments[tile_id, local_rows] += seg_len[local_rows]
        workload.row_segments[tile_id, local_rows] += 1
        workload.instance_max_run[tile_id] += int(seg_len.max())

        # Shade: E = x''^2 + y''^2 with x'' = x_start + c * dx''.
        xpp = x_start[:, None] + col_idx[None, :] * u00
        if fp16:
            xpp = xpp.astype(np.float16).astype(np.float64)
        power = xpp * xpp + y_sq[:, None]
        inside = (
            shaded_rows[:, None]
            & (col_idx[None, :] >= c0[:, None])
            & (col_idx[None, :] <= c1[:, None])
        )

        alpha = opacity * np.exp(-0.5 * power)
        if fp16:
            alpha = alpha.astype(np.float16).astype(np.float64)
        alpha = np.minimum(alpha, settings.alpha_max)
        blend = inside & (power <= th) & (tile_t > eps)
        k = int(np.count_nonzero(blend))
        if k == 0:
            continue
        stats.fragments_blended += k

        if fp16:
            t64 = tile_t.astype(np.float64)
            weight = np.where(blend, t64 * alpha, 0.0).astype(np.float16)
            tile_rgb += (weight[:, :, None].astype(np.float64)
                         * color[None, None, :]).astype(np.float16)
            tile_t *= np.where(blend, 1.0 - alpha, 1.0).astype(np.float16)
        else:
            weight = np.where(blend, tile_t * alpha, 0.0)
            tile_rgb += weight[:, :, None] * color[None, None, :]
            tile_t *= np.where(blend, 1.0 - alpha, 1.0)
        tile_n += blend.astype(np.int32)


def render_irss_sequential(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    transform: IRSSTransform | None = None,
) -> IRSSRenderResult:
    """Literal scalar IRSS implementation (validation path).

    Follows Sec. IV step by step: Step-1/2/3 first-fragment location
    (including the actual binary search), then sequential stepping
    ``x'' += dx''`` with walk-off detection of the last fragment.
    Orders of magnitude slower than :func:`render_irss`; use on small
    scenes only.
    """
    if lists is None:
        lists = build_render_lists(projected)
    if transform is None:
        transform = compute_transforms(
            projected.conics, projected.means2d, projected.thresholds
        )
    grid = lists.grid
    width, height = projected.image_size

    image = np.zeros((height, width, 3), dtype=np.float64)
    transmittance = np.ones((height, width), dtype=np.float64)
    n_contrib = np.zeros((height, width), dtype=np.int32)
    stats = IRSSStats()
    tile = grid.tile
    workload = TileRowWorkload(
        row_fragments=np.zeros((grid.n_tiles, tile), dtype=np.int64),
        row_segments=np.zeros((grid.n_tiles, tile), dtype=np.int64),
        instance_max_run=np.zeros(grid.n_tiles, dtype=np.int64),
        instance_setup=np.zeros(grid.n_tiles, dtype=np.int64),
        binary_search_steps=np.zeros(grid.n_tiles, dtype=np.int64),
        instance_search=np.zeros(grid.n_tiles, dtype=np.int64),
    )
    eps = settings.transmittance_eps

    for tile_id in range(grid.n_tiles):
        members = lists.per_tile[tile_id]
        stats.instances += len(members)
        if len(members) == 0:
            continue
        x0, y0, x1, y1 = grid.tile_bounds(tile_id)
        cols = x1 - x0
        for g in members:
            if not (transmittance[y0:y1, x0:x1] > eps).any():
                break
            stats.instances_processed += 1
            workload.instance_setup[tile_id] += 1
            max_run = 0
            searched = False
            th = float(transform.thresholds[g])
            dx = float(transform.u00[g])
            opacity = float(projected.opacities[g])
            color = projected.colors[g]
            for y in range(y0, y1):
                stats.rows_considered += 1
                row_t = transmittance[y, x0:x1]
                row_live = row_t > eps
                n_live = int(np.count_nonzero(row_live))
                stats.fragments_pfs_equivalent += n_live
                if n_live == 0:
                    continue
                first, steps = binary_search_first_fragment(
                    transform, g, x0, y, cols
                )
                stats.binary_search_steps += steps
                workload.binary_search_steps[tile_id] += steps
                if steps > 0:
                    stats.binary_search_rows += 1
                    searched = True
                if first < 0:
                    x_start, ypp = transform.row_start(g, x0, y)
                    if ypp * ypp > th:
                        stats.rows_skipped_y += 1
                    elif x_start > 0:
                        stats.rows_skipped_sign += 1
                    else:
                        stats.rows_skipped_empty += 1
                    continue
                x_start, ypp = transform.row_start(g, x0, y)
                y_sq = ypp * ypp
                stats.segments += 1
                local_row = y - y0
                workload.row_segments[tile_id, local_row] += 1
                # Sequential shading with walk-off detection.
                col = first
                xpp = x_start + first * dx
                run = 0
                first_in_segment = True
                while col < cols:
                    power = xpp * xpp + y_sq
                    if power > th:
                        break  # last fragment passed (Sec. IV-C)
                    stats.fragments_shaded += 1
                    run += 1
                    stats.eq7_flops += (
                        FLOPS.irss_flops_first_fragment
                        if first_in_segment
                        else FLOPS.irss_flops_per_fragment
                    )
                    first_in_segment = False
                    px = x0 + col
                    t_here = transmittance[y, px]
                    if t_here > eps:
                        alpha = min(
                            opacity * np.exp(-0.5 * power), settings.alpha_max
                        )
                        image[y, px] += t_here * alpha * color
                        transmittance[y, px] = t_here * (1.0 - alpha)
                        n_contrib[y, px] += 1
                        stats.fragments_blended += 1
                    col += 1
                    xpp += dx
                workload.row_fragments[tile_id, local_row] += run
                max_run = max(max_run, run)
            workload.instance_max_run[tile_id] += max_run
            if searched:
                workload.instance_search[tile_id] += 1

    background = settings.background_array()
    image += transmittance[:, :, None] * background[None, None, :]
    return IRSSRenderResult(
        image=image,
        transmittance=transmittance,
        n_contrib=n_contrib,
        stats=stats,
        workload=workload,
    )
