"""The instance-batched rendering engine (PFS and IRSS).

The scalar oracle loops iterate Python-level over every
(tile, Gaussian) instance, which would cap the whole repository at toy
resolutions.  This module restructures the same dataflow for
throughput — the GauRast/FLICKER observation that the win comes from
batching work *across* instances rather than iterating them:

* The per-tile member lists are flattened into padded instance
  matrices, grouped by clipped tile shape (interior tiles batch
  together; edge tiles batch per shape) and sorted by descending
  instance count so padding stays negligible.  Tiles and depths are
  chunked under a fragment budget per dataflow: PFS keeps its dense
  bricks cache-resident, while IRSS, which materializes only row
  geometry and the fragments inside row segments, takes chunks four
  times larger to amortize per-call overhead.
* **PFS: depth-slab batching.**  PFS evaluates every pixel by
  definition, so whole depth slabs of instances are evaluated at once
  in ``(tile, row, col, depth)`` bricks — depth last, so the
  sequential-in-depth operations run on contiguous memory.  The
  transmittance recurrence ``T_d = T_{d-1} * (1 - alpha_d)`` is an
  in-order prefix product (``np.multiply.accumulate`` along the depth
  axis), and per-pixel early termination is reproduced by *freezing*
  the transmittance at its first ``eps`` crossing — the unfrozen tail
  of the product is only ever read where the blend mask is already
  false.  The exp/alpha path runs only on fragments that pass the
  threshold test.
* **IRSS: segment-driven fragments.**  As in the paper's dataflow,
  work follows the fragments that exist.  The Step 1–3 row geometry
  runs per (tile, row, instance); candidate fragments are enumerated
  only inside each nonempty ``[c0, c1]`` row segment (``np.repeat``
  over segment lengths), and Eq. 7 and alpha are evaluated on those
  alone.  A stable sort orders the fragments by pixel, depth order
  kept within each pixel, and the transmittance is an exact per-pixel
  scan along a padded ``(rank, pixel run)`` matrix whose padding
  multiplies by exactly 1.0.  The early-termination counters come from
  each pixel's ``eps``-crossing depth.
* The per-pixel color accumulation — the one genuinely sequential
  float reduction — uses ``np.einsum`` (which accumulates the
  contraction axis in order) for the first PFS depth slab, and
  unbuffered ``np.add.at`` in depth order everywhere else.  Both
  reproduce the reference add sequence exactly.

Both renderers are pixel-exact against their oracle loops
(``render_reference_loop``, ``render_irss_loop``): bit-identical
images, transmittance, contributor counts, and identical
``RenderStats`` / ``IRSSStats`` / ``TileRowWorkload`` counters
(including early-termination semantics and the fp16 Row-PE datapath).
This is property-tested in ``tests/render/test_backend_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_SETTINGS, FLOPS, RenderSettings
from repro.core.irss import (
    IRSSRenderResult,
    IRSSStats,
    TileRowWorkload,
    _Fp16Features,
)
from repro.core.transform import IRSSTransform, compute_transforms
from repro.errors import RenderError
from repro.gaussians.projection import Projected2D
from repro.gaussians.rasterizer import RenderResult, RenderStats
from repro.gaussians.sorting import RenderLists, build_render_lists

#: Upper bound on the number of (tile, pixel, instance) fragments per
#: PFS chunk.  PFS materializes every fragment of a chunk in dense
#: ``(tile, row, col, depth)`` bricks (float64 working arrays are ~8x
#: this in bytes).  The brick sweeps are bandwidth-bound, so the budget
#: keeps a chunk's working set cache-resident — small chunks beat big
#: ones by ~2.5x — while still amortizing per-call overhead.  Tiles and
#: depths are chunked to stay under it, so arbitrarily large scenes
#: render in bounded memory.
CHUNK_FRAGMENT_BUDGET = 1 << 16
#: The same bound for IRSS chunks, in the same (tile, pixel, instance)
#: units.  IRSS materializes no brick: per chunk it holds
#: ``(tile, row, depth)`` row geometry (1/cols of the budget) and the
#: candidate fragments of the nonempty row segments, a small share of
#: it.  Its cost per chunk is numpy call overhead, so it takes larger
#: chunks.  On eight 256x168 orbit frames of bicycle and female_4
#: (detail 1.0, fp16 datapath, one AMD EPYC core, numpy 2.4) a frame
#: blended in 25.1 ms at 2^16, 22.0 ms at 2^17, 20.9 ms at 2^18,
#: 21.3 ms at 2^19, 24.4 ms at 2^20 and 33.4 ms at 2^22; outputs were
#: identical at every budget.  Both IRSS datapaths (fp64 and fp16) use
#: it.
IRSS_CHUNK_FRAGMENT_BUDGET = 1 << 18


@dataclass
class _TileBatch:
    """Non-empty tiles sharing one clipped shape.

    Tiles are ordered by descending member count so that chunks of
    consecutive tiles have near-uniform depth (minimal padding).

    Attributes
    ----------
    rows, cols:
        Clipped tile shape in pixels.
    tile_ids:
        (T,) tile indices into the grid.
    member_lists:
        Per tile (batch order), the depth-ordered Gaussian indices.
        Padded matrices are materialized per chunk (bounded memory),
        not per batch — see :meth:`padded_members`.
    lengths:
        (T,) member counts (non-increasing).
    x0, y0:
        (T,) pixel origin of each tile.
    """

    rows: int
    cols: int
    tile_ids: np.ndarray
    member_lists: list[np.ndarray]
    lengths: np.ndarray
    x0: np.ndarray
    y0: np.ndarray

    def padded_members(self, t0: int, t1: int) -> np.ndarray:
        """(t1-t0, depth) member matrix for a tile chunk, -1 padded."""
        depth = int(self.lengths[t0])
        members = np.full((t1 - t0, depth), -1, dtype=np.int64)
        for row, tile in enumerate(range(t0, t1)):
            tile_members = self.member_lists[tile]
            members[row, : len(tile_members)] = tile_members
        return members


def build_tile_batches(lists: RenderLists) -> list[_TileBatch]:
    """Group the non-empty tiles of a frame into shape-uniform batches."""
    grid = lists.grid
    counts = lists.instances_per_tile()
    groups: dict[tuple[int, int], list[int]] = {}
    for tile_id in np.nonzero(counts > 0)[0]:
        groups.setdefault(grid.tile_shape(int(tile_id)), []).append(int(tile_id))

    batches: list[_TileBatch] = []
    for (rows, cols), ids_list in groups.items():
        ids = np.asarray(ids_list, dtype=np.int64)
        lengths = counts[ids]
        order = np.argsort(-lengths, kind="stable")
        ids = ids[order]
        lengths = lengths[order]
        ty, tx = np.divmod(ids, grid.tiles_x)
        batches.append(
            _TileBatch(
                rows=rows,
                cols=cols,
                tile_ids=ids,
                member_lists=[lists.per_tile[int(t)] for t in ids],
                lengths=lengths,
                x0=tx * grid.tile,
                y0=ty * grid.tile,
            )
        )
    return batches


def _tile_chunks(batch: _TileBatch, budget: int) -> list[tuple[int, int]]:
    """Split a batch into [t0, t1) tile ranges bounded by the budget."""
    pixels = batch.rows * batch.cols
    chunks: list[tuple[int, int]] = []
    t0 = 0
    n = batch.tile_ids.size
    while t0 < n:
        depth = max(int(batch.lengths[t0]), 1)
        span = max(budget // (depth * pixels), 1)
        t1 = min(n, t0 + span)
        chunks.append((t0, t1))
        t0 = t1
    return chunks


def _pixel_runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, last)`` flags of each pixel's run of fragments.

    ``key`` is the flat pixel index of fragments sorted by pixel, so
    each pixel's fragments form one contiguous run in depth order.
    """
    first = np.ones(key.size, dtype=bool)
    last = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    last[:-1] = first[1:]
    return first, last


def _exact_scan(
    t_in: np.ndarray, key: np.ndarray, factors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-pixel transmittance scan over pixel-sorted fragments.

    Lays each pixel's ``(1 - alpha)`` factors out along the rank axis
    of a ``(rank + 1, pixel run)`` matrix of ones whose rank-0 row holds
    the incoming transmittance, then runs ``np.multiply.accumulate``
    down the rank axis in the accumulator dtype.  That multiplies in
    exactly the reference order: every padding slot multiplies by 1.0,
    which is exact.  Returns per fragment the pre- and post-instance
    transmittance and the flag of each pixel's last fragment.
    """
    first, last = _pixel_runs(key)
    run = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    rank = np.arange(key.size) - starts[run]
    prod = np.ones((int(rank.max(initial=-1)) + 2, starts.size), dtype=t_in.dtype)
    prod[0] = t_in[key[starts]]
    prod[rank + 1, run] = factors
    np.multiply.accumulate(prod, axis=0, out=prod)
    return prod[rank, run], prod[rank + 1, run], last


def _chunk_transmittance(
    tile_t: np.ndarray,
    key: np.ndarray,
    depth: np.ndarray,
    alpha: np.ndarray,
    d_span: int,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transmittance state of one depth chunk of pixel-sorted fragments.

    ``key`` is each fragment's flat pixel index within the tile chunk
    and ``depth`` its depth index within the chunk.  The scan runs in
    order in the accumulator dtype (fp64, or fp16 for the Row-PE
    datapath).

    Early termination follows from each pixel's ``eps`` crossing: a
    pixel is active at every depth up to the fragment whose product
    first drops to ``eps`` (all of them if it never does, none if it
    entered the chunk already terminated), and its transmittance
    freezes there.

    Returns ``(t_before, active, n_live, row_limit, t_out)``: each
    fragment's pre-instance transmittance and whether it still blends;
    per ``(tile, depth)`` the count of still-active pixels; per
    ``(tile, row)`` the last depth index at which any of its pixels was
    active (-1 if none); and the frozen post-chunk transmittance.
    """
    t_in = tile_t.reshape(-1)
    factors = (1.0 - alpha).astype(t_in.dtype)
    t_before, t_after, last = _exact_scan(t_in, key, factors)
    active = t_before > eps

    entered = t_in > eps
    limit = np.where(entered, d_span - 1, -1)
    t_out = t_in.copy()
    tail = key[last]
    t_out[tail] = np.where(entered[tail], t_after[last], t_in[tail])
    crossing = active & (t_after <= eps)  # at most one per pixel
    t_out[key[crossing]] = t_after[crossing]
    limit[key[crossing]] = depth[crossing]

    # Active-pixel counts per (tile, depth): a histogram of last-active
    # depths, suffix-summed (limit >= d  <=>  active at depth d).
    n_tiles, rows, cols = tile_t.shape
    tile_of_pix = np.repeat(np.arange(n_tiles, dtype=np.int64), rows * cols)
    hist = np.bincount(
        tile_of_pix * (d_span + 1) + limit + 1,
        minlength=n_tiles * (d_span + 1),
    ).reshape(n_tiles, d_span + 1)
    n_live = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1][:, 1:]
    row_limit = limit.reshape(tile_t.shape).max(axis=2)
    return t_before, active, n_live, row_limit, t_out.reshape(tile_t.shape)


def _blend_fragments(
    tile_rgb: np.ndarray,
    tile_n: np.ndarray,
    key: np.ndarray,
    blend_at: np.ndarray,
    t_before: np.ndarray,
    alpha: np.ndarray,
    colors: np.ndarray,
    gauss: np.ndarray,
) -> int:
    """Blend the active pixel-sorted fragments into the tiles, in place.

    ``colors`` is channel-major ``(3, M)`` and ``gauss`` holds each
    fragment's Gaussian.  Inactive fragments would add exactly zero and
    are skipped.  The per-pixel color sum is the one order-sensitive
    float reduction: unbuffered ``np.add.at`` adds in fragment order,
    which is depth order within each pixel — the reference sequence,
    fp16 rounding of the Row-PE accumulator included.  Returns the
    number of blended fragments.
    """
    key = key[blend_at]
    gauss = gauss[blend_at]
    weight = t_before[blend_at].astype(np.float64) * alpha[blend_at]
    flat_rgb = tile_rgb.reshape(-1, 3)
    if flat_rgb.dtype == np.float16:
        weight = weight.astype(np.float16).astype(np.float64)
    for ch in range(3):  # one 1-D add.at per channel takes numpy's fast path
        contrib = weight * colors[ch][gauss]
        np.add.at(flat_rgb[:, ch], key, contrib.astype(flat_rgb.dtype))
    tile_n += (
        np.bincount(key, minlength=tile_n.size).reshape(tile_n.shape).astype(np.int32)
    )
    return int(key.size)


# ----------------------------------------------------------------------
# PFS (reference dataflow), vectorized
# ----------------------------------------------------------------------
def render_pfs_vectorized(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
) -> RenderResult:
    """Vectorized PFS rasterizer — pixel-exact vs. ``render_reference``."""
    if lists is None:
        lists = build_render_lists(projected)
    grid = lists.grid
    width, height = projected.image_size
    if (grid.width, grid.height) != (width, height):
        raise RenderError("tile grid does not match projection resolution")

    image = np.zeros((height, width, 3), dtype=np.float64)
    transmittance = np.ones((height, width), dtype=np.float64)
    n_contrib = np.zeros((height, width), dtype=np.int32)
    stats = RenderStats(pixels=width * height, instances=lists.n_instances)

    eps = settings.transmittance_eps
    conics = projected.conics.astype(np.float64, copy=False)
    means2d = projected.means2d.astype(np.float64, copy=False)
    opacities = projected.opacities.astype(np.float64, copy=False)
    thresholds = projected.thresholds.astype(np.float64, copy=False)
    colors = np.ascontiguousarray(projected.colors.T, dtype=np.float64)  # (3, M)

    for batch in build_tile_batches(lists):
        rows, cols = batch.rows, batch.cols
        for t0, t1 in _tile_chunks(batch, CHUNK_FRAGMENT_BUDGET):
            x0 = batch.x0[t0:t1]
            y0 = batch.y0[t0:t1]
            depth = int(batch.lengths[t0])
            n_tiles = t1 - t0
            # Pixel centers at half-integer coordinates (exact in fp64).
            px = (
                x0[:, None, None, None]
                + np.arange(cols, dtype=np.int64)[None, None, :, None]
            ) + 0.5  # (T, 1, cols, 1)
            py = (
                y0[:, None, None, None]
                + np.arange(rows, dtype=np.int64)[None, :, None, None]
            ) + 0.5  # (T, rows, 1, 1)
            yy = y0[:, None, None] + np.arange(rows)[None, :, None]
            xx = x0[:, None, None] + np.arange(cols)[None, None, :]
            tile_t = transmittance[yy, xx]  # (T, rows, cols)
            tile_rgb = image[yy, xx]
            tile_n = n_contrib[yy, xx]
            members = batch.padded_members(t0, t1)

            d_step = max(CHUNK_FRAGMENT_BUDGET // (n_tiles * rows * cols), 1)
            for d0 in range(0, depth, d_step):
                d1 = min(depth, d0 + d_step)
                m = members[:, d0:d1]
                valid = m >= 0
                g = np.where(valid, m, 0)

                # Depth-last bricks: (T, rows, cols, D).  The quadratic
                # is composed in-place but with the reference expression's
                # exact association: (a*dx)*dx + ((2b)*dx)*dy + (c*dy)*dy
                # (the += reorder below only swaps commutative adds).
                dx = px - means2d[g, 0][:, None, None, :]  # (T, 1, cols, D)
                dy = py - means2d[g, 1][:, None, None, :]  # (T, rows, 1, D)
                a = conics[g, 0][:, None, None, :]
                b = conics[g, 1][:, None, None, :]
                c = conics[g, 2][:, None, None, :]
                power = (2.0 * b * dx) * dy  # the only full-brick product
                power += a * dx * dx
                power += c * dy * dy

                th = np.where(valid, thresholds[g], -np.inf)
                cmask = power <= th[:, None, None, :]

                # Alpha only matters at threshold-passing fragments (the
                # reference multiplies by 0 / 1 elsewhere), so evaluate
                # the exp on the masked ~10% of fragments only.
                ti, ri, ci, di = np.nonzero(cmask)
                alpha = opacities[g[ti, di]] * np.exp(-0.5 * power[ti, ri, ci, di])
                alpha = np.minimum(alpha, settings.alpha_max)

                # np.nonzero yields (tile, row, col, depth) order: already
                # sorted by pixel, depth-ordered within each pixel.
                key = (ti * rows + ri) * cols + ci
                t_before, blend_at, n_active, _, tile_t = _chunk_transmittance(
                    tile_t, key, di, alpha, d1 - d0, eps
                )
                n_active *= valid
                shaded = int(n_active.sum())
                stats.instances_processed += int(np.count_nonzero(n_active))
                stats.fragments_shaded += shaded
                stats.eq7_flops += shaded * FLOPS.pfs_flops_per_fragment

                blended = _blend_fragments(
                    tile_rgb, tile_n, key, blend_at, t_before, alpha, colors, g[ti, di]
                )
                stats.fragments_significant += blended
                # Whole-chunk early termination: once every pixel of the
                # tile chunk has crossed eps, the remaining depth chunks
                # blend nothing and touch no counter (every mask above is
                # derived from `tile_t > eps`), so skipping them is exact.
                if not (tile_t > eps).any():
                    break

            transmittance[yy, xx] = tile_t
            image[yy, xx] = tile_rgb
            n_contrib[yy, xx] = tile_n

    background = settings.background_array()
    image += transmittance[:, :, None] * background[None, None, :]
    return RenderResult(
        image=image, transmittance=transmittance, n_contrib=n_contrib, stats=stats
    )


# ----------------------------------------------------------------------
# IRSS dataflow, vectorized
# ----------------------------------------------------------------------
class _CastFeatures:
    """Per-Gaussian feature record cast once to float64.

    The fp64 datapath: same attribute layout as ``_Fp16Features`` so the
    gather code below is shared.
    """

    def __init__(self, projected: Projected2D, transform: IRSSTransform) -> None:
        self.u00 = transform.u00.astype(np.float64, copy=False)
        self.u01 = transform.u01.astype(np.float64, copy=False)
        self.u11 = transform.u11.astype(np.float64, copy=False)
        self.thresholds = transform.thresholds.astype(np.float64, copy=False)
        self.colors = projected.colors.astype(np.float64, copy=False)
        self.opacities = projected.opacities.astype(np.float64, copy=False)
        self.means2d = transform.means2d.astype(np.float64, copy=False)


def _segment_candidates(
    nonempty: np.ndarray, c0: np.ndarray, c1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enumerate the columns of every nonempty row segment ``[c0, c1]``.

    Returns ``(seg, cand, col)``: the flat ``(tile, row, depth)``
    indices of the nonempty segments, then per candidate fragment the
    position of its segment in ``seg`` and its column — in
    ``(tile, row, depth, column)`` order.
    """
    seg = np.flatnonzero(nonempty)
    start = c0.reshape(-1)[seg]
    length = c1.reshape(-1)[seg] - start + 1
    cand = np.repeat(np.arange(seg.size), length)
    # column = start + (candidate position - its segment's first position)
    col = np.arange(cand.size) - np.repeat(np.cumsum(length) - length - start, length)
    return seg, cand, col


def render_irss_vectorized(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    transform: IRSSTransform | None = None,
    fp16: bool = False,
) -> IRSSRenderResult:
    """Vectorized IRSS rasterizer — pixel-exact vs. ``render_irss``.

    ``fp16`` selects the GBU Row-PE datapath (fp16 features and
    accumulator); geometry stays float64 either way.
    """
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
    stats = IRSSStats(instances=lists.n_instances)

    tile = grid.tile
    workload = TileRowWorkload(
        row_fragments=np.zeros((grid.n_tiles, tile), dtype=np.int64),
        row_segments=np.zeros((grid.n_tiles, tile), dtype=np.int64),
        instance_max_run=np.zeros(grid.n_tiles, dtype=np.int64),
        instance_setup=np.zeros(grid.n_tiles, dtype=np.int64),
        binary_search_steps=np.zeros(grid.n_tiles, dtype=np.int64),
        instance_search=np.zeros(grid.n_tiles, dtype=np.int64),
    )

    if fp16:
        features = _Fp16Features(projected, transform)
    else:
        features = _CastFeatures(projected, transform)
    colors = np.ascontiguousarray(features.colors.T)  # channel-major gathers
    eps = settings.transmittance_eps

    for batch in build_tile_batches(lists):
        rows, cols = batch.rows, batch.cols
        search_latency = max(int(np.ceil(np.log2(max(cols, 2)))), 1)

        for t0, t1 in _tile_chunks(batch, IRSS_CHUNK_FRAGMENT_BUDGET):
            x0 = batch.x0[t0:t1]
            y0 = batch.y0[t0:t1]
            tids = batch.tile_ids[t0:t1]
            depth = int(batch.lengths[t0])
            n_tiles = t1 - t0
            row_pix_y = (
                y0[:, None] + np.arange(rows, dtype=np.int64)[None, :]
            ) + 0.5  # (T, rows)
            yy = y0[:, None, None] + np.arange(rows)[None, :, None]
            xx = x0[:, None, None] + np.arange(cols)[None, None, :]
            tile_t = transmittance[yy, xx]
            tile_rgb = image[yy, xx]
            tile_n = n_contrib[yy, xx]
            local_rows = np.arange(rows, dtype=np.int64)
            members = batch.padded_members(t0, t1)

            d_step = max(IRSS_CHUNK_FRAGMENT_BUDGET // (n_tiles * rows * cols), 1)
            for d0 in range(0, depth, d_step):
                d1 = min(depth, d0 + d_step)
                d_span = d1 - d0
                m = members[:, d0:d1]
                valid = m >= 0
                g = np.where(valid, m, 0)
                u00 = features.u00[g]
                u01 = features.u01[g]
                u11 = features.u11[g]
                mean = features.means2d[g]
                th = np.where(valid, features.thresholds[g], -np.inf)

                # Per-row transformed coordinates of the leftmost pixel
                # center (all geometry is transmittance-independent).
                # Row-level arrays are (T, rows, D); depth stays last.
                dx_pix = x0[:, None] + 0.5 - mean[:, :, 0]  # (T, D)
                dy_pix = row_pix_y[:, :, None] - mean[:, :, 1][:, None, :]
                x_start = (
                    u00[:, None, :] * dx_pix[:, None, :] + u01[:, None, :] * dy_pix
                )
                y_pp = u11[:, None, :] * dy_pix
                y_sq = y_pp * y_pp

                # Step 1: whole-row rejection.
                half_sq = th[:, None, :] - y_sq
                intersects = half_sq >= 0.0
                half_w = np.sqrt(np.maximum(half_sq, 0.0))
                with np.errstate(invalid="ignore"):
                    c0_raw = np.ceil((-half_w - x_start) / u00[:, None, :])
                    c1_raw = np.floor((half_w - x_start) / u00[:, None, :])
                in_tile = intersects & (c0_raw <= cols - 1) & (c1_raw >= 0)
                c0 = np.clip(np.where(in_tile, c0_raw, 0), 0, cols - 1).astype(
                    np.int64
                )
                c1 = np.clip(np.where(in_tile, c1_raw, -1), -1, cols - 1).astype(
                    np.int64
                )
                nonempty = in_tile & (c1 >= c0) & valid[:, None, :]
                outside_left = intersects & ~nonempty & (x_start > 0.0)
                skipped_empty = intersects & ~nonempty & ~outside_left
                needs_search = (
                    intersects
                    & (x_start * x_start + y_sq > th[:, None, :])
                    & ~outside_left
                )

                # Shade only inside the row segments: E = x''^2 + y''^2
                # with x'' = x_start + c * dx''.  The sqrt bounds can
                # admit a boundary column that fails Eq. 7, so the
                # threshold test stays.
                seg, cand, col = _segment_candidates(nonempty, c0, c1)
                seg_row, seg_depth = np.divmod(seg, d_span)  # row = t*rows + r
                seg_inst = seg_row // rows * d_span + seg_depth  # flat (t, d)
                xpp = x_start.reshape(-1)[seg][cand] + col * (
                    u00.reshape(-1)[seg_inst][cand]
                )
                if fp16:
                    xpp = xpp.astype(np.float16).astype(np.float64)
                power = np.multiply(xpp, xpp, out=xpp)
                power += y_sq.reshape(-1)[seg][cand]
                inside = power <= th.reshape(-1)[seg_inst][cand]
                frag_seg = cand[inside]
                key = seg_row[frag_seg] * cols + col[inside]
                # Pixel-major order; the stable sort keeps each pixel's
                # fragments in depth order (a 16-bit key sorts by radix).
                small = np.uint16 if n_tiles * rows * cols <= 1 << 16 else np.int64
                order = np.argsort(key.astype(small), kind="stable")
                key = key[order]
                frag_seg = frag_seg[order]
                frag_depth = seg_depth[frag_seg]
                gauss = g.reshape(-1)[seg_inst[frag_seg]]
                alpha = features.opacities[gauss] * np.exp(-0.5 * power[inside][order])
                if fp16:
                    alpha = alpha.astype(np.float16).astype(np.float64)
                alpha = np.minimum(alpha, settings.alpha_max)

                t_before, blend_at, n_live, row_limit, tile_t = _chunk_transmittance(
                    tile_t, key, frag_depth, alpha, d_span, eps
                )
                row_active = (
                    row_limit[:, :, None]
                    >= np.arange(d_span, dtype=np.int64)[None, None, :]
                )

                # Early-termination bookkeeping: an instance is
                # "processed" iff any of its tile's pixels was still
                # active when its depth rank came up (the reference
                # loop's whole-tile break).
                n_live *= valid
                processed = n_live > 0
                n_proc = int(np.count_nonzero(processed))
                stats.instances_processed += n_proc
                stats.rows_considered += n_proc * rows
                stats.fragments_pfs_equivalent += int(n_live.sum())
                workload.instance_setup[tids] += processed.sum(axis=1)

                stats.rows_skipped_y += int(
                    ((~intersects).sum(axis=1) * processed).sum()
                )
                stats.rows_skipped_sign += int(
                    (outside_left.sum(axis=1) * processed).sum()
                )
                stats.rows_skipped_empty += int(
                    (skipped_empty.sum(axis=1) * processed).sum()
                )

                n_search = needs_search.sum(axis=1) * processed  # (T, D)
                stats.binary_search_rows += int(n_search.sum())
                steps = n_search * search_latency
                stats.binary_search_steps += int(steps.sum())
                workload.binary_search_steps[tids] += steps.sum(axis=1)
                workload.instance_search[tids] += (n_search > 0).sum(axis=1)

                terminated = nonempty & ~row_active
                stats.rows_terminated += int(
                    (terminated.sum(axis=1) * processed).sum()
                )
                shaded_rows = nonempty & row_active
                seg_len = np.where(shaded_rows, c1 - c0 + 1, 0)
                n_frag = int(seg_len.sum())
                n_seg = int(np.count_nonzero(shaded_rows))
                stats.fragments_shaded += n_frag
                stats.segments += n_seg
                stats.eq7_flops += (
                    n_seg * FLOPS.irss_flops_first_fragment
                    + (n_frag - n_seg) * FLOPS.irss_flops_per_fragment
                )
                workload.row_fragments[tids[:, None], local_rows[None, :]] += (
                    seg_len.sum(axis=2)
                )
                workload.row_segments[tids[:, None], local_rows[None, :]] += (
                    shaded_rows.sum(axis=2)
                )
                workload.instance_max_run[tids] += seg_len.max(axis=1).sum(axis=1)

                blended = _blend_fragments(
                    tile_rgb, tile_n, key, blend_at, t_before, alpha, colors, gauss
                )
                stats.fragments_blended += blended
                # Exact whole-chunk early termination (see the PFS loop).
                if not (tile_t > eps).any():
                    break

            transmittance[yy, xx] = tile_t
            image[yy, xx] = tile_rgb
            n_contrib[yy, xx] = tile_n

    background = settings.background_array().astype(acc_dtype)
    image = image.astype(np.float64) + (
        transmittance.astype(np.float64)[:, :, None]
        * background.astype(np.float64)[None, None, :]
    )
    return IRSSRenderResult(
        image=image,
        transmittance=transmittance.astype(np.float64),
        n_contrib=n_contrib,
        stats=stats,
        workload=workload,
    )
