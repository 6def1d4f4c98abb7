"""Intra-frame tile sharding: one frame's tile grid across N workers.

Tile-based rasterization is pixel-disjoint by construction — every
pixel belongs to exactly one 16x16 tile, and a tile's blending reads
and writes only its own pixels.  That makes the tile grid an exact
parallel axis *within* a single frame: split the non-empty tiles into
N shards, render each shard independently (any registered backend),
and stitch the per-tile pixel regions and workload counters back
together.  The stitched result is **bit-identical** to the unsharded
render at any shard count (property-tested in
``tests/render/test_sharding.py``), because no floating-point
operation crosses a tile boundary.

Shards are contiguous tile-id ranges balanced by instance count
(:func:`shard_tile_ranges`), so one heavy frame splits into
near-equal slices of blending work instead of equal slices of screen.

The shards render sequentially in the calling process.  The serving
stack's latency benefit comes from the GBU timing model treating the
shards as parallel tile engines (see
:meth:`repro.core.gbu.GBUDevice.render`), not from host parallelism.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.config import DEFAULT_SETTINGS, RenderSettings
from repro.core.irss import IRSSRenderResult, IRSSStats, TileRowWorkload
from repro.core.transform import IRSSTransform
from repro.errors import ValidationError
from repro.gaussians.projection import Projected2D
from repro.gaussians.rasterizer import RenderResult, RenderStats
from repro.gaussians.sorting import RenderLists, build_render_lists


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


def sub_render_lists(lists: RenderLists, tile_ids: np.ndarray) -> RenderLists:
    """Render lists restricted to ``tile_ids`` (others emptied)."""
    keep = set(int(t) for t in tile_ids)
    empty = np.zeros(0, dtype=np.int64)
    per_tile = [
        members if t in keep else empty
        for t, members in enumerate(lists.per_tile)
    ]
    return RenderLists(grid=lists.grid, per_tile=per_tile)


def _sum_stats(cls, shard_stats: list, skip: tuple[str, ...] = ()):
    merged = cls()
    for name in (f.name for f in fields(cls)):
        if name in skip:
            continue
        setattr(merged, name, sum(getattr(s, name) for s in shard_stats))
    return merged


def _stitch_pixels(grid, shard_tiles, shard_images, out) -> None:
    """Copy every shard's tile regions into ``out`` (disjoint writes)."""
    for tiles, img in zip(shard_tiles, shard_images):
        for t in tiles:
            x0, y0, x1, y1 = grid.tile_bounds(int(t))
            out[y0:y1, x0:x1] = img[y0:y1, x0:x1]


def merge_pfs_shards(
    grid,
    shard_tiles: list[np.ndarray],
    results: list[RenderResult],
) -> RenderResult:
    """Stitch per-shard PFS results into one frame (exact)."""
    height, width = results[0].image.shape[:2]
    image = np.zeros_like(results[0].image)
    transmittance = np.ones_like(results[0].transmittance)
    n_contrib = np.zeros_like(results[0].n_contrib)
    for arrays, out in (
        ([r.image for r in results], image),
        ([r.transmittance for r in results], transmittance),
        ([r.n_contrib for r in results], n_contrib),
    ):
        _stitch_pixels(grid, shard_tiles, arrays, out)
    stats = _sum_stats(RenderStats, [r.stats for r in results], skip=("pixels",))
    stats.pixels = width * height
    return RenderResult(
        image=image, transmittance=transmittance, n_contrib=n_contrib, stats=stats
    )


def merge_irss_shards(
    grid,
    shard_tiles: list[np.ndarray],
    results: list[IRSSRenderResult],
) -> IRSSRenderResult:
    """Stitch per-shard IRSS results into one frame (exact)."""
    image = np.zeros_like(results[0].image)
    transmittance = np.ones_like(results[0].transmittance)
    n_contrib = np.zeros_like(results[0].n_contrib)
    for arrays, out in (
        ([r.image for r in results], image),
        ([r.transmittance for r in results], transmittance),
        ([r.n_contrib for r in results], n_contrib),
    ):
        _stitch_pixels(grid, shard_tiles, arrays, out)
    stats = _sum_stats(IRSSStats, [r.stats for r in results])
    workload = TileRowWorkload(
        **{
            f.name: sum(getattr(r.workload, f.name) for r in results)
            for f in fields(TileRowWorkload)
        }
    )
    return IRSSRenderResult(
        image=image,
        transmittance=transmittance,
        n_contrib=n_contrib,
        stats=stats,
        workload=workload,
    )


def _render_shard(
    mode: str,
    projected: Projected2D,
    sub: RenderLists,
    settings: RenderSettings,
    transform: IRSSTransform | None,
    fp16: bool,
    backend: str | None,
):
    """Render one shard with the resolved backend."""
    from repro.render.backends import resolve_backend

    engine = resolve_backend(backend)
    if mode == "pfs":
        return engine.render_pfs(projected, lists=sub, settings=settings)
    return engine.render_irss(
        projected, lists=sub, settings=settings, transform=transform, fp16=fp16
    )


def _run_shards(
    mode: str,
    projected: Projected2D,
    lists: RenderLists,
    settings: RenderSettings,
    transform: IRSSTransform | None,
    fp16: bool,
    n_shards: int,
    backend: str | None,
) -> tuple[list[np.ndarray], list]:
    shard_tiles = shard_tile_ranges(lists, n_shards)
    results = [
        _render_shard(
            mode, projected, sub_render_lists(lists, tiles), settings,
            transform, fp16, backend,
        )
        for tiles in shard_tiles
    ]
    return shard_tiles, results


def render_pfs_sharded(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    n_shards: int = 2,
    backend: str | None = None,
) -> RenderResult:
    """PFS render split over ``n_shards`` tile shards, stitched exactly."""
    if lists is None:
        lists = build_render_lists(projected)
    if n_shards == 1:
        return _render_shard("pfs", projected, lists, settings, None, False, backend)
    shard_tiles, results = _run_shards(
        "pfs", projected, lists, settings, None, False, n_shards, backend
    )
    return merge_pfs_shards(lists.grid, shard_tiles, results)


def render_irss_sharded(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    transform: IRSSTransform | None = None,
    fp16: bool = False,
    n_shards: int = 2,
    backend: str | None = None,
) -> IRSSRenderResult:
    """IRSS render split over ``n_shards`` tile shards, stitched exactly."""
    if lists is None:
        lists = build_render_lists(projected)
    if n_shards == 1:
        return _render_shard(
            "irss", projected, lists, settings, transform, fp16, backend
        )
    shard_tiles, results = _run_shards(
        "irss", projected, lists, settings, transform, fp16, n_shards, backend
    )
    return merge_irss_shards(lists.grid, shard_tiles, results)


class ShardedRenderer:
    """Render single frames across N tile shards.

    Parameters
    ----------
    n_shards:
        Number of tile shards per frame (1 = plain dispatch).
    backend:
        Backend name each shard renders with (``None`` = process
        default); any registered backend works.
    """

    def __init__(self, n_shards: int, backend: str | None = None) -> None:
        if n_shards < 1:
            raise ValidationError("shard count must be at least 1")
        self.n_shards = int(n_shards)
        self.backend = backend

    def render_pfs(
        self,
        projected: Projected2D,
        lists: RenderLists | None = None,
        settings: RenderSettings = DEFAULT_SETTINGS,
    ) -> RenderResult:
        return render_pfs_sharded(
            projected, lists, settings=settings,
            n_shards=self.n_shards, backend=self.backend,
        )

    def render_irss(
        self,
        projected: Projected2D,
        lists: RenderLists | None = None,
        settings: RenderSettings = DEFAULT_SETTINGS,
        transform: IRSSTransform | None = None,
        fp16: bool = False,
    ) -> IRSSRenderResult:
        return render_irss_sharded(
            projected, lists, settings=settings, transform=transform,
            fp16=fp16, n_shards=self.n_shards, backend=self.backend,
        )
