"""Rendering Step 3 — reference Parallel Fragment Shading rasterizer.

This is the numerical reference for the whole repository: a faithful
re-implementation of the 3DGS tile-based CUDA kernel's observable
behavior (Sec. II-B of the paper).  Per tile, Gaussians are processed
in depth order; for each Gaussian the Mahalanobis form of Eq. 7 is
evaluated at every pixel of the tile in lockstep (the PFS dataflow),
alpha is computed per Eq. 5, and front-to-back alpha blending per
Eq. 6 with per-pixel early termination.

Besides the image, the rasterizer returns the workload statistics the
paper's profiling sections are built on: fragments shaded vs.
significant, per-tile processed-Gaussian counts (early termination
shortens tails), and per-pixel contributor counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_SETTINGS, FLOPS, RenderSettings
from repro.errors import RenderError
from repro.gaussians.projection import Projected2D
from repro.gaussians.sorting import RenderLists, build_render_lists
from repro.gaussians.tiles import TileGrid


@dataclass
class RenderStats:
    """Workload counters accumulated while rasterizing one image.

    Attributes
    ----------
    fragments_shaded:
        Fragments whose Eq. 7 form was evaluated (for PFS this is
        every pixel of every (tile, Gaussian) instance on pixels that
        had not yet terminated).
    fragments_significant:
        Fragments whose alpha cleared ``alpha_min`` and were blended.
    instances:
        (tile, Gaussian) pairs considered.
    instances_processed:
        Pairs actually processed before whole-tile early termination.
    eq7_flops:
        FLOPs charged for Eq. 7 evaluation under the paper's
        convention (11 per PFS fragment).
    pixels:
        Number of pixels in the image.
    """

    fragments_shaded: int = 0
    fragments_significant: int = 0
    instances: int = 0
    instances_processed: int = 0
    eq7_flops: int = 0
    pixels: int = 0

    @property
    def significant_fraction(self) -> float:
        """Share of shaded fragments that actually contributed
        (Challenge 2 reports 7.6-13.7% across app types)."""
        if self.fragments_shaded == 0:
            return 0.0
        return self.fragments_significant / self.fragments_shaded


@dataclass
class RenderResult:
    """Output of a rasterizer: image plus diagnostics.

    Attributes
    ----------
    image:
        (H, W, 3) float64 linear RGB in [0, ~1].
    transmittance:
        (H, W) remaining transmittance per pixel.
    n_contrib:
        (H, W) int32 count of blended fragments per pixel.
    stats:
        Aggregated :class:`RenderStats`.
    """

    image: np.ndarray
    transmittance: np.ndarray
    n_contrib: np.ndarray
    stats: RenderStats


def render_reference(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
) -> RenderResult:
    """Rasterize with the PFS dataflow (the vectorized engine).

    Parameters
    ----------
    projected:
        Output of Rendering Step 1.
    lists:
        Depth-sorted render lists (Step 2); built on demand if omitted.
    settings:
        Blending thresholds and background color.

    The result is bit-identical to :func:`render_reference_loop`, the
    scalar oracle the parity tests compare it against.
    """
    from repro.render.vectorized import render_pfs_vectorized

    return render_pfs_vectorized(projected, lists=lists, settings=settings)


def render_reference_loop(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
) -> RenderResult:
    """The scalar per-(tile, Gaussian) PFS loop: the test oracle."""
    if lists is None:
        lists = build_render_lists(projected)
    grid = lists.grid
    width, height = projected.image_size
    if (grid.width, grid.height) != (width, height):
        raise RenderError("tile grid does not match projection resolution")

    image = np.zeros((height, width, 3), dtype=np.float64)
    transmittance = np.ones((height, width), dtype=np.float64)
    n_contrib = np.zeros((height, width), dtype=np.int32)
    stats = RenderStats(pixels=width * height)

    for tile_id in range(grid.n_tiles):
        members = lists.per_tile[tile_id]
        stats.instances += len(members)
        if len(members) == 0:
            continue
        _render_tile(
            tile_id, members, projected, grid, settings,
            image, transmittance, n_contrib, stats,
        )

    background = settings.background_array()
    image += transmittance[:, :, None] * background[None, None, :]
    return RenderResult(
        image=image, transmittance=transmittance, n_contrib=n_contrib, stats=stats
    )


def _render_tile(
    tile_id: int,
    members: np.ndarray,
    projected: Projected2D,
    grid: TileGrid,
    settings: RenderSettings,
    image: np.ndarray,
    transmittance: np.ndarray,
    n_contrib: np.ndarray,
    stats: RenderStats,
) -> None:
    """Blend one tile in place, mimicking the CUDA kernel's PFS loop."""
    x0, y0, x1, y1 = grid.tile_bounds(tile_id)
    ys, xs = np.mgrid[y0:y1, x0:x1]
    # Pixel centers at half-integer coordinates.
    px = xs.astype(np.float64) + 0.5
    py = ys.astype(np.float64) + 0.5

    tile_rgb = image[y0:y1, x0:x1]
    tile_t = transmittance[y0:y1, x0:x1]
    tile_n = n_contrib[y0:y1, x0:x1]

    for g in members:
        active = tile_t > settings.transmittance_eps
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            # Whole tile terminated: the CUDA kernel's warps all retire.
            break
        stats.instances_processed += 1
        # PFS shades every not-yet-terminated pixel in lockstep.
        stats.fragments_shaded += n_active
        stats.eq7_flops += n_active * FLOPS.pfs_flops_per_fragment

        a, b, c = projected.conics[g]
        dx = px - projected.means2d[g, 0]
        dy = py - projected.means2d[g, 1]
        power = a * dx * dx + 2.0 * b * dx * dy + c * dy * dy

        alpha = projected.opacities[g] * np.exp(-0.5 * power)
        alpha = np.minimum(alpha, settings.alpha_max)
        # Truncation: keep fragments inside the thresholded ellipse.
        # Th encodes alpha >= alpha_min capped at the 3-sigma bound, so
        # this single test is the one both PFS and IRSS must agree on.
        contributes = active & (power <= projected.thresholds[g])
        k = int(np.count_nonzero(contributes))
        if k == 0:
            continue
        stats.fragments_significant += k

        weight = np.where(contributes, tile_t * alpha, 0.0)
        tile_rgb += weight[:, :, None] * projected.colors[g][None, None, :]
        tile_t *= np.where(contributes, 1.0 - alpha, 1.0)
        tile_n += contributes.astype(np.int32)


def render_image(
    projected: Projected2D, settings: RenderSettings = DEFAULT_SETTINGS
) -> np.ndarray:
    """Convenience wrapper returning just the image array."""
    return render_reference(projected, settings=settings).image
