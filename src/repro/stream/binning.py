"""Warm-started tile binning: carry (tile, Gaussian) instances across
frames.

Rendering Step 2 rebuilds the full (tile, Gaussian) duplication every
frame, yet under head-tracked motion most Gaussians land in exactly
the same tile rectangle as the frame before.  The
:class:`WarmBinner` exploits that: it remembers each source Gaussian's
conservative tile rectangle and the flat instance arrays it generated,
and on the next frame regenerates instances *only* for Gaussians whose
rectangle changed (or that entered/left the view).  Retained and fresh
instances are merged and depth-sorted into ordinary
:class:`~repro.gaussians.sorting.RenderLists`.

Exactness: a Gaussian's instance set is fully determined by its tile
rectangle (the AABB binning enumerates every tile in the rectangle),
so reusing instances of rectangle-stable Gaussians reproduces the cold
binning verbatim.  The final sort uses ``(tile, depth, gaussian)``
keys; since the cold path's stable ``(tile, depth)`` lexsort breaks
ties by the Gaussian-major flat order — ascending Gaussian index — the
explicit third key yields *identical* per-tile lists regardless of the
merge order.  Parity is asserted in ``tests/stream/test_binning.py``.

When the frame key (camera pose + scene clock) is unchanged, the
previous frame's :class:`RenderLists` are returned without any work —
the frozen-camera fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.gaussians.camera import Camera
from repro.gaussians.projection import Projected2D
from repro.gaussians.sorting import RenderLists
from repro.gaussians.tiles import (
    TileGrid,
    instances_for_rects,
    split_instances_per_tile,
    tile_rects_of_footprints,
)


def camera_fingerprint(camera: Camera) -> tuple:
    """A hashable, exact identity of a camera pose and intrinsics."""
    return (
        camera.width,
        camera.height,
        camera.fx,
        camera.fy,
        camera.cx,
        camera.cy,
        camera.rotation.tobytes(),
        camera.translation.tobytes(),
    )


@dataclass(frozen=True)
class BinningStats:
    """What one warm binning pass did.

    Attributes
    ----------
    total_instances:
        (tile, Gaussian) pairs in the frame's render lists.
    reused_instances:
        Instances carried over from the previous frame (their
        Gaussian's tile rectangle did not move).
    generated_instances:
        Instances rebuilt this frame (new, moved, or re-entered
        Gaussians).
    full_reuse:
        True when the frame key matched and the previous lists were
        returned untouched (no binning or sorting at all).
    """

    total_instances: int
    reused_instances: int
    generated_instances: int
    full_reuse: bool = False

    @property
    def reuse_fraction(self) -> float:
        """Fraction of instances served from cross-frame state."""
        if self.total_instances == 0:
            return 0.0
        return self.reused_instances / self.total_instances


class WarmBinner:
    """Per-session cross-frame state for Rendering Step 2.

    Parameters
    ----------
    n_source:
        Size of the source Gaussian cloud; cross-frame identity is the
        index into that cloud (``Projected2D.source_index``), which is
        stable for static, temporal and avatar models alike.
    """

    def __init__(self, n_source: int) -> None:
        if n_source < 0:
            raise ValidationError("source cloud size cannot be negative")
        self.n_source = n_source
        self._rects = np.full((n_source, 4), -1, dtype=np.int64)
        self._visible = np.zeros(n_source, dtype=bool)
        self._inst_source = np.zeros((0,), dtype=np.int64)
        self._inst_tile = np.zeros((0,), dtype=np.int64)
        self._frame_key: tuple | None = None
        self._grid_key: tuple | None = None
        self._lists: RenderLists | None = None

    def reset(self) -> None:
        """Drop all cross-frame state (next build is fully cold)."""
        self._rects.fill(-1)
        self._visible.fill(False)
        self._inst_source = np.zeros((0,), dtype=np.int64)
        self._inst_tile = np.zeros((0,), dtype=np.int64)
        self._frame_key = None
        self._grid_key = None
        self._lists = None

    @property
    def frame_key(self) -> tuple | None:
        """Frame key of the last built frame (``None`` before any)."""
        return self._frame_key

    def build(
        self,
        projected: Projected2D,
        frame_key: tuple | None = None,
        source_ids: np.ndarray | None = None,
    ) -> tuple[RenderLists, BinningStats]:
        """Bin and depth-sort one frame, reusing cross-frame state.

        Parameters
        ----------
        projected:
            The frame's Step-1 output.  ``source_index`` must index the
            same cloud across every call (enforced via ``n_source``).
        frame_key:
            Hashable identity of the frame's inputs — typically
            ``(camera_fingerprint(cam), scene_clock)``.  When it equals
            the previous frame's key, the cached lists are returned
            as-is; pass ``None`` to disable the fast path.
        source_ids:
            Optional mapping from the frame cloud's rows to the stable
            Gaussian universe (see
            :meth:`repro.scenes.SceneBundle.frame_cloud_indexed`); for
            models whose cloud rows already are stable, omit it.
        """
        src = projected.source_index
        if source_ids is not None:
            src = np.asarray(source_ids, dtype=np.int64)[src]
        if len(src) and int(src.max()) >= self.n_source:
            raise ValidationError(
                "projection references a larger cloud than this binner tracks"
            )
        if (
            frame_key is not None
            and self._frame_key is not None
            and frame_key == self._frame_key
            and self._lists is not None
        ):
            n = self._lists.n_instances
            return self._lists, BinningStats(n, n, 0, full_reuse=True)

        width, height = projected.image_size
        grid = TileGrid(width=width, height=height)
        grid_key = (grid.width, grid.height, grid.tile)
        if grid_key != self._grid_key:
            # Resolution switch: tile ids are incomparable; start cold.
            self.reset()
            self._grid_key = grid_key

        rects = np.stack(
            tile_rects_of_footprints(grid, projected.means2d, projected.radii),
            axis=1,
        )
        unchanged = self._visible[src] & np.all(self._rects[src] == rects, axis=1)

        # Retained instances: every instance whose source Gaussian kept
        # its rectangle (and is still visible).
        keep_source = np.zeros(self.n_source, dtype=bool)
        keep_source[src[unchanged]] = True
        retain_mask = keep_source[self._inst_source]
        retained_src = self._inst_source[retain_mask]
        retained_tile = self._inst_tile[retain_mask]

        # Fresh instances for moved / newly visible Gaussians.
        changed_local = np.nonzero(~unchanged)[0]
        fresh_src, fresh_tile = _instances_for(
            grid, rects[changed_local], src[changed_local]
        )

        inst_source = np.concatenate([retained_src, fresh_src])
        inst_tile = np.concatenate([retained_tile, fresh_tile])

        # Update the carried state.
        self._rects[src] = rects
        self._visible.fill(False)
        self._visible[src] = True
        self._inst_source = inst_source
        self._inst_tile = inst_tile
        self._frame_key = frame_key

        # Sort into render lists over per-frame visible indices.
        inv = np.full(self.n_source, -1, dtype=np.int64)
        inv[src] = np.arange(len(src), dtype=np.int64)
        vis_ids = inv[inst_source]
        order = np.lexsort((vis_ids, projected.depths[vis_ids], inst_tile))
        per_tile = split_instances_per_tile(
            grid, inst_tile[order], vis_ids[order]
        )
        lists = RenderLists(grid=grid, per_tile=per_tile)
        stats = BinningStats(
            total_instances=int(inst_source.shape[0]),
            reused_instances=int(retained_src.shape[0]),
            generated_instances=int(fresh_src.shape[0]),
        )
        self._lists = lists
        return lists, stats


def _instances_for(
    grid: TileGrid, rects: np.ndarray, source_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (source_id, tile_id) instances for the given tile rects.

    Delegates to the same enumeration core as the cold binning
    (:func:`repro.gaussians.tiles.instances_for_rects`), which is what
    guarantees warm/cold parity, then remaps local owners to stable
    source ids.
    """
    if rects.shape[0] == 0:
        empty = np.zeros((0,), dtype=np.int64)
        return empty, empty.copy()
    owner, tile_ids = instances_for_rects(
        grid, rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]
    )
    return source_ids[owner], tile_ids
