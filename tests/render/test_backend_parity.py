"""Engine parity: the vectorized engine is pixel-exact.

Randomized-scene property tests asserting that the instance-batched
vectorized engine produces *bit-identical* images, transmittance,
contributor counts and workload statistics versus the scalar oracle
loops — for the PFS rasterizer, the IRSS rasterizer, and
the IRSS fp16 Row-PE datapath — including the early-termination and
depth-chunking code paths.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.render.vectorized as vectorized
from repro.config import TRANSMITTANCE_EPS
from repro.core.irss import render_irss_loop
from repro.gaussians import Camera, GaussianCloud, build_render_lists, project
from repro.gaussians.projection import Projected2D
from repro.gaussians.rasterizer import render_reference_loop
from repro.render import render_irss_vectorized, render_pfs_vectorized
from repro.scenes.catalog import build_scene

WORKLOAD_FIELDS = (
    "row_fragments",
    "row_segments",
    "instance_max_run",
    "instance_setup",
    "binary_search_steps",
    "instance_search",
)


def _scene(seed: int, n: int, width: int = 72, height: int = 56,
           opacity_lo: float = 0.05, opacity_hi: float = 0.95):
    """A random projected scene; odd resolutions exercise clipped tiles."""
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.random(n, rng, extent=0.6, scale_range=(0.03, 0.3))
    cloud = GaussianCloud(
        means=cloud.means,
        scales=cloud.scales,
        quats=cloud.quats,
        opacities=np.clip(cloud.opacities, opacity_lo, opacity_hi),
        sh=cloud.sh,
    )
    camera = Camera.look_at(
        eye=[0.1, 0.2, -2.0], target=[0, 0, 0], width=width, height=height
    )
    return project(cloud, camera)


def _handmade(means2d, conics, thresholds, opacities, size):
    """Projected Gaussians given directly in screen space, front first."""
    n = len(means2d)
    conics = np.asarray(conics, dtype=np.float64)
    cov2d = np.linalg.inv(
        np.stack([conics[:, [0, 1]], conics[:, [1, 2]]], axis=1)
    )
    rng = np.random.default_rng(n)
    return Projected2D(
        means2d=np.asarray(means2d, dtype=np.float64),
        cov2d=cov2d,
        conics=conics,
        depths=np.arange(1.0, n + 1.0),
        colors=rng.uniform(0.1, 0.9, size=(n, 3)),
        opacities=np.asarray(opacities, dtype=np.float64),
        radii=np.full(n, 3.0 * max(size)),
        thresholds=np.asarray(thresholds, dtype=np.float64),
        source_index=np.arange(n),
        image_size=size,
    )


def assert_pfs_exact(projected, lists=None):
    ref = render_reference_loop(projected, lists)
    vec = render_pfs_vectorized(projected, lists)
    np.testing.assert_array_equal(ref.image, vec.image)
    np.testing.assert_array_equal(ref.transmittance, vec.transmittance)
    np.testing.assert_array_equal(ref.n_contrib, vec.n_contrib)
    assert ref.stats == vec.stats


def assert_irss_exact(projected, lists=None, fp16=False):
    ref = render_irss_loop(projected, lists, fp16=fp16)
    vec = render_irss_vectorized(projected, lists, fp16=fp16)
    np.testing.assert_array_equal(ref.image, vec.image)
    np.testing.assert_array_equal(ref.transmittance, vec.transmittance)
    np.testing.assert_array_equal(ref.n_contrib, vec.n_contrib)
    assert ref.stats == vec.stats
    for name in WORKLOAD_FIELDS:
        np.testing.assert_array_equal(
            getattr(ref.workload, name), getattr(vec.workload, name), err_msg=name
        )


class TestRandomizedParity:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    @settings(max_examples=12, deadline=None)
    def test_pfs_bit_identical(self, seed, n):
        assert_pfs_exact(_scene(seed, n))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    @settings(max_examples=12, deadline=None)
    def test_irss_bit_identical(self, seed, n):
        assert_irss_exact(_scene(seed, n))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    @settings(max_examples=8, deadline=None)
    def test_irss_fp16_bit_identical(self, seed, n):
        assert_irss_exact(_scene(seed, n), fp16=True)


class TestEdgeCases:
    def test_empty_scene(self):
        """Every Gaussian culled: both engines return background only."""
        rng = np.random.default_rng(0)
        cloud = GaussianCloud.random(10, rng, extent=0.3)
        # Camera faces away from the cloud, so projection culls all.
        camera = Camera.look_at(
            eye=[0, 0, -2], target=[0, 0, -4], width=48, height=32
        )
        empty = project(cloud, camera)
        assert len(empty) == 0
        assert_pfs_exact(empty)
        assert_irss_exact(empty)
        assert_irss_exact(empty, fp16=True)

    def test_single_gaussian(self):
        assert_pfs_exact(_scene(3, 1))
        assert_irss_exact(_scene(3, 1))
        assert_irss_exact(_scene(3, 1), fp16=True)

    def test_opaque_overlap_triggers_early_termination(self):
        """Many opaque Gaussians stacked on one spot force the
        whole-tile termination (break) path in both dataflows."""
        projected = _scene(11, 200, width=48, height=48,
                           opacity_lo=0.9, opacity_hi=0.95)
        ref = render_reference_loop(projected)
        assert ref.stats.instances_processed < ref.stats.instances
        assert_pfs_exact(projected)
        assert_irss_exact(projected)
        assert_irss_exact(projected, fp16=True)

    def test_clipped_edge_tiles(self):
        """Resolutions that are not multiples of 16 produce partial
        tiles, which batch separately per shape."""
        for width, height in ((17, 33), (50, 20), (16, 16), (95, 63)):
            projected = _scene(5, 60, width=width, height=height)
            assert_pfs_exact(projected)
            assert_irss_exact(projected)
            assert_irss_exact(projected, fp16=True)

    def test_segments_without_fragments(self):
        """A row segment whose only column is a boundary tie: the sqrt
        bounds admit column 15, whose ``x''^2 + y''^2`` rounds to
        2.0000000000000004 > Th = 2, so the depth chunk has a nonempty
        segment but no fragment passes Eq. 7."""
        projected = _handmade(
            means2d=[[16.5, 8.5]], conics=[[2.0, 0.0, 1.0]], thresholds=[2.0],
            opacities=[0.9], size=(16, 16),
        )
        ref = render_irss_loop(projected)
        assert ref.workload.row_fragments.sum() == 1
        assert ref.n_contrib.sum() == 0
        assert_irss_exact(projected)
        assert_irss_exact(projected, fp16=True)
        assert_pfs_exact(projected)

    def test_fp16_pixel_crosses_eps_in_second_depth_chunk(
        self, monkeypatch, irss_chunks
    ):
        """Twenty stacked half-opaque Gaussians over one 16x16 tile: at
        a 2^11 budget a depth chunk holds 8 instances, and the centre
        pixel's fp16 transmittance first drops to eps in the second."""
        monkeypatch.setattr(vectorized, "CHUNK_FRAGMENT_BUDGET", 1 << 11)
        monkeypatch.setattr(vectorized, "IRSS_CHUNK_FRAGMENT_BUDGET", 1 << 11)
        n = 20
        projected = _handmade(
            means2d=[[8.0, 8.0]] * n,
            conics=[[0.02 + 0.001 * k, 0.0, 0.02] for k in range(n)],
            thresholds=[9.0] * n,
            opacities=[0.5] * n,
            size=(16, 16),
        )
        ref = render_irss_loop(projected, fp16=True)
        centre = (7, 7)
        assert ref.transmittance[centre] <= TRANSMITTANCE_EPS
        assert 8 < ref.n_contrib[centre] <= 16
        # One tile chunk, scanned in depth chunks of 8, 8 and 4.
        assert irss_chunks(projected, fp16=True) == (1, 3)
        assert_irss_exact(projected, fp16=True)
        assert_irss_exact(projected)
        assert_pfs_exact(projected)

    def test_serving_frame_fp16(self):
        """Real serving frames through the fp16 Row-PE datapath: both
        scenes the serving golden renders (bicycle and female_4), at
        its detail 0.25."""
        for scene in ("bicycle", "female_4"):
            bundle = build_scene(scene, detail=0.25)
            cloud, _ = bundle.frame_cloud(0)
            assert_irss_exact(project(cloud, bundle.camera), fp16=True)

    def test_depth_chunking_continuation_path(self, monkeypatch, irss_chunks):
        """A tiny fragment budget forces depth-chunked processing with
        transmittance carry and the add.at continuation accumulator."""
        monkeypatch.setattr(vectorized, "CHUNK_FRAGMENT_BUDGET", 1 << 10)
        monkeypatch.setattr(vectorized, "IRSS_CHUNK_FRAGMENT_BUDGET", 1 << 10)
        projected = _scene(23, 150, width=40, height=24)
        lists = build_render_lists(projected)
        depths = lists.instances_per_tile().max()
        # The budget must actually split this scene's deepest tile.
        assert depths * 16 * 16 > (1 << 10)
        for fp16 in (False, True):
            tile_chunks, depth_chunks = irss_chunks(projected, lists, fp16=fp16)
            assert depth_chunks > tile_chunks
        assert_pfs_exact(projected, lists)
        assert_irss_exact(projected, lists)
        assert_irss_exact(projected, lists, fp16=True)


class TestBinningParity:
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 150))
    @settings(max_examples=15, deadline=None)
    def test_flat_binning_matches_scalar_loop(self, seed, n):
        """The np.repeat/argsort binning reproduces the scalar
        double-loop's per-tile lists exactly (content and order)."""
        from repro.gaussians.tiles import (
            TileGrid,
            bin_gaussians,
            tile_rect_of_footprint,
        )

        rng = np.random.default_rng(seed)
        grid = TileGrid(width=77, height=45)
        means2d = rng.uniform(-20, 90, size=(n, 2))
        radii = rng.uniform(0, 30, size=n)

        per_tile_loop: list[list[int]] = [[] for _ in range(grid.n_tiles)]
        for g in range(n):
            tx0, ty0, tx1, ty1 = tile_rect_of_footprint(grid, means2d[g], radii[g])
            for ty in range(ty0, ty1):
                for tx in range(tx0, tx1):
                    per_tile_loop[ty * grid.tiles_x + tx].append(g)

        per_tile_vec = bin_gaussians(grid, means2d, radii)
        assert len(per_tile_vec) == grid.n_tiles
        for t in range(grid.n_tiles):
            np.testing.assert_array_equal(
                per_tile_vec[t], np.asarray(per_tile_loop[t], dtype=np.int64)
            )

