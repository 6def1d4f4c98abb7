"""Intra-frame tile sharding: shard-count invariance.

Tile rasterization is pixel-disjoint, so splitting one frame's tile
grid across N shards and stitching the results must reproduce the
unsharded render *bit for bit* — images, transmittance, contributor
counts, stats, and IRSS workload counters — for every backend at any
shard count (the property tested here).
"""

from __future__ import annotations

import numpy as np
import pytest
from dataclasses import fields
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.irss import TileRowWorkload, render_irss
from repro.errors import ValidationError
from repro.gaussians import (
    Camera,
    GaussianCloud,
    build_render_lists,
    project,
    render_reference,
)
from repro.render.sharding import (
    ShardedRenderer,
    render_irss_sharded,
    render_pfs_sharded,
    shard_tile_ranges,
    sub_render_lists,
)


def _scene(seed: int, n: int, width: int = 72, height: int = 56):
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.random(n, rng, extent=0.6, scale_range=(0.03, 0.3))
    cloud = GaussianCloud(
        means=cloud.means,
        scales=cloud.scales,
        quats=cloud.quats,
        opacities=np.clip(cloud.opacities, 0.05, 0.95),
        sh=cloud.sh,
    )
    camera = Camera.look_at(
        eye=[0.1, 0.2, -2.0], target=[0, 0, 0], width=width, height=height
    )
    return project(cloud, camera)


def assert_pfs_invariant(projected, lists, n_shards, backend):
    base = render_reference(projected, lists, backend=backend)
    sharded = render_pfs_sharded(
        projected, lists, n_shards=n_shards, backend=backend
    )
    np.testing.assert_array_equal(base.image, sharded.image)
    np.testing.assert_array_equal(base.transmittance, sharded.transmittance)
    np.testing.assert_array_equal(base.n_contrib, sharded.n_contrib)
    assert base.stats == sharded.stats


def assert_irss_invariant(projected, lists, n_shards, backend, fp16=False):
    base = render_irss(projected, lists, backend=backend, fp16=fp16)
    sharded = render_irss_sharded(
        projected, lists, n_shards=n_shards, backend=backend, fp16=fp16
    )
    np.testing.assert_array_equal(base.image, sharded.image)
    np.testing.assert_array_equal(base.transmittance, sharded.transmittance)
    np.testing.assert_array_equal(base.n_contrib, sharded.n_contrib)
    assert base.stats == sharded.stats
    for f in fields(TileRowWorkload):
        np.testing.assert_array_equal(
            getattr(base.workload, f.name),
            getattr(sharded.workload, f.name),
            err_msg=f.name,
        )


class TestShardRanges:
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 150),
           n_shards=st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_cover_every_tile_exactly_once(self, seed, n, n_shards):
        lists = build_render_lists(_scene(seed, n))
        ranges = shard_tile_ranges(lists, n_shards)
        assert len(ranges) == n_shards
        joined = np.concatenate(ranges)
        # Contiguous ascending ranges that jointly cover the grid.
        np.testing.assert_array_equal(
            joined, np.arange(lists.grid.n_tiles, dtype=np.int64)
        )

    def test_balances_by_instance_mass(self):
        lists = build_render_lists(_scene(5, 120))
        counts = lists.instances_per_tile()
        ranges = shard_tile_ranges(lists, 4)
        loads = [counts[r].sum() for r in ranges]
        # No shard carries more than the ideal split plus one tile's
        # worth of work (contiguity limits balancing to tile granularity).
        assert max(loads) <= counts.sum() / 4 + counts.max()

    def test_rejects_non_positive_shard_count(self):
        lists = build_render_lists(_scene(1, 10))
        with pytest.raises(ValidationError):
            shard_tile_ranges(lists, 0)

    def test_sub_lists_keep_only_selected_tiles(self):
        lists = build_render_lists(_scene(3, 80))
        tiles = np.arange(lists.grid.n_tiles // 2, dtype=np.int64)
        sub = sub_render_lists(lists, tiles)
        keep = set(int(t) for t in tiles)
        for t, members in enumerate(sub.per_tile):
            if t in keep:
                np.testing.assert_array_equal(members, lists.per_tile[t])
            else:
                assert len(members) == 0


class TestExactInvariance:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120),
           n_shards=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_vectorized_pfs_bit_identical(self, seed, n, n_shards):
        projected = _scene(seed, n)
        lists = build_render_lists(projected)
        assert_pfs_invariant(projected, lists, n_shards, "vectorized")

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120),
           n_shards=st.integers(2, 6))
    @settings(max_examples=8, deadline=None)
    def test_vectorized_irss_bit_identical(self, seed, n, n_shards):
        projected = _scene(seed, n)
        lists = build_render_lists(projected)
        assert_irss_invariant(projected, lists, n_shards, "vectorized")

    def test_reference_backend_bit_identical(self):
        projected = _scene(17, 60)
        lists = build_render_lists(projected)
        assert_pfs_invariant(projected, lists, 3, "reference")
        assert_irss_invariant(projected, lists, 3, "reference")

    def test_irss_fp16_bit_identical(self):
        projected = _scene(21, 80)
        lists = build_render_lists(projected)
        assert_irss_invariant(projected, lists, 4, "vectorized", fp16=True)

    def test_more_shards_than_busy_tiles(self):
        projected = _scene(2, 3, width=33, height=17)
        lists = build_render_lists(projected)
        assert_pfs_invariant(projected, lists, 16, "vectorized")

    def test_single_shard_is_plain_dispatch(self):
        projected = _scene(9, 40)
        lists = build_render_lists(projected)
        assert_pfs_invariant(projected, lists, 1, "vectorized")


class TestShardedRenderer:
    def test_validates_shard_count(self):
        with pytest.raises(ValidationError):
            ShardedRenderer(0)

    def test_renderer_matches_free_functions(self):
        projected = _scene(8, 70)
        lists = build_render_lists(projected)
        renderer = ShardedRenderer(3, backend="vectorized")
        np.testing.assert_array_equal(
            renderer.render_pfs(projected, lists).image,
            render_pfs_sharded(
                projected, lists, n_shards=3, backend="vectorized"
            ).image,
        )
        np.testing.assert_array_equal(
            renderer.render_irss(projected, lists).image,
            render_irss_sharded(
                projected, lists, n_shards=3, backend="vectorized"
            ).image,
        )
