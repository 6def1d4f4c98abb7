"""Tests for the GBU device model and its Listing-1 interface."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gbu import (
    GBUConfig,
    GBUDevice,
    _workload_subset,
    shard_tile_ranges,
)
from repro.core.irss import TileRowWorkload, render_irss
from repro.core.tile_engine import simulate_tile_engine
from repro.errors import DeviceBusyError, ValidationError
from repro.gaussians import Camera, GaussianCloud, build_render_lists, project
from repro.gpu.workload import ScaleFactors


class TestConfig:
    def test_defaults(self):
        config = GBUConfig()
        assert config.use_dnb and config.use_cache and config.fp16

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            GBUConfig(cache_policy="belady_but_wrong")


class TestRender:
    def test_report_fields(self, small_projected):
        report = GBUDevice().render(small_projected)
        assert report.step3_seconds > 0
        assert report.compute_seconds > 0
        assert report.cache.accesses > 0
        assert 0.0 < report.utilization <= 1.0
        assert report.image.shape[2] == 3

    def test_image_matches_fp16_irss(self, small_projected):
        """The device's functional output is the fp16 IRSS render over
        the D&B engine's exact lists."""
        device = GBUDevice()
        report = device.render(small_projected)
        from repro.core.dnb import run_dnb

        dnb = run_dnb(small_projected)
        expected = render_irss(
            small_projected, dnb.lists, transform=dnb.transform, fp16=True
        )
        np.testing.assert_allclose(report.image, expected.image, atol=1e-12)

    def test_fp32_option(self, small_projected, reference_render):
        device = GBUDevice(config=GBUConfig(fp16=False))
        report = device.render(small_projected)
        np.testing.assert_allclose(report.image, reference_render.image, atol=1e-9)

    def test_cache_reduces_traffic(self, small_projected):
        cached = GBUDevice(config=GBUConfig(use_cache=True)).render(small_projected)
        uncached = GBUDevice(config=GBUConfig(use_cache=False)).render(small_projected)
        assert cached.feature_bytes_fetched < uncached.feature_bytes_fetched
        assert cached.memory_seconds < uncached.memory_seconds
        assert cached.cache.hit_rate > 0.0
        assert uncached.cache.hit_rate == 0.0

    def test_dnb_reduces_instances(self, small_projected, small_lists):
        with_dnb = GBUDevice(config=GBUConfig(use_dnb=True)).render(small_projected)
        without = GBUDevice(config=GBUConfig(use_dnb=False)).render(
            small_projected, lists=small_lists
        )
        assert with_dnb.cache.accesses <= without.cache.accesses
        assert with_dnb.dnb_cycles > 0
        assert without.dnb_cycles == 0

    def test_scales_scale_time_linearly(self, small_projected):
        device = GBUDevice()
        base = device.render(small_projected, scales=ScaleFactors.uniform(1.0))
        scaled = device.render(small_projected, scales=ScaleFactors.uniform(10.0))
        assert scaled.compute_seconds == pytest.approx(10 * base.compute_seconds)
        assert scaled.memory_seconds == pytest.approx(10 * base.memory_seconds)

    def test_lru_policy_usable(self, small_projected):
        report = GBUDevice(config=GBUConfig(cache_policy="lru")).render(
            small_projected
        )
        assert report.cache.hit_rate > 0.0


class TestListingOneInterface:
    def test_render_and_blocking_status(self, small_projected):
        device = GBUDevice()
        width, height = small_projected.image_size
        frame = np.zeros((height, width, 3))
        device.GBU_render_image(height, width, small_projected, None, frame)
        assert device.GBU_check_status(blocking=False) == 1
        assert device.GBU_check_status(blocking=True) == 0
        assert frame.max() > 0  # image landed in the caller's buffer

    def test_idle_status(self):
        assert GBUDevice().GBU_check_status() == 0

    def test_busy_device_rejects_second_frame(self, small_projected):
        device = GBUDevice()
        width, height = small_projected.image_size
        frame = np.zeros((height, width, 3))
        device.GBU_render_image(height, width, small_projected, None, frame)
        with pytest.raises(DeviceBusyError):
            device.GBU_render_image(height, width, small_projected, None, frame)

    def test_wrong_buffer_shape_rejected(self, small_projected):
        device = GBUDevice()
        width, height = small_projected.image_size
        with pytest.raises(ValidationError):
            device.GBU_render_image(
                height, width, small_projected, None, np.zeros((8, 8, 3))
            )

    def test_wrong_channel_count_rejected(self, small_projected):
        device = GBUDevice()
        width, height = small_projected.image_size
        with pytest.raises(ValidationError):
            device.GBU_render_image(
                height, width, small_projected, None,
                np.zeros((height, width, 4)), ch=4,
            )

    def test_failed_render_leaves_device_idle(self, small_projected):
        device = GBUDevice()
        width, height = small_projected.image_size
        frame = np.zeros((height, width, 3))
        with pytest.raises(ValidationError):
            device.GBU_render_image(
                height, width, small_projected, None, frame, shards=0
            )
        assert device.GBU_check_status() == 0
        device.GBU_render_image(height, width, small_projected, None, frame)
        assert device.GBU_check_status(blocking=True) == 0

    def test_last_report_available_after_render(self, small_projected):
        device = GBUDevice()
        with pytest.raises(ValidationError):
            _ = device.last_report
        device.render(small_projected)
        assert device.last_report.step3_seconds > 0


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
        with pytest.raises(ValidationError):
            GBUDevice().render(_scene(1, 10), shards=0)


class TestShardTiming:
    """N shards are N parallel tile engines over disjoint tile subsets."""

    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_shard_workloads_partition_the_frame(self, n_shards):
        projected = _scene(11, 120)
        lists = build_render_lists(projected)
        workload = render_irss(projected, lists).workload
        subsets = [
            _workload_subset(workload, tiles)
            for tiles in shard_tile_ranges(lists, n_shards)
        ]
        for f in fields(TileRowWorkload):
            np.testing.assert_array_equal(
                sum(getattr(sub, f.name) for sub in subsets),
                getattr(workload, f.name),
                err_msg=f.name,
            )
        whole = simulate_tile_engine(workload).total_cycles
        largest = max(simulate_tile_engine(sub).total_cycles for sub in subsets)
        assert largest <= whole

    def test_sharded_frame_keeps_image_and_is_no_slower(self):
        projected = _scene(11, 120)
        device = GBUDevice()
        base = device.render(projected)
        sharded = device.render(projected, shards=3)
        np.testing.assert_array_equal(base.image, sharded.image)
        assert sharded.compute_seconds <= base.compute_seconds
        assert sharded.memory_seconds == base.memory_seconds
        # The report is the slowest shard's engine: its cycles are the
        # ones compute_seconds was timed from.
        assert sharded.tile_engine.total_cycles < base.tile_engine.total_cycles
        assert sharded.compute_seconds / sharded.tile_engine.total_cycles == (
            pytest.approx(base.compute_seconds / base.tile_engine.total_cycles)
        )
