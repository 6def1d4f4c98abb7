"""Tests for the Gaussian Reuse Cache: the reuse-distance policy's
optimality, baselines, and sweep behavior, each on one cold frame of
:class:`TemporalReuseSimulator`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.core.reuse_cache import (
    POLICIES,
    TemporalReuseSimulator,
    next_use_tiles,
    sweep_cache_sizes,
)


def _cold(capacity, trace, tiles, policy="reuse_distance", bytes_per_line=32):
    """One cold frame: the first frame of a fresh simulator."""
    sim = TemporalReuseSimulator(capacity, bytes_per_line, policy)
    return sim.observe_frame(trace, tiles).report


def _tiled_trace(rng, n_gaussians=40, n_tiles=25, per_tile=8):
    """A random tile-major access trace with spatial locality."""
    trace, tiles = [], []
    for t in range(n_tiles):
        # Nearby tiles reuse a sliding window of gaussians.
        base = (t * 3) % n_gaussians
        members = (base + rng.permutation(per_tile * 2)[:per_tile]) % n_gaussians
        trace.extend(members.tolist())
        tiles.extend([t] * per_tile)
    return np.asarray(trace, dtype=np.int64), np.asarray(tiles, dtype=np.int64)


class TestNextUse:
    def test_simple_sequence(self):
        trace = np.array([1, 2, 1, 3, 2])
        tiles = np.array([0, 0, 1, 1, 2])
        nxt = next_use_tiles(trace, tiles)
        assert nxt[0] == 1   # gaussian 1 reused in tile 1
        assert nxt[1] == 2   # gaussian 2 reused in tile 2
        assert nxt[2] == np.inf
        assert nxt[3] == np.inf

    def test_misaligned_rejected(self):
        with pytest.raises(ValidationError):
            next_use_tiles(np.array([1, 2]), np.array([0]))


class TestPolicies:
    def test_zero_capacity_all_miss(self, rng):
        trace, tiles = _tiled_trace(rng)
        for policy in POLICIES:
            report = _cold(0, trace, tiles, policy)
            assert report.hits == 0
            assert report.misses == len(trace)

    def test_infinite_capacity_compulsory_only(self, rng):
        trace, tiles = _tiled_trace(rng)
        unique = len(np.unique(trace))
        for policy in POLICIES:
            report = _cold(10_000, trace, tiles, policy)
            assert report.misses == unique

    def test_report_arithmetic(self, rng):
        trace, tiles = _tiled_trace(rng)
        report = _cold(8, trace, tiles, bytes_per_line=32)
        assert report.hits + report.misses == report.accesses
        assert report.miss_bytes == report.misses * 32
        assert report.hit_rate == pytest.approx(report.hits / report.accesses)
        assert report.traffic_reduction == pytest.approx(report.hit_rate)

    @given(seed=st.integers(0, 10_000), capacity=st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_rd_beats_or_ties_lru_and_fifo(self, seed, capacity):
        """Belady-style optimality at tile granularity: on tile-major
        traces whose reuses happen in later tiles, the precomputed
        reuse-distance policy never loses to LRU or FIFO."""
        rng = np.random.default_rng(seed)
        trace, tiles = _tiled_trace(rng)
        rd = _cold(capacity, trace, tiles)
        lru = _cold(capacity, trace, tiles, "lru")
        fifo = _cold(capacity, trace, tiles, "fifo")
        assert rd.hits >= lru.hits
        assert rd.hits >= fifo.hits

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_hit_rate_monotone_in_capacity(self, seed):
        rng = np.random.default_rng(seed)
        trace, tiles = _tiled_trace(rng)
        previous = -1.0
        for capacity in (1, 2, 4, 8, 16, 32):
            report = _cold(capacity, trace, tiles)
            assert report.hit_rate >= previous - 1e-12
            previous = report.hit_rate

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            TemporalReuseSimulator(-1)


class TestRdPolicyMechanics:
    def test_evicts_farthest_reuse(self):
        """Classic Belady scenario: keep the line that is reused next."""
        # g0 reused immediately (tile 1), g1 reused far (tile 9).
        trace = np.array([0, 1, 2, 0, 1])
        tiles = np.array([0, 0, 1, 1, 9])
        report = _cold(2, trace, tiles)
        # Optimal: install 0,1; miss 2 evicts g1 (reuse at 9) keeping
        # g0 (reuse at 1) -> hit on 0, miss on final 1 = 1 hit.
        assert report.hits == 1
        lru = _cold(2, trace, tiles, "lru")
        # LRU evicts g0 (least recent) -> misses 0 again -> evicts...
        assert report.hits >= lru.hits

    def test_empty_trace(self):
        empty = np.zeros(0, dtype=np.int64)
        report = _cold(4, empty, empty)
        assert report.accesses == 0
        assert report.hit_rate == 0.0


class TestSweep:
    def test_sweep_returns_all_sizes(self, rng):
        trace, tiles = _tiled_trace(rng)
        sizes = [0, 256, 1024, 4096]
        results = sweep_cache_sizes(trace, tiles, sizes, bytes_per_line=32)
        assert sorted(results) == sorted(sizes)
        assert results[0].hit_rate == 0.0

    def test_unknown_policy_rejected(self, rng):
        trace, tiles = _tiled_trace(rng)
        with pytest.raises(ValidationError):
            sweep_cache_sizes(trace, tiles, [1024], policy="random")
