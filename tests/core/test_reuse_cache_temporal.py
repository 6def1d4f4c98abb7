"""Temporal (cross-frame) behavior of the Gaussian Reuse Cache, and
its cold first frame against a textbook reference."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reuse_cache import (
    POLICIES,
    TemporalReuseSimulator,
)
from repro.errors import ValidationError


def textbook_hits(trace, tiles, capacity, policy) -> int:
    """Cold-cache hit count from an ``OrderedDict``, written from the
    policy definitions: LRU moves a hit line to the back, FIFO never
    reorders, and both evict from the front; reuse-distance evicts the
    line whose next use is the farthest tile (lowest id on ties)."""
    trace, tiles = [int(g) for g in trace], [int(t) for t in tiles]
    cache: OrderedDict[int, float] = OrderedDict()
    hits = 0
    for i, g in enumerate(trace):
        if g in cache:
            hits += 1
            if policy == "lru":
                cache.move_to_end(g)
        elif capacity == 0:
            continue
        elif len(cache) == capacity:
            if policy == "reuse_distance":
                del cache[max(cache, key=lambda k: (cache[k], -k))]
            else:
                cache.popitem(last=False)
        later = (tiles[j] for j in range(i + 1, len(trace)) if trace[j] == g)
        cache[g] = next(later, np.inf)
    return hits


@st.composite
def tile_major_trace(draw):
    """Gaussian ids in traversal order, each tagged with a
    non-decreasing tile index (a tile may repeat a Gaussian)."""
    ids = draw(st.lists(st.integers(0, 15), max_size=60))
    steps = draw(st.lists(st.integers(0, 1), min_size=len(ids), max_size=len(ids)))
    return np.asarray(ids, dtype=np.int64), np.cumsum(steps, dtype=np.int64)


@pytest.fixture()
def trace():
    rng = np.random.default_rng(7)
    trace = rng.integers(0, 60, 500)
    tiles = np.sort(rng.integers(0, 24, 500))
    return trace, tiles


@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(data=tile_major_trace(), capacity=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_frame_zero_matches_cold_simulation(policy, data, capacity):
    t, tiles = data
    sample = TemporalReuseSimulator(capacity, policy=policy).observe_frame(t, tiles)
    assert sample.report.accesses == len(t)
    assert sample.report.hits == textbook_hits(t, tiles, capacity, policy)
    assert sample.report.misses == len(t) - sample.report.hits
    assert sample.carried_hits == 0


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_repeated_trace_hit_rate_is_monotone(trace, policy):
    t, tiles = trace
    sim = TemporalReuseSimulator(24, policy=policy)
    rates = [sim.observe_frame(t, tiles).report.hit_rate for _ in range(6)]
    for earlier, later in zip(rates, rates[1:]):
        assert later >= earlier - 1e-12
    assert rates[-1] > rates[0]


def test_working_set_within_capacity_gets_full_warm_hits(trace):
    t, tiles = trace
    sim = TemporalReuseSimulator(1000)  # everything fits
    sim.observe_frame(t, tiles)
    warm = sim.observe_frame(t, tiles)
    assert warm.report.hit_rate == 1.0
    # Every distinct Gaussian's first access this frame was carried.
    assert warm.carried_hits == len(np.unique(t))


def test_cumulative_accounting(trace):
    t, tiles = trace
    sim = TemporalReuseSimulator(24)
    s0 = sim.observe_frame(t, tiles)
    s1 = sim.observe_frame(t, tiles)
    assert s1.cumulative_accesses == 2 * len(t)
    assert s1.cumulative_hits == s0.report.hits + s1.report.hits
    assert sim.cumulative_hit_rate == pytest.approx(
        s1.cumulative_hits / s1.cumulative_accesses
    )
    assert sim.frames_observed == 2


def test_zero_capacity_never_hits(trace):
    t, tiles = trace
    sim = TemporalReuseSimulator(0)
    for _ in range(3):
        sample = sim.observe_frame(t, tiles)
        assert sample.report.hits == 0
        assert sample.report.misses == len(t)
    assert sim.resident_lines == 0


def test_reset_restores_cold_behavior(trace):
    t, tiles = trace
    sim = TemporalReuseSimulator(24)
    first = sim.observe_frame(t, tiles)
    sim.observe_frame(t, tiles)
    sim.reset()
    again = sim.observe_frame(t, tiles)
    assert again.report.hits == first.report.hits
    assert again.frame == 0


def test_disjoint_frames_carry_nothing():
    tiles = np.arange(50)
    sim = TemporalReuseSimulator(64)
    sim.observe_frame(np.arange(50), tiles)
    sample = sim.observe_frame(np.arange(100, 150), tiles)
    assert sample.carried_hits == 0


def test_validation():
    with pytest.raises(ValidationError):
        TemporalReuseSimulator(-1)
    with pytest.raises(ValidationError):
        TemporalReuseSimulator(8, policy="belady")
    sim = TemporalReuseSimulator(8)
    with pytest.raises(ValidationError):
        sim.observe_frame(np.zeros(3), np.zeros(4))
