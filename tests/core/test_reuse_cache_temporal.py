"""Temporal (cross-frame) behavior of the Gaussian Reuse Cache, and
its cold first frame against a textbook reference."""

import heapq
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reuse_cache import (
    POLICIES,
    TemporalReuseSimulator,
    next_use_tiles,
)
from repro.errors import SimulationError, ValidationError


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


def loop_next_use_tiles(trace, tile_of_access):
    """Next-use tiles by a reverse scan with a dict (the oracle for the
    sort-based ``next_use_tiles``)."""
    next_use = np.full(trace.shape[0], np.inf)
    last_seen: dict[int, int] = {}
    for i in range(trace.shape[0] - 1, -1, -1):
        g = int(trace[i])
        j = last_seen.get(g)
        if j is not None:
            next_use[i] = tile_of_access[j]
        last_seen[g] = i
    return next_use


class LoopCache:
    """The warm cache as a per-access loop over numpy scalars, with a
    ``touched`` set for carried hits: the oracle for
    :class:`TemporalReuseSimulator`'s batched bookkeeping.  Same
    ``(-next_use, id)`` heap tie rule and the same resident-dict order."""

    def __init__(self, capacity, policy):
        self.capacity = capacity
        self.policy = policy
        self.resident: dict[int, float] = {}

    def observe(self, trace, tiles):
        if self.capacity == 0:
            return 0, 0
        if self.policy == "reuse_distance":
            return self._rd(trace, tiles)
        return self._order(trace)

    def _rd(self, trace, tiles):
        n = trace.shape[0]
        next_use = loop_next_use_tiles(trace, tiles)
        first_use: dict[int, float] = {}
        for i in range(n - 1, -1, -1):
            first_use[int(trace[i])] = float(tiles[i])
        resident = {g: first_use.get(g, np.inf) for g in self.resident}
        heap = [(-nu, g) for g, nu in resident.items()]
        heapq.heapify(heap)
        hits = carried = 0
        touched: set[int] = set()
        for i in range(n):
            g = int(trace[i])
            nu = float(next_use[i])
            if g in resident:
                hits += 1
                if g not in touched:
                    carried += 1
                    touched.add(g)
                resident[g] = nu
                heapq.heappush(heap, (-nu, g))
                continue
            touched.add(g)
            if len(resident) >= self.capacity:
                while heap:
                    neg_nu, victim = heapq.heappop(heap)
                    if victim in resident and resident[victim] == -neg_nu:
                        del resident[victim]
                        break
                else:
                    raise SimulationError("eviction heap exhausted with full cache")
            resident[g] = nu
            heapq.heappush(heap, (-nu, g))
        self.resident = resident
        return hits, carried

    def _order(self, trace):
        resident = self.resident
        hits = carried = 0
        touched: set[int] = set()
        for i in range(trace.shape[0]):
            g = int(trace[i])
            if g in resident:
                hits += 1
                if g not in touched:
                    carried += 1
                    touched.add(g)
                if self.policy == "lru":
                    del resident[g]
                    resident[g] = 0.0
                continue
            touched.add(g)
            if len(resident) >= self.capacity:
                del resident[next(iter(resident))]
            resident[g] = 0.0
        return hits, carried


N_IDS = 12


@st.composite
def warm_stream(draw):
    """A few frames over a small id space (repeated ids, many ties in
    next-use tile), a capacity in 0..N_IDS, and the frame before which
    the simulator is exported and re-imported into a fresh one."""
    frames = []
    for _ in range(draw(st.integers(1, 5))):
        ids = draw(st.lists(st.integers(0, N_IDS - 1), max_size=40))
        steps = draw(
            st.lists(st.integers(0, 1), min_size=len(ids), max_size=len(ids))
        )
        frames.append(
            (np.asarray(ids, dtype=np.int64), np.cumsum(steps, dtype=np.int64))
        )
    capacity = draw(st.integers(0, N_IDS))
    restart = draw(st.integers(0, len(frames)))
    return frames, capacity, restart


@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(stream=warm_stream())
@settings(max_examples=80, deadline=None)
def test_warm_stream_matches_per_access_loop(policy, stream):
    """Frame by frame, the simulator's hits, carried hits and resident
    order (what checkpoints carry) equal the per-access loop's, across
    an export/import restart mid-stream."""
    frames, capacity, restart = stream
    sim = TemporalReuseSimulator(capacity, policy=policy)
    oracle = LoopCache(capacity, policy)
    for k, (trace, tiles) in enumerate(frames):
        np.testing.assert_array_equal(
            next_use_tiles(trace, tiles), loop_next_use_tiles(trace, tiles)
        )
        if k == restart:
            fresh = TemporalReuseSimulator(capacity, policy=policy)
            fresh.import_state(sim.export_state())
            sim = fresh
        sample = sim.observe_frame(trace, tiles)
        hits, carried = oracle.observe(trace, tiles)
        assert sample.report.hits == hits
        assert sample.carried_hits == carried
        assert sim.export_state().resident_ids == tuple(oracle.resident)
