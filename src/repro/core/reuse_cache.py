"""The Gaussian Reuse Cache (Sec. V-D).

The tile engine touches one Gaussian feature record per (tile,
Gaussian) instance, in a fully deterministic order: tiles are walked
in traversal order and each tile reads its depth-sorted Gaussian list.
Because the Decomposition & Binning engine knows this sequence ahead
of time, the cache can precompute each access's *reuse distance* — the
tile index at which the feature will be needed again — and evict the
line whose next use is farthest away.  At tile granularity this is
Belady's optimal policy, realizable in hardware precisely because the
access trace is precomputable (the paper's key insight, Fig. 12).

This module simulates the RD policy together with LRU and FIFO
baselines used by the ablation study, and provides the size sweep of
Fig. 17.

One simulator, :class:`TemporalReuseSimulator`, implements all three
policies.  It keeps the resident set alive *across* frames, modeling a
head-tracked stream where consecutive frames touch largely overlapping
Gaussian sets: lines carried over from earlier frames serve
*inter-frame* hits, and per-frame and cumulative counters let serving
layers (``repro.stream``) quantify cross-frame reuse.  The paper's
cold, single-frame number is simply the first frame of a fresh
simulator — the cache starts empty, exactly as the paper evaluates one
frame in isolation.  Across frames, callers must key the trace by a
frame-stable Gaussian identity (e.g. ``Projected2D.source_index``) —
per-frame visible indices are not comparable across frames.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError, ValidationError


@dataclass(frozen=True)
class CacheEconomics:
    """One cache's hit-rate / traffic economics, in a single shape.

    Two cache families live in this repository: the per-frame feature
    reuse cache of this module (reported through :class:`CacheReport`)
    and the tiered content-addressed render cache of
    :mod:`repro.stream.content_cache`.  Both ultimately answer the
    same two questions — what fraction of accesses hit, and what
    fraction of demanded bytes never went downstream — so both derive
    those answers from this one dataclass.  :attr:`CacheReport.hit_rate`
    and :attr:`CacheReport.traffic_reduction` delegate here (with
    bit-identical arithmetic), and the fleet's per-tier economics are
    sums of these objects, so the two report shapes cannot drift apart.

    Attributes
    ----------
    accesses / hits / misses:
        Access counters (one access per lookup).
    miss_bytes / total_bytes:
        Bytes fetched past this cache vs. bytes demanded of it.  Kept
        as explicit counters, not derived from the hit counters: lines
        (or cached frames) need not all cost the same bytes.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    miss_bytes: float = 0.0
    total_bytes: float = 0.0

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def traffic_reduction(self) -> float:
        """Fraction of demanded bytes this cache kept from going
        downstream (the paper's Fig. 17 metric at the feature level)."""
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.miss_bytes / self.total_bytes

    def __add__(self, other: "CacheEconomics") -> "CacheEconomics":
        return CacheEconomics(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            miss_bytes=self.miss_bytes + other.miss_bytes,
            total_bytes=self.total_bytes + other.total_bytes,
        )

    def to_dict(self) -> dict:
        """JSON-safe view (counters plus the derived rates)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_bytes": self.miss_bytes,
            "total_bytes": self.total_bytes,
            "hit_rate": self.hit_rate,
            "traffic_reduction": self.traffic_reduction,
        }


@dataclass(frozen=True)
class CacheReport:
    """Outcome of simulating one frame of feature fetches.

    Attributes
    ----------
    accesses / hits / misses:
        Access counters (one access per (tile, Gaussian) instance).
    capacity_lines:
        Cache capacity in feature records.
    bytes_per_line:
        Feature record size.
    """

    accesses: int
    hits: int
    misses: int
    capacity_lines: int
    bytes_per_line: int

    @property
    def economics(self) -> CacheEconomics:
        """This report's counters in the shared economics shape.

        The byte counters are computed from ``bytes_per_line`` here —
        uniform line size is a property of *this* cache family, not of
        the shared dataclass.
        """
        return CacheEconomics(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            miss_bytes=self.misses * self.bytes_per_line,
            total_bytes=self.accesses * self.bytes_per_line,
        )

    @property
    def hit_rate(self) -> float:
        return self.economics.hit_rate

    @property
    def miss_bytes(self) -> float:
        return self.misses * self.bytes_per_line

    @property
    def total_bytes(self) -> float:
        return self.accesses * self.bytes_per_line

    @property
    def traffic_reduction(self) -> float:
        """Fraction of off-chip feature traffic removed (paper: 44.9%).

        Delegates to :attr:`CacheEconomics.traffic_reduction` over the
        byte counters (``miss_bytes`` vs ``total_bytes``), not copied
        from :attr:`hit_rate`: the two coincide only while every line
        costs the same ``bytes_per_line``, and deriving both from one
        formula would silently hide a future non-uniform line size.
        """
        return self.economics.traffic_reduction


def _validate_trace(trace: np.ndarray, tile_of_access: np.ndarray) -> None:
    if trace.shape != tile_of_access.shape:
        raise ValidationError("trace and tile ids must be aligned")
    if trace.ndim != 1:
        raise ValidationError("trace must be one-dimensional")


def next_use_tiles(trace: np.ndarray, tile_of_access: np.ndarray) -> np.ndarray:
    """For each access, the tile index of the same Gaussian's next
    access (``+inf`` when never reused).

    This is the quantity the D&B engine precomputes per (tile,
    Gaussian) pair in Fig. 12(a).  It takes one stable sort by Gaussian
    id, not a scan: within each id's run of the sorted order, accesses
    stay in trace order, so each access's successor in the run is its
    next use.
    """
    _validate_trace(trace, tile_of_access)
    order = np.argsort(trace, kind="stable")
    ids = trace[order]
    reused = ids[1:] == ids[:-1]
    next_use = np.full(trace.shape[0], np.inf)
    next_use[order[:-1][reused]] = tile_of_access[order[1:][reused]]
    return next_use


POLICIES = ("reuse_distance", "lru", "fifo")


@dataclass(frozen=True)
class FrameCacheSample:
    """One frame of a :class:`TemporalReuseSimulator` run.

    Attributes
    ----------
    frame:
        0-based index of the frame within the stream.
    report:
        The frame's own access counters (warm-start state included).
    carried_hits:
        Hits served by lines that were already resident when the frame
        began — the *inter-frame* reuse a cold cache cannot capture.
    cumulative_accesses / cumulative_hits:
        Running totals over the stream up to and including this frame.
    """

    frame: int
    report: CacheReport
    carried_hits: int
    cumulative_accesses: int
    cumulative_hits: int

    @property
    def cumulative_hit_rate(self) -> float:
        if self.cumulative_accesses == 0:
            return 0.0
        return self.cumulative_hits / self.cumulative_accesses

    @property
    def carried_hit_rate(self) -> float:
        """Fraction of this frame's accesses served by carried lines."""
        if self.report.accesses == 0:
            return 0.0
        return self.carried_hits / self.report.accesses


@dataclass(frozen=True)
class TemporalCacheState:
    """Portable snapshot of a :class:`TemporalReuseSimulator`.

    What crosses a process boundary when a stream session is
    checkpointed (``repro.stream.checkpoint``): the resident line ids
    in cache order plus the cumulative counters.  This is sufficient
    for byte-identical continuation because no policy consults the
    stored per-line *values* across a frame boundary — reuse-distance
    re-keys every carried line with its first use in the incoming
    trace, and LRU/FIFO only use the dict *order* (which
    ``resident_ids`` preserves).
    """

    policy: str
    capacity_lines: int
    bytes_per_line: int
    resident_ids: tuple[int, ...]
    frames_observed: int
    cumulative_accesses: int
    cumulative_hits: int

    @property
    def resident_lines(self) -> int:
        return len(self.resident_ids)


class TemporalReuseSimulator:
    """The Gaussian Reuse Cache, simulated frame by frame.

    The simulator owns the resident set and is fed one frame trace at a
    time through :meth:`observe_frame`.  Frame 0 starts cold, so its
    report is the paper's single-frame simulation; every later frame
    starts from the previous frame's resident lines.

    For the reuse-distance policy, carried lines are re-keyed at the
    start of every frame with their *first* use tile in the incoming
    trace (``+inf`` when the Gaussian is not referenced this frame), so
    eviction decisions stay Belady-optimal at tile granularity within
    the frame.  LRU and FIFO carry their recency/arrival order across
    the frame boundary unchanged.

    :meth:`export_state` / :meth:`import_state` snapshot and restore
    the cross-frame state (resident set + cumulative counters), which
    is what session checkpointing and worker-crash recovery in
    ``repro.stream`` are built on.
    """

    def __init__(
        self,
        capacity_lines: int,
        bytes_per_line: int = 32,
        policy: str = "reuse_distance",
    ) -> None:
        if capacity_lines < 0:
            raise ValidationError("capacity cannot be negative")
        if policy not in POLICIES:
            raise ValidationError(f"unknown cache policy '{policy}'")
        self.capacity_lines = capacity_lines
        self.bytes_per_line = bytes_per_line
        self.policy = policy
        self._resident: dict[int, float] = {}
        self._frames_observed = 0
        self._cum_accesses = 0
        self._cum_hits = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all resident lines and counters (cold restart)."""
        self._resident.clear()
        self._frames_observed = 0
        self._cum_accesses = 0
        self._cum_hits = 0

    def flush_resident(self) -> None:
        """Invalidate resident lines, keeping the cumulative counters.

        Used by adaptive-quality streams (:mod:`repro.stream.qos`)
        when a session switches detail: feature records of one level
        of detail do not serve another, so a detail switch flushes the
        resident set — the stream's cumulative hit statistics keep
        accumulating across the switch.
        """
        self._resident.clear()

    def export_state(self) -> TemporalCacheState:
        """Snapshot the cross-frame state (resident set + counters).

        The resident ids are exported in cache order (insertion order
        of the backing dict), which is exactly the recency/arrival
        order LRU and FIFO evict by.
        """
        return TemporalCacheState(
            policy=self.policy,
            capacity_lines=self.capacity_lines,
            bytes_per_line=self.bytes_per_line,
            resident_ids=tuple(int(g) for g in self._resident),
            frames_observed=self._frames_observed,
            cumulative_accesses=self._cum_accesses,
            cumulative_hits=self._cum_hits,
        )

    def import_state(self, state: TemporalCacheState) -> None:
        """Restore a snapshot taken by :meth:`export_state`.

        The snapshot must come from a simulator with the same policy
        and geometry; the cumulative counters continue from the
        snapshot.
        """
        if state.policy != self.policy:
            raise ValidationError(
                f"cache state was exported under policy '{state.policy}', "
                f"this simulator runs '{self.policy}'"
            )
        if (
            state.capacity_lines != self.capacity_lines
            or state.bytes_per_line != self.bytes_per_line
        ):
            raise ValidationError(
                "cache state geometry mismatch: exported "
                f"{state.capacity_lines}x{state.bytes_per_line}B, simulator "
                f"has {self.capacity_lines}x{self.bytes_per_line}B"
            )
        if len(state.resident_ids) > self.capacity_lines:
            raise ValidationError("cache state holds more lines than capacity")
        if len(set(state.resident_ids)) != len(state.resident_ids):
            raise ValidationError("cache state resident ids must be unique")
        # Values are irrelevant across a frame boundary (see class
        # docstring); only membership and order must survive.
        self._resident = {int(g): 0.0 for g in state.resident_ids}
        self._frames_observed = state.frames_observed
        self._cum_accesses = state.cumulative_accesses
        self._cum_hits = state.cumulative_hits

    @property
    def frames_observed(self) -> int:
        return self._frames_observed

    @property
    def resident_lines(self) -> int:
        return len(self._resident)

    @property
    def cumulative_hit_rate(self) -> float:
        if self._cum_accesses == 0:
            return 0.0
        return self._cum_hits / self._cum_accesses

    # ------------------------------------------------------------------
    # Frame observation
    # ------------------------------------------------------------------
    def observe_frame(
        self, trace: np.ndarray, tile_of_access: np.ndarray
    ) -> FrameCacheSample:
        """Feed one frame's feature-access trace through the warm cache.

        ``trace`` must be keyed by a frame-stable Gaussian identity;
        ``tile_of_access`` gives the traversal-order tile of each
        access.
        """
        _validate_trace(trace, tile_of_access)
        if self.capacity_lines == 0:
            hits = carried = 0
        elif self.policy == "reuse_distance":
            hits, carried = self._observe_rd(trace, tile_of_access)
        else:
            hits, carried = self._observe_order(trace)
        n = trace.shape[0]
        self._cum_accesses += n
        self._cum_hits += hits
        sample = FrameCacheSample(
            frame=self._frames_observed,
            report=CacheReport(
                n, hits, n - hits, self.capacity_lines, self.bytes_per_line
            ),
            carried_hits=carried,
            cumulative_accesses=self._cum_accesses,
            cumulative_hits=self._cum_hits,
        )
        self._frames_observed += 1
        return sample

    # Each loop returns the frame's ``(hits, carried_hits)``.  A hit on
    # a line's first touch this frame can only be served by a line
    # resident before the frame began: that is a carried hit.  The loops
    # walk plain Python lists: indexing a numpy array per access would
    # box one scalar per element.

    def _observe_rd(
        self, trace: np.ndarray, tile_of_access: np.ndarray
    ) -> tuple[int, int]:
        next_use = next_use_tiles(trace, tile_of_access)
        ids, first, fresh = _first_touches(trace)
        # Re-key carried lines with their first use in this frame.
        first_use = dict(
            zip(ids.tolist(), tile_of_access[first].astype(np.float64).tolist())
        )
        resident = {g: first_use.get(g, np.inf) for g in self._resident}
        heap: list[tuple[float, int]] = [(-nu, g) for g, nu in resident.items()]
        heapq.heapify(heap)

        capacity = self.capacity_lines
        hits = 0
        carried = 0
        for g, nu, is_first in zip(trace.tolist(), next_use.tolist(), fresh.tolist()):
            if g in resident:
                hits += 1
                carried += is_first
                # Step 4: refresh the line's reuse distance.
                resident[g] = nu
                heapq.heappush(heap, (-nu, g))
                continue
            # Miss: evict the farthest-reuse line if full (Steps 2-3).
            # Stale heap entries (superseded by a hit's refresh) are
            # skipped on pop.
            if len(resident) >= capacity:
                while heap:
                    neg_nu, victim = heapq.heappop(heap)
                    if victim in resident and resident[victim] == -neg_nu:
                        del resident[victim]
                        break
                else:
                    raise SimulationError("eviction heap exhausted with full cache")
            resident[g] = nu
            heapq.heappush(heap, (-nu, g))
        self._resident = resident
        return hits, carried

    def _observe_order(self, trace: np.ndarray) -> tuple[int, int]:
        """LRU and FIFO: evict the oldest entry of the backing dict.
        An LRU hit re-inserts its line as the newest; FIFO keeps
        arrival order."""
        resident = self._resident
        lru = self.policy == "lru"
        capacity = self.capacity_lines
        hits = 0
        carried = 0
        for g, is_first in zip(trace.tolist(), _first_touches(trace)[2].tolist()):
            if g in resident:
                hits += 1
                carried += is_first
                if lru:
                    del resident[g]
                    resident[g] = 0.0
                continue
            if len(resident) >= capacity:
                del resident[next(iter(resident))]
            resident[g] = 0.0
        return hits, carried


def _first_touches(trace: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, first, fresh)``: the distinct Gaussian ids of a trace,
    the index of each one's first access, and per access whether it is
    that Gaussian's first this frame."""
    ids, first = np.unique(trace, return_index=True)
    fresh = np.zeros(trace.shape[0], dtype=bool)
    fresh[first] = True
    return ids, first, fresh


def sweep_cache_sizes(
    trace: np.ndarray,
    tile_of_access: np.ndarray,
    sizes_bytes: list[int],
    bytes_per_line: int = 32,
    policy: str = "reuse_distance",
) -> dict[int, CacheReport]:
    """Hit rate across cache capacities (Fig. 17's x-axis): one cold
    frame of a fresh simulator per capacity."""
    return {
        size: TemporalReuseSimulator(size // bytes_per_line, bytes_per_line, policy)
        .observe_frame(trace, tile_of_access)
        .report
        for size in sizes_bytes
    }
