"""Cycle models of the Row Generation Engine and Row PEs (Sec. V-C).

Two levels of fidelity:

* The **analytic model** (used for full scenes) computes, per tile,
  the serialized cycles of the Row Generation Engine and of each Row
  PE from aggregate per-row fragment/segment counts.  It assumes the
  row buffers are deep enough to decouple generation from shading
  (the paper sizes them so), making tile latency the slower engine's
  serialized time plus the un-overlapped share of the other side:
  ``max(generation, pe) + min(generation, pe) / 2``.
* The **tick simulator** (used by validation tests) executes the
  engine cycle by cycle with finite row-buffer FIFOs and real
  backpressure, on explicit per-instance traces.  Property tests
  assert the analytic model matches it closely when buffers are deep
  and bounds it from below when they are shallow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.gpu.calibration import DEFAULT_GBU_CALIBRATION, GBUCalibration


@dataclass(frozen=True)
class TileTrace:
    """Explicit per-instance workload of one tile.

    Attributes
    ----------
    segments:
        (n_instances, n_rows) fragment count of each (instance, row)
        segment (0 = row skipped for that instance).
    search_steps:
        (n_instances,) binary-search iterations the generation engine
        spends on the instance (summed over its rows).
    """

    segments: np.ndarray
    search_steps: np.ndarray

    def __post_init__(self) -> None:
        seg = np.asarray(self.segments, dtype=np.int64)
        steps = np.asarray(self.search_steps, dtype=np.int64)
        if seg.ndim != 2:
            raise ValidationError("segments must be (instances, rows)")
        if steps.shape != (seg.shape[0],):
            raise ValidationError("search_steps must have one entry per instance")
        if np.any(seg < 0) or np.any(steps < 0):
            raise ValidationError("trace counts cannot be negative")
        object.__setattr__(self, "segments", seg)
        object.__setattr__(self, "search_steps", steps)

    @property
    def n_instances(self) -> int:
        return self.segments.shape[0]

    @property
    def n_rows(self) -> int:
        return self.segments.shape[1]


def row_assignment(n_rows: int, n_pes: int, interleaved: bool = True) -> list[np.ndarray]:
    """Map tile rows to Row PEs.

    Interleaved assignment (row ``r`` -> PE ``r % n_pes``) balances
    elliptical footprints better than contiguous pairing because a
    Gaussian's heavy central rows land on different PEs; the ablation
    benchmark compares both.
    """
    if n_rows % n_pes != 0:
        raise ValidationError("rows must divide evenly among Row PEs")
    if interleaved:
        return [np.arange(n_rows)[k::n_pes] for k in range(n_pes)]
    per = n_rows // n_pes
    return [np.arange(k * per, (k + 1) * per) for k in range(n_pes)]


@dataclass(frozen=True)
class RowEngineEstimate:
    """Analytic per-tile cycle estimate.

    Attributes
    ----------
    generation_cycles:
        Serialized Row Generation Engine cycles.
    row_pe_cycles:
        (n_pes,) serialized shading cycles per Row PE.
    tile_cycles:
        Tile latency under the deep-buffer assumption.
    useful_cycles:
        Fragment-shading cycles summed over PEs (utilization numerator).
    """

    generation_cycles: float
    row_pe_cycles: np.ndarray
    tile_cycles: float
    useful_cycles: float

    @property
    def utilization(self) -> float:
        n_pes = len(self.row_pe_cycles)
        denom = n_pes * self.tile_cycles
        if denom <= 0:
            return 0.0
        return float(self.useful_cycles / denom)


def analytic_cycles(
    row_fragments: np.ndarray,
    row_segments: np.ndarray,
    n_instances: np.ndarray,
    search_instances: np.ndarray,
    calib: GBUCalibration = DEFAULT_GBU_CALIBRATION,
    n_pes: int = 8,
    interleaved: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Analytic latency of a batch of tiles from per-row aggregates.

    Parameters
    ----------
    row_fragments / row_segments:
        (n_tiles, n_rows) totals over all instances of each tile.
    n_instances:
        (n_tiles,) Gaussians processed by the generation engine.
    search_instances:
        (n_tiles,) instances needing a binary search.  The comparator
        array searches all rows of an instance concurrently, so each
        such instance pays one parallel search latency of
        ``ceil(log2(tile)) * rowgen_search_cycles``.

    Returns ``(generation, row_pe, tile, useful)`` cycles: (n_tiles,)
    serialized Row Generation Engine cycles, (n_tiles, n_pes)
    serialized shading cycles per Row PE, (n_tiles,) tile latency under
    the deep-buffer assumption, and (n_tiles,) fragment-shading cycles
    summed over PEs.  Each tile is computed independently of the
    others, with the same arithmetic as a one-tile batch.
    """
    row_fragments = np.asarray(row_fragments, dtype=np.float64)
    row_segments = np.asarray(row_segments, dtype=np.float64)
    n_rows = row_fragments.shape[1]
    assignment = np.stack(row_assignment(n_rows, n_pes, interleaved))

    per_row = (
        row_fragments * calib.fragment_cycles + row_segments * calib.segment_issue_cycles
    )
    # (n_tiles, n_pes, rows per PE): each PE's rows gathered in row
    # order.  Made C-contiguous so every tile's PE sums run along the
    # memory axis, one association order whatever the batch size.
    pe_cycles = np.ascontiguousarray(per_row[:, assignment]).sum(axis=2)
    search_latency = np.ceil(np.log2(max(n_rows, 2)))
    gen = (
        np.asarray(n_instances) * calib.rowgen_gaussian_cycles
        + np.asarray(search_instances) * search_latency * calib.rowgen_search_cycles
    ).astype(np.float64)
    pe_max = pe_cycles.max(axis=1, initial=0.0)
    # Deep-buffer makespan.  The slower engine is always busy once
    # fed, so its serialized time is a floor; how much of the *other*
    # engine's work overlaps depends on how the per-instance work is
    # interleaved in depth order, which the aggregate counters cannot
    # see.  Perfect interleaving would hide nearly all of it
    # (+min/n); fully skewed arrival (the critical PE's work entirely
    # in the last instances) hides none (+min).  With no distribution
    # information the model assumes half-overlap — validated against
    # the tick simulator to track it within the +-20% band across
    # random traces (tests/core/test_row_engine.py).  The +1 is the
    # simulator's loop-exit cycle.
    tile = np.where(
        (gen > 0) | (pe_max > 0),
        np.maximum(gen, pe_max) + 0.5 * np.minimum(gen, pe_max) + 1.0,
        0.0,
    )
    useful = row_fragments.sum(axis=1) * calib.fragment_cycles
    return gen, pe_cycles, tile, useful


def analytic_tile_cycles(
    row_fragments: np.ndarray,
    row_segments: np.ndarray,
    n_instances: int,
    search_instances: int,
    calib: GBUCalibration = DEFAULT_GBU_CALIBRATION,
    n_pes: int = 8,
    interleaved: bool = True,
) -> RowEngineEstimate:
    """Analytic latency of one tile: the one-tile case of
    :func:`analytic_cycles`, whose parameters these are per tile."""
    gen, pe_cycles, tile, useful = analytic_cycles(
        np.asarray(row_fragments, dtype=np.float64)[None],
        np.asarray(row_segments, dtype=np.float64)[None],
        np.asarray([n_instances]),
        np.asarray([search_instances]),
        calib=calib,
        n_pes=n_pes,
        interleaved=interleaved,
    )
    return RowEngineEstimate(
        generation_cycles=float(gen[0]),
        row_pe_cycles=pe_cycles[0],
        tile_cycles=float(tile[0]),
        useful_cycles=float(useful[0]),
    )


@dataclass
class TickResult:
    """Outcome of the tick-accurate simulation of one tile."""

    cycles: int
    fragments_shaded: int
    generation_busy_cycles: int
    row_pe_busy_cycles: np.ndarray
    max_buffer_occupancy: np.ndarray


def tick_simulate_tile(
    trace: TileTrace,
    calib: GBUCalibration = DEFAULT_GBU_CALIBRATION,
    n_pes: int = 8,
    buffer_depth: int = 8,
    interleaved: bool = True,
    max_cycles: int = 10_000_000,
) -> TickResult:
    """Cycle-by-cycle simulation of the Row-Centric Tile Engine.

    The Row Generation Engine walks instances in depth order; for each
    it spends ``rowgen_gaussian_cycles + search_steps`` cycles, then
    atomically pushes one work item per non-empty row into that row's
    buffer (stalling while any target buffer is full).  Each Row PE
    round-robins over its rows' buffers, paying the segment-issue
    latency and then one cycle per fragment.

    Only integer cycle costs are supported in tick mode.
    """
    for name in ("fragment_cycles", "segment_issue_cycles",
                 "rowgen_gaussian_cycles", "rowgen_search_cycles"):
        if float(getattr(calib, name)) != int(getattr(calib, name)):
            raise ValidationError("tick simulation requires integer cycle costs")

    n_rows = trace.n_rows
    assignment = row_assignment(n_rows, n_pes, interleaved)

    buffers: list[list[int]] = [[] for _ in range(n_rows)]
    max_occ = np.zeros(n_rows, dtype=np.int64)

    issue = int(calib.segment_issue_cycles)
    frag_c = int(calib.fragment_cycles)
    gen_c = int(calib.rowgen_gaussian_cycles)
    search_c = int(calib.rowgen_search_cycles)

    search_latency = int(np.ceil(np.log2(max(trace.n_rows, 2))))

    def instance_setup(i: int) -> int:
        searching = int(trace.search_steps[i] > 0)
        return gen_c + search_c * search_latency * searching

    # Generation engine state machine: per instance spend the setup
    # cycles, then (in the final setup cycle or stalling afterwards)
    # push one work item per non-empty row into its buffer.
    inst = 0
    gen_done = trace.n_instances == 0
    setup_left = instance_setup(0) if not gen_done else 0
    pending: list[tuple[int, int]] | None = None
    gen_busy = 0

    pe_remaining = np.zeros(n_pes, dtype=np.int64)
    pe_busy = np.zeros(n_pes, dtype=np.int64)
    pe_rr = np.zeros(n_pes, dtype=np.int64)
    fragments = 0
    cycles = 0

    def advance_instance() -> None:
        nonlocal inst, gen_done, setup_left, pending
        inst += 1
        pending = None
        if inst >= trace.n_instances:
            gen_done = True
        else:
            setup_left = instance_setup(inst)

    def try_push() -> bool:
        """Push the pending work items if every target FIFO has room."""
        nonlocal pending
        assert pending is not None
        if any(len(buffers[r]) >= buffer_depth for r, _ in pending):
            return False
        for r, length in pending:
            buffers[r].append(length)
            max_occ[r] = max(max_occ[r], len(buffers[r]))
        return True

    while True:
        if cycles >= max_cycles:
            raise SimulationError("tick simulation exceeded max_cycles")

        # --- Generation engine (one action per cycle) ---
        if not gen_done:
            gen_busy += 1
            if pending is not None:
                # Stalled on full buffers from a previous cycle.
                if try_push():
                    advance_instance()
            else:
                setup_left -= 1
                if setup_left == 0:
                    seg = trace.segments[inst]
                    pending = [
                        (r, int(seg[r])) for r in range(n_rows) if seg[r] > 0
                    ]
                    if not pending or try_push():
                        advance_instance()

        # --- Row PEs ---
        for k in range(n_pes):
            if pe_remaining[k] > 0:
                pe_remaining[k] -= 1
                pe_busy[k] += 1
                continue
            rows = assignment[k]
            for step in range(len(rows)):
                r = rows[(pe_rr[k] + step) % len(rows)]
                if buffers[r]:
                    length = buffers[r].pop(0)
                    pe_remaining[k] = issue + length * frag_c - 1
                    fragments += length
                    pe_busy[k] += 1
                    pe_rr[k] = (pe_rr[k] + step + 1) % len(rows)
                    break

        cycles += 1
        if gen_done and not any(buffers) and not pe_remaining.any():
            break

    return TickResult(
        cycles=cycles,
        fragments_shaded=fragments,
        generation_busy_cycles=gen_busy,
        row_pe_busy_cycles=pe_busy,
        max_buffer_occupancy=max_occ,
    )


def trace_to_aggregates(trace: TileTrace) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Convert an explicit trace to the analytic model's aggregates:
    (row_fragments, row_segments, n_instances, search_steps)."""
    row_fragments = trace.segments.sum(axis=0)
    row_segments = (trace.segments > 0).sum(axis=0)
    return (
        row_fragments,
        row_segments,
        trace.n_instances,
        int((trace.search_steps > 0).sum()),
    )
